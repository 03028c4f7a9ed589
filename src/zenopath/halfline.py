"""Free particle on the line and half-line with self-adjoint wall conditions.

The half-line Hamiltonian family is parametrised by the Robin condition
ψ(0) = β ψ'(0), with β = 0 the hard (Dirichlet) wall, β = NEUMANN the
reflecting (Neumann) wall, and β < 0 supporting the single bound state
exp(x/β) at energy -ħ²/(2mβ²).  The restricted propagator is realised
by the method of images for the two parity walls (odd or even extension
plus exact spectral evolution) and, for every finite β ≠ 0, by
intertwining (Clark, Menikoff & Sharp, Phys. Rev. D 22, 3012 (1980)):
D = 1 - β∂ₓ maps Robin-wall states to hard-wall states and commutes with
the free Hamiltonian, so U_r^β(t) = D⁻¹ U_r^0(t) D, with the bound state
exp(x/β) (β < 0), which D annihilates, carried by its own phase.  These two
routes are the production ones (`production_route`).  The eigendecomposition
of the finite-difference H_β (method="eig") stays as an independent oracle.

The propagator split on the line reads, for ψ supported in x ≥ 0,

    U(t)ψ = [boundary convolution] + U_r^β(t)ψ,

where the convolution carries amplitude across x = 0 through the wall values
a(s) = (U_r ψ)(0) and b(s) = ∂ₓ(U_r ψ)(0):

    χ(x) = (iħ/2m) ∫₀ᵗ ds [ g(x,0,t-s)·b(s) - ∂_ξ g(x,ξ,t-s)|₀ ·a(s) ]

with g the free kernel.  The integrable endpoint of the convolution is
handled by the substitution s = t - u².

Natural units m = ħ = 1 by default; both are keywords or system fields.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .qcore import DomainError, _check_time, simpson_weights

NEUMANN = "neumann"


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid x_j = x_min + j·dx, j = 0..n-1, right endpoint excluded."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise ValueError("grid endpoints must be finite, got "
                             f"[{self.x_min}, {self.x_max}]")
        if not self.x_min < self.x_max:
            raise ValueError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if self.n < 8:
            raise ValueError(f"grid needs n >= 8, got {self.n}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)

    @property
    def k(self) -> np.ndarray:
        """Angular wavenumbers of the grid's FFT modes, in numpy's FFT order."""
        return 2 * np.pi * np.fft.fftfreq(self.n, self.dx)

    def is_symmetric(self) -> bool:
        """Symmetric about 0 with an even point count, so x = 0 sits on a node."""
        scale = max(abs(self.x_min), abs(self.x_max), 1.0)
        return self.n % 2 == 0 and abs(self.x_min + self.x_max) < 1e-12 * scale


def _require_symmetric(grid: SpatialGrid) -> int:
    if not grid.is_symmetric():
        raise ValueError("operation needs a grid symmetric about x = 0 "
                         "with x = 0 on a node")
    return grid.n // 2


@dataclass
class WaveFunction:
    """Sampled state.  norm² = Σ|ψ_j|²·dx (plain Riemann weight)."""

    grid: SpatialGrid
    samples: np.ndarray
    representation: str = "position"

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.samples.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} samples, "
                             f"got shape {self.samples.shape}")
        if self.representation not in ("position", "momentum"):
            raise ValueError(f"unknown representation {self.representation!r}")

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.samples) ** 2) * self.grid.dx))

    def normalized(self) -> "WaveFunction":
        nrm = self.norm()
        if not np.isfinite(nrm):
            raise ValueError("cannot normalise a state with non-finite samples")
        if nrm < 1e-14:
            raise DomainError("cannot normalise a (near) null state")
        return WaveFunction(self.grid, self.samples / nrm, self.representation)

    def inner(self, other: "WaveFunction") -> complex:
        if other.grid != self.grid or other.representation != self.representation:
            raise ValueError("inner product needs matching grids and representations")
        return complex(np.vdot(self.samples, other.samples) * self.grid.dx)


@dataclass(frozen=True)
class GaussianPacket:
    """ψ(x) ∝ exp(-(x-x₀)²/4σ² + ip₀(x-x₀)/ħ), optionally (anti)symmetrised."""

    x0: float
    p0: float
    sigma: float
    parity: str | None = None

    def __post_init__(self):
        for name, value in (("x0", self.x0), ("p0", self.p0)):
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if self.parity not in (None, "even", "odd"):
            raise ValueError(f"parity must be None, 'even' or 'odd', got {self.parity!r}")

    def build(self, grid: SpatialGrid, hbar: float = 1.0) -> WaveFunction:
        x = grid.x
        psi = np.exp(-((x - self.x0) ** 2) / (4 * self.sigma ** 2)
                     + 1j * self.p0 * (x - self.x0) / hbar)
        if self.parity is not None:
            _require_symmetric(grid)
            mirrored = _reflect_full(psi)
            psi = psi + mirrored if self.parity == "even" else psi - mirrored
        return WaveFunction(grid, psi).normalized()


def gaussian_packet(grid: SpatialGrid, x0: float, p0: float, sigma: float,
                    parity: str | None = None, hbar: float = 1.0) -> WaveFunction:
    return GaussianPacket(x0, p0, sigma, parity).build(grid, hbar)


def _reflect_full(samples: np.ndarray) -> np.ndarray:
    """x -> -x on a symmetric periodic grid; node 0 and node x_min are fixed."""
    n = samples.shape[0]
    idx = (-np.arange(n)) % n
    return samples[idx]


def free_kernel(x, y, t: float, mass: float = 1.0, hbar: float = 1.0):
    """g(x,y,t) = sqrt(m/2πiħt)·exp(im(x-y)²/2ħt), the forward branch
    sqrt(1/i) = e^{-iπ/4}."""
    if t <= 0:
        raise ValueError(f"free kernel needs t > 0, got {t}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    amp = np.sqrt(mass / (2 * np.pi * hbar * t)) * np.exp(-1j * np.pi / 4)
    return amp * np.exp(1j * mass * (x - y) ** 2 / (2 * hbar * t))


def to_momentum(psi: WaveFunction, hbar: float = 1.0) -> WaveFunction:
    """Unitary transform to φ(p) = (2πħ)^{-1/2} ∫ ψ(x) e^{-ipx/ħ} dx."""
    if psi.representation != "position":
        raise ValueError("state is already in momentum representation")
    g = psi.grid
    k = g.k
    phi = g.dx / np.sqrt(2 * np.pi * hbar) * np.fft.fft(psi.samples)
    phi *= np.exp(-1j * k * g.x_min)
    order = np.argsort(k, kind="stable")
    p = hbar * k[order]
    dp = p[1] - p[0]
    pgrid = SpatialGrid(p[0], p[0] + dp * g.n, g.n)
    return WaveFunction(pgrid, phi[order], "momentum")


def to_position(phi: WaveFunction, grid: SpatialGrid, hbar: float = 1.0) -> WaveFunction:
    """Inverse of to_momentum back onto the originating position grid."""
    if phi.representation != "momentum":
        raise ValueError("state is not in momentum representation")
    k_sorted = phi.grid.x / hbar
    k = grid.k
    order = np.argsort(k, kind="stable")
    spec = np.empty(grid.n, dtype=complex)
    if not np.allclose(k[order], k_sorted, atol=1e-9):
        raise ValueError("momentum grid does not match the target position grid")
    spec[order] = phi.samples
    spec *= np.exp(1j * k * grid.x_min)
    psi = np.fft.ifft(spec) * np.sqrt(2 * np.pi * hbar) / grid.dx
    return WaveFunction(grid, psi, "position")


def spectral_evolve_line(psi: WaveFunction, t: float,
                         mass: float = 1.0, hbar: float = 1.0) -> WaveFunction:
    """Free evolution by phase e^{-ip²t/2mħ}; exact dispersion on the grid,
    valid for either sign of t."""
    _check_time(t)
    if psi.representation == "momentum":
        p = psi.grid.x
        out = psi.samples * np.exp(-1j * p ** 2 * t / (2 * mass * hbar))
        return WaveFunction(psi.grid, out, "momentum")
    g = psi.grid
    spec = np.fft.fft(psi.samples) * np.exp(-1j * hbar * g.k ** 2 * t / (2 * mass))
    return WaveFunction(g, np.fft.ifft(spec), "position")


def phq_nonzero_check(psi: WaveFunction, mass: float = 1.0,
                      hbar: float = 1.0) -> float:
    """‖(1-θ)·(-ħ²/2m)∂²ₓ(θψ)‖ on the grid: the amplitude the kinetic term
    moves across the cut at x = 0 in one application.

    Grid convention: the inner cut keeps x ≥ 0, the outer keeps x ≤ 0; both
    contain the cut node, where the distributional weight (δ, δ') of the
    product lives.  For ψ(0) ≠ 0 the norm grows like dx^{-3/2} under
    refinement, for odd ψ (ψ(0) = 0, ψ'(0) ≠ 0) like dx^{-1/2}.
    """
    j0 = _require_symmetric(psi.grid)
    dx = psi.grid.dx
    inner = psi.samples.copy()
    inner[:j0] = 0.0                       # keep x >= 0
    d2 = np.zeros_like(inner)
    d2[1:-1] = (inner[:-2] - 2 * inner[1:-1] + inner[2:]) / dx ** 2
    out = (-hbar ** 2 / (2 * mass)) * d2
    out[j0 + 1:] = 0.0                     # keep x <= 0
    return float(np.sqrt(np.sum(np.abs(out) ** 2) * dx))


@dataclass(frozen=True)
class HalfLineSystem:
    """Half-line [0, L] with wall condition ψ(0) = βψ'(0) and a hard outer
    wall at x = L.  States live on nodes x_j = j·dx, dx = L/n."""

    L: float
    n: int
    beta: float | str
    mass: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.L) and self.L > 0):
            raise ValueError(f"L must be positive and finite, got {self.L}")
        if self.n < 8:
            raise ValueError(f"n must be >= 8, got {self.n}")
        if self.mass <= 0 or self.hbar <= 0:
            raise ValueError("mass and hbar must be positive")
        if isinstance(self.beta, str):
            if self.beta != NEUMANN:
                raise ValueError(f"string beta must be {NEUMANN!r}, got {self.beta!r}")
        elif not np.isfinite(self.beta):
            raise ValueError("finite beta required; use NEUMANN for the "
                             "reflecting wall")

    @property
    def dx(self) -> float:
        return self.L / self.n

    @property
    def x(self) -> np.ndarray:
        return self.dx * np.arange(self.n)

    @property
    def is_neumann(self) -> bool:
        return isinstance(self.beta, str)

    @property
    def is_dirichlet(self) -> bool:
        return not self.is_neumann and self.beta == 0.0

    def half_grid(self) -> SpatialGrid:
        return SpatialGrid(0.0, self.L, self.n)

    def full_grid(self) -> SpatialGrid:
        return SpatialGrid(-self.L, self.L, 2 * self.n)


def halfline_norm(samples: np.ndarray, sys: HalfLineSystem) -> float:
    """Half-line norm with the half-cell weight at the wall node.

    The wall node controls the half cell [0, dx/2], so the faithful quadrature
    is trapezoidal there; this is the norm the restricted propagator
    conserves exactly.
    """
    s = np.asarray(samples)
    w = np.abs(s) ** 2
    return float(np.sqrt((0.5 * w[0] + w[1:].sum()) * sys.dx))


def build_halfline_hamiltonian(sys: HalfLineSystem):
    """Discrete H_β: central second differences with the Robin ghost point
    eliminated, half-cell weight at the wall node absorbed symmetrically.

    The wall row comes from eliminating the ghost value ψ(-dx) through the
    second-order relation ψ(-dx) = ψ(dx) - 2dx·ψ(0)/β and weighting the wall
    node by its half cell; rescaling that node by √2 restores a plainly
    symmetric matrix whose eigenpairs are those of the weighted problem.
    For β = 0 the wall value is pinned to zero and the matrix acts on the
    n-1 interior nodes only.

    Returns a qcore.Operator (real symmetric tridiagonal entries).
    """
    from .qcore import Operator

    diag, off = _halfline_tridiag(sys)
    m = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return Operator(m)


def _halfline_tridiag(sys: HalfLineSystem) -> tuple[np.ndarray, np.ndarray]:
    kappa = sys.hbar ** 2 / (2 * sys.mass * sys.dx ** 2)
    if sys.is_dirichlet:
        dim = sys.n - 1
        diag = np.full(dim, 2 * kappa)
        off = np.full(dim - 1, -kappa)
        return diag, off
    robin = 0.0 if sys.is_neumann else sys.dx / sys.beta
    diag = np.full(sys.n, 2 * kappa)
    diag[0] = 2 * kappa * (1 + robin)
    off = np.full(sys.n - 1, -kappa)
    off[0] = -np.sqrt(2.0) * kappa
    return diag, off


@lru_cache(maxsize=2)
def halfline_eigensystem(sys: HalfLineSystem) -> tuple[np.ndarray, np.ndarray]:
    """Cached eigenpairs of the discrete H_β.  Safe under concurrent readers:
    population is idempotent and the arrays are frozen read-only.

    O(n³) time and 8·n(n+1) bytes per system; the cache keeps the two most
    recent systems, at most 16·n(n+1) bytes: 67 MB at n = 2048, 1.07 GB at
    n = 8192.  Only method="eig" and oracles use it.
    """
    import scipy.linalg     # deferred: the only scipy use, off the import path

    diag, off = _halfline_tridiag(sys)
    evals, evecs = scipy.linalg.eigh_tridiagonal(diag, off)
    evals.flags.writeable = False
    evecs.flags.writeable = False
    return evals, evecs


def _propagate_half_samples(h: np.ndarray, sys: HalfLineSystem, t: float) -> np.ndarray:
    """exp(-iH_β t/ħ) h through the cached eigensystem (any sign of t)."""
    evals, evecs = halfline_eigensystem(sys)
    if sys.is_dirichlet:
        c = evecs.T @ h[1:]
        out = np.zeros_like(h)
        out[1:] = evecs @ (np.exp(-1j * evals * t / sys.hbar) * c)
        return out
    phi = h.astype(complex).copy()
    phi[0] /= np.sqrt(2.0)
    c = evecs.T @ phi
    phi_t = evecs @ (np.exp(-1j * evals * t / sys.hbar) * c)
    phi_t[0] *= np.sqrt(2.0)
    return phi_t


def _image_extension(h: np.ndarray, sys: HalfLineSystem) -> np.ndarray:
    """Parity extension of half-line samples onto the symmetric full grid."""
    n = sys.n
    f = np.zeros(2 * n, dtype=complex)
    f[n:] = h
    if sys.is_dirichlet:
        f[n] = 0.0
        f[1:n] = -h[1:][::-1]
    elif sys.is_neumann:
        f[1:n] = h[1:][::-1]
    else:
        raise ValueError("image method exists only for beta = 0 or NEUMANN")
    return f


def image_method_propagate(psi_half: WaveFunction, sys: HalfLineSystem,
                           t: float) -> WaveFunction:
    """Restricted propagation by images: odd (Dirichlet) or even (Neumann)
    extension, exact spectral evolution on [-L, L), restriction to x ≥ 0."""
    if psi_half.grid != sys.half_grid():
        raise ValueError("state grid does not match the half-line system")
    f = _image_extension(psi_half.samples, sys)
    full = WaveFunction(sys.full_grid(), f)
    out = spectral_evolve_line(full, t, sys.mass, sys.hbar)
    return WaveFunction(sys.half_grid(), out.samples[sys.n:])


def _linear_scan(u: np.ndarray, c: float) -> np.ndarray:
    """y_j = c·y_{j-1} + u_j from y_{-1} = 0, for |c| < 1, by recursive
    doubling: ⌈log₂ n⌉ vector passes instead of a Python loop over nodes."""
    y = np.array(u, dtype=complex)
    p, shift = c, 1
    while shift < y.size and p != 0.0:
        y[shift:] += p * y[:-shift]
        p, shift = p * p, 2 * shift
    return y


def _intertwine_cell(sys: HalfLineSystem) -> tuple[float, float, float]:
    """(e, α, γ) of one cell of ψ' = (ψ - g)/β with g linear on the cell,
    integrated exactly in the stable march direction (toward the wall for
    β > 0, away from it for β < 0): ψ_new = e·ψ_old + α g_new - γ g_old,
    e = e^{-dx/|β|} ≤ 1.  The recursions below need |γ/α| < 1, which holds
    for every β ≠ 0."""
    step = -sys.dx / abs(sys.beta)
    e = float(np.exp(step))
    ratio = float(np.expm1(step) / step)
    return e, 1.0 - ratio, e - ratio


def _march_order(sys: HalfLineSystem) -> slice:
    """Node order of the stable march: from x = L inward for β > 0."""
    return slice(None, None, -1) if sys.beta > 0 else slice(None)


def _bound_projector(sys: HalfLineSystem) -> tuple[np.ndarray, np.ndarray]:
    """Bound profile e_j = e^{x_j/β} (β < 0) and the row vector giving its
    coefficient c = proj @ ψ in the half-cell-weighted inner product."""
    e = np.exp(sys.x / sys.beta)
    w = e.copy()
    w[0] *= 0.5
    return e, w / np.dot(w, e)


def _to_dirichlet(h: np.ndarray, sys: HalfLineSystem) -> np.ndarray:
    """g = D_h ψ, the exact algebraic inverse of `_from_dirichlet`.

    Node 0 of g is the wall null mode the hard-wall route leaves alone: for
    β > 0 the cell relation's wall residual (the continuum g(0) = 0), for
    β < 0 the coefficient of the bound state, which D annihilates.
    """
    e, alpha, gamma = _intertwine_cell(sys)
    psi = h[_march_order(sys)]
    v = psi / alpha
    v[1:] -= (e / alpha) * psi[:-1]
    if sys.beta < 0:
        v[0] = 0.0                      # ψ_0 is free; g_0 carries it below
    g = _linear_scan(v, gamma / alpha)[_march_order(sys)]
    if sys.beta < 0:
        g[0] = _bound_projector(sys)[1] @ h
    return g


def _from_dirichlet(g: np.ndarray, sys: HalfLineSystem) -> np.ndarray:
    """ψ = D_h⁻¹ g by the exponential march of ψ' = (ψ - g)/β, g linear per
    cell: toward the wall from ψ(L) = 0 for β > 0, away from it for β < 0,
    where the free multiple of e^{x/β} is set so that the bound-state
    coefficient of ψ equals g_0."""
    e, alpha, gamma = _intertwine_cell(sys)
    src = g[_march_order(sys)].copy()
    if sys.beta < 0:
        src[0] = 0.0                    # march from ψ_0 = 0; bound state below
    u = alpha * src
    u[1:] -= gamma * src[:-1]
    psi = _linear_scan(u, e)[_march_order(sys)]
    if sys.beta < 0:
        bound, proj = _bound_projector(sys)
        psi += (g[0] - proj @ psi) * bound
    return psi


def _null_phase(sys: HalfLineSystem, t) -> np.ndarray | float:
    """Evolution of g_0: the bound state's e^{iħt/2mβ²} for β < 0, none for
    β > 0, where g_0 is a wall residual and not a state, nor for the parity
    walls, which have no g_0."""
    if sys.is_neumann or sys.beta >= 0:
        return 1.0
    return np.exp(1j * sys.hbar * np.asarray(t) / (2 * sys.mass * sys.beta ** 2))


def _intertwine_propagate(h: np.ndarray, sys: HalfLineSystem, t: float) -> np.ndarray:
    """U_r^β(t)ψ = D_h⁻¹ U_r^0(t) D_h ψ, any sign of t, O(n log n)."""
    g = _to_dirichlet(h, sys)
    hard = replace(sys, beta=0.0)
    out = image_method_propagate(WaveFunction(hard.half_grid(), g), hard,
                                 t).samples
    out[0] = g[0] * _null_phase(sys, t)
    return _from_dirichlet(out, sys)


def _wall_functional(sys: HalfLineSystem) -> np.ndarray:
    """Row vector ℓ with (D_h⁻¹ g)(0) = ℓ @ g, read off `_from_dirichlet`."""
    e, alpha, gamma = _intertwine_cell(sys)
    if sys.beta > 0:
        # the wall is the march's last node: ψ_0 = Σ_j e^j (α g_j - γ g_{j+1})
        decay = np.exp(-sys.x / sys.beta)
        ell = alpha * decay
        ell[1:] -= gamma * decay[:-1]
        return ell
    # ψ_0 = g_0 - proj @ part, and proj @ part = Σ_k u_k T_k with
    # T_k = Σ_{j≥k} proj_j e^{j-k}, u_k = α g_k - γ g_{k-1} (k ≥ 1)
    tail = _linear_scan(_bound_projector(sys)[1][::-1], e)[::-1].real
    ell = np.empty(sys.n)
    ell[0] = 1.0
    ell[1:] = -alpha * tail[1:]
    ell[1:-1] += gamma * tail[2:]
    return ell


def production_route(sys: HalfLineSystem) -> str:
    """The route production code takes: images for the parity walls,
    intertwine for every other wall."""
    return "images" if (sys.is_dirichlet or sys.is_neumann) else "intertwine"


def restricted_propagate(psi_half: WaveFunction, sys: HalfLineSystem, t: float,
                         method: str = "eig",
                         reverse: bool = False) -> WaveFunction:
    """U_r^β(t) ψ = exp(-iH_β t/ħ) ψ on [0, L].

    method="eig" uses the eigendecomposition of the discrete H_β (every β;
    O(n³) once per system, then O(n²), and it conserves the half-cell-weighted
    norm exactly); it is kept as the oracle for the other two.
    method="images" uses the parity extension (β = 0 and NEUMANN only).
    method="intertwine" (finite β ≠ 0) maps ψ to the hard wall with D_h,
    evolves by images and maps back; spectral in time, O(dx²) from D_h,
    exactly the identity at t = 0 and exactly reversible.
    Forward evolution only; set reverse=True for the documented time-reversed
    branch exp(+iH_β t/ħ).
    """
    _check_time(t, nonnegative=True)
    if psi_half.grid != sys.half_grid():
        raise ValueError("state grid does not match the half-line system")
    t_eff = -t if reverse else t
    if method == "images":
        return image_method_propagate(psi_half, sys, t_eff)
    if method == "intertwine":
        if sys.is_dirichlet or sys.is_neumann:
            raise ValueError("intertwine needs a finite beta != 0; "
                             "the parity walls take method='images'")
        out = _intertwine_propagate(psi_half.samples, sys, t_eff)
    elif method == "eig":
        out = _propagate_half_samples(psi_half.samples, sys, t_eff)
    else:
        raise ValueError(f"unknown method {method!r}")
    return WaveFunction(sys.half_grid(), out)


def wall_flux(psi_half: WaveFunction, sys: HalfLineSystem) -> float:
    """Probability flux (ħ/m)·Im(ψ̄ ψ')(0) with the Robin-consistent boundary
    pair: ψ'(0) from the one-sided second-order stencil and ψ(0) = β ψ'(0).

    Real β makes ψ̄(0)ψ'(0) = β|ψ'(0)|² real, so no probability leaks through
    the wall; the returned value is the roundoff-level residual of that
    statement.
    """
    a, b = _boundary_pair(psi_half.samples, sys)
    return float(sys.hbar / sys.mass * (np.conj(a) * b).imag)


def _boundary_pair(h: np.ndarray, sys: HalfLineSystem) -> tuple[complex, complex]:
    """(value, derivative) of a half-line state at the wall, scheme-consistent."""
    b = (-3.0 * h[0] + 4.0 * h[1] - h[2]) / (2 * sys.dx)
    if sys.is_dirichlet:
        return 0.0 + 0.0j, complex(b)
    if sys.is_neumann:
        return complex(h[0]), 0.0 + 0.0j
    return complex(sys.beta * b), complex(b)


def grid_zeno_product(psi: WaveFunction, sys: HalfLineSystem, t: float,
                      n: int) -> WaveFunction:
    """Position-projector Zeno product on the grid: θ [U(δt) θ]ⁿ ψ.

    Interleaves exact free evolution with projection onto x ≥ 0.  Used to
    probe which wall condition the projective limit selects; the measured
    drift is toward the hard (Dirichlet) wall.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if psi.grid != sys.full_grid():
        raise ValueError("state grid does not match the full-line system grid")
    g = psi.grid
    phase = np.exp(-1j * sys.hbar * g.k ** 2 * (t / n) / (2 * sys.mass))
    cur = psi.samples.copy()
    cur[:sys.n] = 0.0
    for _ in range(n):
        cur = np.fft.ifft(np.fft.fft(cur) * phase)
        cur[:sys.n] = 0.0
    return WaveFunction(g, cur)


@dataclass(frozen=True)
class LinePdxParts:
    """Pieces of the split U(t)ψ = crossing + U_r^β(t)ψ for right-supported ψ."""

    evolved: np.ndarray       # U(t)ψ on the full grid
    crossing: np.ndarray      # boundary convolution, full grid
    restricted: np.ndarray    # U_r^β(t)ψ embedded on the full grid
    k_cut: float
    n_quad: int

    def residual_norm(self, dx: float) -> float:
        r = self.evolved - self.crossing - self.restricted
        return float(np.sqrt(np.sum(np.abs(r) ** 2) * dx))


def line_pdx_terms(psi: WaveFunction, sys: HalfLineSystem, t: float,
                   n_quad: int = 400, k_cut: float | None = None,
                   support_tol: float = 1e-6) -> LinePdxParts:
    """Assemble the line split for a state supported in x ≥ 0.

    The crossing convolution is evaluated in the grid's own momentum basis,
    where each mode sees the source S(k) = ∫₀ᵗ ds e^{-iħk²(t-s)/2m}(b(s)+ik·a(s)).
    Two regimes are joined smoothly at the quadrature resolution limit k_cut:

    * |k| < k_cut — composite Simpson after the substitution s = t-u²
      refined to u = √t·sin θ, which clusters nodes at both endpoints
      (the s = t kernel singularity and the s = 0 wall boundary layer).
    * |k| > k_cut — integration-by-parts asymptotics
      S ≈ (f(t) - f(0)e^{-iħk²t/2m})·2m/(iħk²) per source component, exact
      for the jump and kink the crossing term carries at x = 0, valid
      precisely where the oscillation e^{-iħk²u²/2m} outruns any quadrature.

    k_cut defaults to the largest wavenumber the θ grid resolves
    (phase step ≤ 0.4 rad); pass a value to override.  The phase table
    e^{-iħk²u²/2m} is built over |k| only (k² is even), and the wall values
    a(s), b(s) at s = t - u² are read through it.  This is the one-rung
    case of `line_pdx_ladder`.
    """
    return _line_pdx_parts(psi, sys, t, [n_quad], k_cut, support_tol)[0]


def line_pdx_ladder(psi: WaveFunction, sys: HalfLineSystem, t: float,
                    ladder: list[int], k_cut: float | None = None) -> list[float]:
    """`line_pdx_residual` for every n_quad of a refinement ladder, in one
    pass: U(t)ψ, U_r^β(t)ψ and the wall probe are computed once, and a rung
    whose θ nodes are a strided subset of a finer rung's reads that rung's
    phase table and wall values instead of building its own.  The whole
    ladder is validated before any work."""
    return [parts.residual_norm(sys.dx)
            for parts in _line_pdx_parts(psi, sys, t, ladder, k_cut)]


def _line_pdx_parts(psi: WaveFunction, sys: HalfLineSystem, t: float,
                    ladder: list[int], k_cut: float | None = None,
                    support_tol: float = 1e-6) -> list[LinePdxParts]:
    """The line split for each n_quad of `ladder`, in ladder order."""
    if not (np.isfinite(t) and t > 0):
        raise ValueError(f"t must be positive and finite, got {t}")
    ladder = list(ladder)
    if not ladder:
        raise ValueError("the ladder needs at least one n_quad")
    for n_quad in ladder:
        if n_quad < 2 or n_quad % 2:
            raise ValueError(f"n_quad must be even and >= 2, got {n_quad}")
    if psi.representation != "position" or psi.grid != sys.full_grid():
        raise ValueError("psi must be a position state on the system's full grid")
    n, dx = sys.n, sys.dx
    mass, hbar = sys.mass, sys.hbar
    samples = psi.samples
    left_mass = np.sqrt(np.sum(np.abs(samples[:n]) ** 2) * dx)
    if left_mass > support_tol * max(psi.norm(), 1e-30):
        raise DomainError(f"state has weight {left_mass:.3e} in x < 0; "
                          "the split needs right-supported input")

    g = psi.grid
    k = g.k
    k_nyq = np.pi / dx
    mu = hbar * k ** 2 / (2 * mass)
    tail = np.exp(-1j * mu * t)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(mu > 0, 1.0 / np.where(mu > 0, mu, 1.0), 0.0)

    # k² is even: mode m shares its phase column with mode 2n - m, so the
    # table runs over |k| (columns 0..n) and `fold` maps each mode to its
    # column.  The wall rows are summed over each ±k pair before the product.
    fold = np.minimum(np.arange(2 * n), 2 * n - np.arange(2 * n))
    coef, null = _wall_probe(samples[n:], sys)
    probe = np.conj(tail * coef)
    folded = probe[:, :n + 1].copy()
    folded[:, 1:n] += probe[:, :n:-1]

    delta = np.zeros(g.n, dtype=complex)
    delta[n] = 1.0 / dx
    guard = _raised_cosine_window(k, 0.85 * k_nyq, 0.95 * k_nyq)
    to_chi = (1j * hbar / (2 * mass)) * guard * np.fft.fft(delta)

    evolved = spectral_evolve_line(psi, t, mass, hbar).samples
    restricted = np.zeros(g.n, dtype=complex)
    half = WaveFunction(sys.half_grid(), samples[n:])
    restricted[n:] = restricted_propagate(half, sys, t,
                                          method=production_route(sys)).samples

    # Finest rung first: a rung whose θ nodes are every N/n_quad-th node of
    # a built rung N reads N's rows; any other rung builds its own.
    built: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    parts: dict[int, LinePdxParts] = {}
    for n_quad in sorted(set(ladder), reverse=True):
        theta = np.linspace(0.0, np.pi / 2, n_quad + 1)
        for fine, table, walls in built:
            stride = (fine.size - 1) // n_quad
            if (fine.size - 1) % n_quad == 0 \
                    and np.array_equal(fine[::stride], theta):
                table, walls = table[::stride], walls[:, ::stride]
                break
        else:
            table, walls = _quadrature_rows(theta, t, k[:n + 1], sys, folded,
                                            null)
            built.append((theta, table, walls))
        a_s, b_s = walls
        w_simp = simpson_weights(n_quad + 1, theta[1] - theta[0])
        wj = w_simp * t * np.sin(2 * theta)   # ds = t·sin2θ dθ under s = t·cos²θ
        quad_b, quad_a = (np.array([wj * b_s, wj * a_s]) @ table)[:, fold]
        src_quad = quad_b + 1j * k * quad_a

        # Endpoint asymptotics: s runs t -> 0, so f(t)=f[0], f(0)=f[-1].
        i_b = (b_s[0] - b_s[-1] * tail) * inv / 1j
        i_a = (a_s[0] - a_s[-1] * tail) * inv / 1j
        src_asym = i_b + 1j * k * i_a

        if k_cut is None:
            # phase step (ħk²t/2m)·(π/2n_quad)·|sin 2θ| ≤ 0.4 rad in the zone
            rung_cut = np.sqrt(0.4 * (4 / np.pi) * n_quad * mass / (hbar * t))
        else:
            rung_cut = k_cut
        rung_cut = float(min(rung_cut, 0.9 * k_nyq))
        w_q = _raised_cosine_window(k, 0.7 * rung_cut, rung_cut)
        source = w_q * src_quad + (1.0 - w_q) * src_asym
        parts[n_quad] = LinePdxParts(evolved=evolved,
                                     crossing=np.fft.ifft(to_chi * source),
                                     restricted=restricted, k_cut=rung_cut,
                                     n_quad=n_quad)
    return [parts[n_quad] for n_quad in ladder]


def _quadrature_rows(theta: np.ndarray, t: float, k_half: np.ndarray,
                     sys: HalfLineSystem, folded: np.ndarray,
                     null: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phase table e^{-iħk²u²/2m} over |k| at u = √t·sin θ, and the wall
    values [a; b] at s = t - u² read through it from the folded probe rows:
    they need the conjugate table times e^{-iħk²t/2m}, which `folded`
    already carries."""
    u = np.sqrt(t) * np.sin(theta)
    phase = np.outer(u ** 2, k_half ** 2) * (-sys.hbar / (2 * sys.mass))
    table = np.empty(phase.shape, dtype=complex)    # cos + i·sin, faster
    np.cos(phase, out=table.real)                   # than a complex exp
    np.sin(phase, out=table.imag)
    walls = (np.conj(folded @ table.T)
             + np.outer(null, _null_phase(sys, t - u ** 2)))
    return table, walls


def _raised_cosine_window(k: np.ndarray, k_pass: float, k_stop: float) -> np.ndarray:
    ak = np.abs(k)
    w = np.ones_like(ak)
    ramp = (ak - k_pass) / max(k_stop - k_pass, 1e-300)
    mask = ramp > 0
    w[mask] = 0.5 * (1 + np.cos(np.pi * np.clip(ramp[mask], 0.0, 1.0)))
    w[ak >= k_stop] = 0.0
    return w


def _wall_probe(h0: np.ndarray, sys: HalfLineSystem) -> tuple[np.ndarray, np.ndarray]:
    """Wall value a(s) and derivative b(s) of U_r^β(s)ψ as k-space rows:

        [a(s); b(s)] = coef @ e^{-iħk²s/2m} + null·_null_phase(sys, s)

    over the full grid's wavenumbers k.  Every wall evolves an image
    extension (of ψ, or of g = D_h ψ) and reads it at the wall through one
    fixed weight vector, so coef is that extension's spectrum times the
    vector's transform.  Parity walls: the extension is smooth through
    x = 0, so the derivative is taken spectrally (exact for the grid).
    Finite β: ψ_s(0) = ℓ @ g_s is the march's wall value
    (`_wall_functional`), b(s) = a(s)/β, and null carries g_0, which
    evolves outside the image route.
    """
    n = sys.n
    if sys.is_dirichlet or sys.is_neumann:
        e0 = np.exp(2j * np.pi * np.arange(2 * n) * n / (2 * n))  # value at x=0
        value = np.fft.fft(_image_extension(h0, sys)) * e0 / (2 * n)
        zero = np.zeros_like(value)
        if sys.is_dirichlet:
            return np.array([zero, 1j * sys.full_grid().k * value]), np.zeros(2)
        return np.array([value, zero]), np.zeros(2)
    g = _to_dirichlet(h0, sys)
    ell = _wall_functional(sys)
    probe = np.zeros(2 * n)
    probe[n + 1:] = ell[1:]
    value = (np.fft.fft(_image_extension(g, replace(sys, beta=0.0)))
             * np.fft.ifft(probe))
    return (np.array([value, value / sys.beta]),
            ell[0] * g[0] * np.array([1.0, 1.0 / sys.beta]))


def line_pdx_residual(psi: WaveFunction, sys: HalfLineSystem, t: float,
                      n_quad: int = 400, k_cut: float | None = None) -> float:
    """‖U(t)ψ - [crossing + U_r^β(t)ψ]‖ over the full grid."""
    return line_pdx_ladder(psi, sys, t, [n_quad], k_cut)[0]
