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
exp(x/β) (β < 0), which D annihilates, carried by its own phase.  β picks
the route (`production_route`), and both routes are one transform,
`half_spectrum`: the FFT of the image extension (of ψ, or of g = D_h ψ),
read at any time t for the evolved samples and once for the wall rows of
the line split.  `restricted_propagate`, the line split
(`line_pdx_ladder`) and the histories direct sum all build it.  The
eigendecomposition of the finite-difference H_β stays as an independent
oracle, run only when named (method="eig").

The propagator split on the line reads, for ψ supported in x ≥ 0,

    U(t)ψ = [boundary convolution] + U_r^β(t)ψ,

where the convolution carries amplitude across x = 0 through the wall values
a(s) = (U_r ψ)(0) and b(s) = ∂ₓ(U_r ψ)(0):

    χ(x) = (iħ/2m) ∫₀ᵗ ds [ g(x,0,t-s)·b(s) - ∂_ξ g(x,ξ,t-s)|₀ ·a(s) ]

with g the free kernel.  The integrable endpoint of the convolution is
handled by the substitution s = t - u².

States are position samples only: momentum enters through the FFT
wavenumbers of the grid (`SpatialGrid.k`), never as a second state type,
and every free evolution reads its phase from `free_phase`.
The free-particle momentum state of the arrival module is
`arrival.MomentumState`.

Natural units: m = ħ = 1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .qcore import DomainError, _check_time, simpson_weights

NEUMANN = "neumann"
_SUPPORT_TOL = 1e-6       # weight allowed in x < 0 for a right-supported state


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

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.samples.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} samples, "
                             f"got shape {self.samples.shape}")

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.samples) ** 2) * self.grid.dx))

    def normalized(self) -> "WaveFunction":
        nrm = self.norm()
        if not np.isfinite(nrm):
            raise ValueError("cannot normalise a state with non-finite samples")
        if nrm < 1e-14:
            raise DomainError("cannot normalise a (near) null state")
        return WaveFunction(self.grid, self.samples / nrm)

    def inner(self, other: "WaveFunction") -> complex:
        if other.grid != self.grid:
            raise ValueError("inner product needs matching grids")
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

    def build(self, grid: SpatialGrid) -> WaveFunction:
        x = grid.x
        psi = np.exp(-((x - self.x0) ** 2) / (4 * self.sigma ** 2)
                     + 1j * self.p0 * (x - self.x0))
        if self.parity is not None:
            _require_symmetric(grid)
            mirrored = _reflect_full(psi)
            psi = psi + mirrored if self.parity == "even" else psi - mirrored
        return WaveFunction(grid, psi).normalized()


def gaussian_packet(grid: SpatialGrid, x0: float, p0: float, sigma: float,
                    parity: str | None = None) -> WaveFunction:
    return GaussianPacket(x0, p0, sigma, parity).build(grid)


def _reflect_full(samples: np.ndarray) -> np.ndarray:
    """x -> -x on a symmetric periodic grid; node 0 and node x_min are fixed."""
    n = samples.shape[0]
    idx = (-np.arange(n)) % n
    return samples[idx]


def free_phase(grid: SpatialGrid, t: float) -> np.ndarray:
    """e^{-iħk²t/2m} on `SpatialGrid.k`, the one free phase on a grid:
    np.exp over modes 0..n//2, mirrored (fftfreq gives k[n-j] = -k[j]
    exactly), so byte for byte the full-grid np.exp.  Read-only, cached
    per (grid, float(t)) for the two most recent keys, 16n bytes each."""
    return _free_phase(grid, float(t))


@lru_cache(maxsize=2)
def _free_phase(grid: SpatialGrid, t: float) -> np.ndarray:
    m = grid.n // 2 + 1
    phase = np.empty(grid.n, dtype=complex)
    phase[:m] = np.exp(-1j * grid.k[:m] ** 2 * t / 2)
    phase[m:] = phase[1:grid.n - m + 1][::-1]
    phase.flags.writeable = False
    return phase


free_phase.cache_info = _free_phase.cache_info
free_phase.cache_clear = _free_phase.cache_clear


def spectral_evolve_line(psi: WaveFunction, t: float) -> WaveFunction:
    """Free evolution by phase e^{-ip²t/2mħ} (`free_phase`); exact
    dispersion on the grid, valid for either sign of t."""
    _check_time(t)
    spec = np.fft.fft(psi.samples) * free_phase(psi.grid, t)
    return WaveFunction(psi.grid, np.fft.ifft(spec))


@dataclass(frozen=True)
class HalfLineSystem:
    """Half-line [0, L] with wall condition ψ(0) = βψ'(0).  States live on
    nodes x_j = j·dx, dx = L/n.

    The outer wall at x = L depends on the route.  The eig oracle and the
    odd images (β = 0) make it hard, ψ(L) = 0.  The even images (NEUMANN)
    make it reflecting, ψ'(L) = 0, and set the x = -L image node to 0.  The
    intertwined route (finite β ≠ 0) evolves g = D_h ψ by the odd images,
    so g(L) = ψ(L) - βψ'(L) = 0.  The routes agree while the state keeps
    away from x = L."""

    L: float
    n: int
    beta: float | str

    def __post_init__(self):
        if not (np.isfinite(self.L) and self.L > 0):
            raise ValueError(f"L must be positive and finite, got {self.L}")
        if self.n < 8:
            raise ValueError(f"n must be >= 8, got {self.n}")
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


def _halfline_tridiag(sys: HalfLineSystem) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the discrete H_β: central second
    differences with the Robin ghost point eliminated, half-cell weight at
    the wall node absorbed symmetrically.

    The wall row comes from eliminating the ghost value ψ(-dx) through the
    second-order relation ψ(-dx) = ψ(dx) - 2dx·ψ(0)/β and weighting the wall
    node by its half cell; rescaling that node by √2 restores a plainly
    symmetric matrix whose eigenpairs are those of the weighted problem.
    For β = 0 the wall value is pinned to zero and the matrix acts on the
    n-1 interior nodes only.
    """
    kappa = 1 / (2 * sys.dx ** 2)
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
        out[1:] = evecs @ (np.exp(-1j * evals * t) * c)
        return out
    phi = h.astype(complex).copy()
    phi[0] /= np.sqrt(2.0)
    c = evecs.T @ phi
    phi_t = evecs @ (np.exp(-1j * evals * t) * c)
    phi_t[0] *= np.sqrt(2.0)
    return phi_t


def _image_extension(h: np.ndarray, sys: HalfLineSystem) -> np.ndarray:
    """Odd (hard wall) or even (reflecting wall) extension of half-line
    samples onto the symmetric full grid; `half_spectrum` is its one user."""
    n = sys.n
    f = np.zeros(2 * n, dtype=complex)
    f[n:] = h
    if sys.is_dirichlet:
        f[n] = 0.0
        f[1:n] = -h[1:][::-1]
    else:
        f[1:n] = h[1:][::-1]
    return f


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
    return np.exp(1j * np.asarray(t) / (2 * sys.beta ** 2))


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


@dataclass(frozen=True, eq=False)
class HalfSpectrum:
    """A half-line state transformed once for every read (`half_spectrum`).

    spec is the FFT of an image extension on sys.full_grid(): of the state
    itself at the parity walls, and of g = D_h ψ (odd, the hard wall) at
    every finite β ≠ 0, where g is kept for its wall null mode g_0, which
    evolves outside the image route.  Consumers hand `at` a time only.
    """

    sys: HalfLineSystem
    spec: np.ndarray
    g: np.ndarray | None

    def at(self, t: float) -> np.ndarray:
        """U_r^β(t)ψ on [0, L] for either sign of t, through
        `free_phase` of sys.full_grid()."""
        h = np.fft.ifft(self.spec * free_phase(self.sys.full_grid(), t))
        h = h[self.sys.n:]
        if self.g is not None:
            h[0] = self.g[0] * _null_phase(self.sys, t)
            h = _from_dirichlet(h, self.sys)
        return h

    def wall_probe(self) -> tuple[np.ndarray, np.ndarray]:
        """Wall value a(s) and derivative b(s) of U_r^β(s)ψ as k-space rows:

            [a(s); b(s)] = coef @ e^{-iħk²s/2m} + null·_null_phase(sys, s)

        over the full grid's wavenumbers k.  The evolved extension is read
        at the wall through one fixed weight vector, so coef is spec times
        that vector's transform.  Parity walls: the extension is smooth
        through x = 0, so the derivative is taken spectrally (exact for the
        grid).  Finite β: ψ_s(0) = ℓ @ g_s is the march's wall value
        (`_wall_functional`), b(s) = a(s)/β, and null carries g_0.
        """
        sys, n = self.sys, self.sys.n
        if self.g is None:
            e0 = np.exp(2j * np.pi * np.arange(2 * n) * n / (2 * n))  # value at x=0
            value = self.spec * e0 / (2 * n)
            zero = np.zeros_like(value)
            if sys.is_dirichlet:
                return np.array([zero, 1j * sys.full_grid().k * value]), np.zeros(2)
            return np.array([value, zero]), np.zeros(2)
        ell = _wall_functional(sys)
        probe = np.zeros(2 * n)
        probe[n + 1:] = ell[1:]
        value = self.spec * np.fft.ifft(probe)
        return (np.array([value, value / sys.beta]),
                ell[0] * self.g[0] * np.array([1.0, 1.0 / sys.beta]))


def half_spectrum(h: np.ndarray, sys: HalfLineSystem) -> HalfSpectrum:
    """The one image transform of half-line samples h on sys, which every
    production evolution of the half line reads: `restricted_propagate`
    (images and intertwine), the line split and the histories direct sum."""
    if production_route(sys) == "images":
        return HalfSpectrum(sys, np.fft.fft(_image_extension(h, sys)), None)
    g = _to_dirichlet(h, sys)
    hard = replace(sys, beta=0.0)
    return HalfSpectrum(sys, np.fft.fft(_image_extension(g, hard)), g)


def restricted_propagate(psi_half: WaveFunction, sys: HalfLineSystem, t: float,
                         method: str | None = None) -> WaveFunction:
    """U_r^β(t) ψ = exp(-iH_β t/ħ) ψ on [0, L], forward in time (t ≥ 0).

    β picks the route, `production_route(sys)`: "images" (the parity
    extension, β = 0 and NEUMANN) or "intertwine" (finite β ≠ 0: ψ mapped
    to the hard wall with D_h, evolved by images and mapped back; spectral
    in time, O(dx²) from D_h, exactly the identity at t = 0 and exactly
    reversible).  Both read one `half_spectrum`, whose `at` takes either
    sign of t.  method may name that route, or "eig", the oracle: the
    eigendecomposition of the discrete H_β (every β; O(n³) once per
    system, then O(n²), conserving the half-cell-weighted norm exactly).
    Any other method is a ValueError.
    """
    _check_time(t, nonnegative=True)
    if psi_half.grid != sys.half_grid():
        raise ValueError("state grid does not match the half-line system")
    route = production_route(sys)
    if method == "eig":
        out = _propagate_half_samples(psi_half.samples, sys, t)
    elif method in (None, route):
        out = half_spectrum(psi_half.samples, sys).at(t)
    else:
        raise ValueError(f"method must be 'eig' or this wall's route "
                         f"{route!r}, got {method!r}")
    return WaveFunction(sys.half_grid(), out)


def grid_zeno_product(psi: WaveFunction, sys: HalfLineSystem, t: float,
                      n: int) -> WaveFunction:
    """Position-projector Zeno product on the grid: θ [U(δt) θ]ⁿ ψ.

    Interleaves exact free evolution with projection onto x ≥ 0.  Used to
    probe which wall condition the projective limit selects; the measured
    drift is toward the hard (Dirichlet) wall.
    """
    _check_time(t, nonnegative=True)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if psi.grid != sys.full_grid():
        raise ValueError("state grid does not match the full-line system grid")
    g = psi.grid
    phase = free_phase(g, t / n)
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


def line_pdx_ladder(psi: WaveFunction, sys: HalfLineSystem, t: float,
                    ladder: list[int]) -> list[LinePdxParts]:
    """The line split of a state supported in x ≥ 0, for every n_quad of a
    refinement ladder, in ladder order; each rung's residual
    ‖U(t)ψ - [crossing + U_r^β(t)ψ]‖ is `LinePdxParts.residual_norm`.

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

    k_cut is the largest wavenumber a rung's θ grid resolves (phase step
    ≤ 0.4 rad), capped at 0.9 k_Nyquist; the parts report it.  The phase
    table e^{-iħk²u²/2m} is built over |k| only (k² is even), and the wall
    values a(s), b(s) at s = t - u² are read through it.

    The ladder is one pass: U(t)ψ is computed once, and U_r^β(t)ψ and the
    wall probe both read one `half_spectrum` of ψ (one D_h ψ at finite β);
    a rung whose θ nodes are a strided subset of a finer rung's reads that
    rung's phase table and wall values instead of building its own.  Phase
    tables are cached per (t, L, n, n_quad) for the two most recent keys
    (`_phase_table`), so a repeated grid and ladder builds none; the wall
    values are per call.  The whole ladder is validated before any work.
    """
    if not (np.isfinite(t) and t > 0):
        raise ValueError(f"t must be positive and finite, got {t}")
    ladder = list(ladder)
    if not ladder:
        raise ValueError("the ladder needs at least one n_quad")
    for n_quad in ladder:
        if n_quad < 2 or n_quad % 2:
            raise ValueError(f"n_quad must be even and >= 2, got {n_quad}")
    if psi.grid != sys.full_grid():
        raise ValueError("psi must be a state on the system's full grid")
    n, dx = sys.n, sys.dx
    samples = psi.samples
    left_mass = np.sqrt(np.sum(np.abs(samples[:n]) ** 2) * dx)
    if left_mass > _SUPPORT_TOL * max(psi.norm(), 1e-30):
        raise DomainError(f"state has weight {left_mass:.3e} in x < 0; "
                          "the split needs right-supported input")

    g = psi.grid
    k = g.k
    k_nyq = np.pi / dx
    mu = k ** 2 / 2
    tail = free_phase(g, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(mu > 0, 1.0 / np.where(mu > 0, mu, 1.0), 0.0)

    # k² is even: mode m shares its phase column with mode 2n - m, so the
    # table runs over |k| (columns 0..n) and `fold` maps each mode to its
    # column.  The wall rows are summed over each ±k pair before the product.
    fold = np.minimum(np.arange(2 * n), 2 * n - np.arange(2 * n))
    spectrum = half_spectrum(samples[n:], sys)
    coef, null = spectrum.wall_probe()
    probe = np.conj(tail * coef)
    folded = probe[:, :n + 1].copy()
    folded[:, 1:n] += probe[:, :n:-1]

    delta = np.zeros(g.n, dtype=complex)
    delta[n] = 1.0 / dx
    guard = _raised_cosine_window(k, 0.85 * k_nyq, 0.95 * k_nyq)
    to_chi = (1j / 2) * guard * np.fft.fft(delta)

    evolved = spectral_evolve_line(psi, t).samples
    restricted = np.zeros(g.n, dtype=complex)
    restricted[n:] = spectrum.at(t)

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
            table, walls = _quadrature_rows(theta, t, sys, folded, null)
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

        # phase step (ħk²t/2m)·(π/2n_quad)·|sin 2θ| ≤ 0.4 rad in the zone
        rung_cut = float(min(np.sqrt(0.4 * (4 / np.pi) * n_quad / t),
                             0.9 * k_nyq))
        w_q = _raised_cosine_window(k, 0.7 * rung_cut, rung_cut)
        source = w_q * src_quad + (1.0 - w_q) * src_asym
        parts[n_quad] = LinePdxParts(evolved=evolved,
                                     crossing=np.fft.ifft(to_chi * source),
                                     restricted=restricted, k_cut=rung_cut,
                                     n_quad=n_quad)
    return [parts[n_quad] for n_quad in ladder]


@lru_cache(maxsize=2)
def _phase_table(t: float, L: float, n: int, n_quad: int) -> np.ndarray:
    """Read-only e^{-iħk²u²/2m} at u = √t·sin θ_j, θ_j = jπ/(2n_quad), over
    |k|: the first n + 1 wavenumbers of the full grid [-L, L) of 2n nodes.
    It depends on no state and no wall, so every line split shares it.
    (n_quad+1)(n+1)·16 bytes per table, at most two tables: 13 MB each at
    n = 2048 and 26 MB at 4096 with n_quad 400.  The phase is formed in the
    table's own real part, so no float temporary of its size exists."""
    u = np.sqrt(t) * np.sin(np.linspace(0.0, np.pi / 2, n_quad + 1))
    k_half = SpatialGrid(-L, L, 2 * n).k[:n + 1]
    # cos + i·sin, faster than a complex exp
    table = np.empty((n_quad + 1, n + 1), dtype=complex)
    phase = table.real
    np.multiply.outer(u ** 2, k_half ** 2, out=phase)
    phase *= -0.5
    np.sin(phase, out=table.imag)
    np.cos(phase, out=phase)
    table.flags.writeable = False
    return table


def _quadrature_rows(theta: np.ndarray, t: float, sys: HalfLineSystem,
                     folded: np.ndarray,
                     null: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phase table over |k| at u = √t·sin θ (`_phase_table`), and the wall
    values [a; b] at s = t - u² read through it from the folded probe rows:
    they need the conjugate table times e^{-iħk²t/2m}, which `folded`
    already carries."""
    u = np.sqrt(t) * np.sin(theta)
    table = _phase_table(t, sys.L, sys.n, theta.size - 1)
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
