"""Finite-dimensional quantum kernel: unitaries, Zeno products, and the
path-decomposition split of a propagator at a projector boundary.

Everything here acts on dense complex matrices.  The central identity is the
splitting of the evolution operator by the first crossing of the boundary
between the subspaces picked out by a projector P and its complement Q = 1 - P:

    U(t) = U(t)P + ∫₀ᵗ ds U(t-s) Ṗ U_r(s) + U_r(t),      Ṗ = (i/ħ)[H, P]

where U_r(t) is the restricted propagator, realised as the Zeno limit of
interleaved evolution and projection,

    U_r(t) = lim_{n→∞} U(nδt) Q(nδt) Q((n-1)δt) ... Q(δt) Q,   δt = t/n,

with Q(s) = U†(s) Q U(s).  The limit is never taken symbolically: callers pick
a finite n, and the generator form Q exp(-i QHQ t/ħ) Q is available separately
for cross-checks.  Natural units ħ = 1 by default; ħ is a keyword everywhere.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class DomainError(ValueError):
    """An input violates a mathematical precondition (not merely a bad type)."""


def _as_matrix(a) -> np.ndarray:
    if isinstance(a, Operator):
        return a.mat
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _check_time(t: float, nonnegative: bool = False) -> None:
    """The one rule for evolution times: finite, and >= 0 where asked."""
    if not np.isfinite(t) or (nonnegative and t < 0):
        bound = " and >= 0" if nonnegative else ""
        raise ValueError(f"t must be finite{bound}, got {t}")


class Operator:
    """Dense complex square matrix with the predicates used across the package."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        m = _as_matrix(mat)
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise ValueError("operator entries must be finite")
        self.mat = m

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "Operator":
        return cls(np.eye(dim, dtype=complex))

    def trace(self) -> complex:
        return complex(np.trace(self.mat))

    def norm(self) -> float:
        """Operator (spectral) norm."""
        return float(np.linalg.norm(self.mat, 2))

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return np.linalg.norm(self.mat - self.mat.conj().T, 2) <= tol

    def is_unitary(self, tol: float = 1e-10) -> bool:
        d = self.mat.conj().T @ self.mat - np.eye(self.dim)
        return np.linalg.norm(d, 2) <= tol

    def is_projector(self, tol: float = 1e-10) -> bool:
        idem = np.linalg.norm(self.mat @ self.mat - self.mat, 2) <= tol
        return idem and self.is_hermitian(tol)

    def __matmul__(self, other) -> "Operator":
        return Operator(self.mat @ _as_matrix(other))

    def __add__(self, other) -> "Operator":
        return Operator(self.mat + _as_matrix(other))

    def __sub__(self, other) -> "Operator":
        return Operator(self.mat - _as_matrix(other))

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.mat * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Operator":
        return Operator(-self.mat)

    def __repr__(self) -> str:
        return f"Operator(dim={self.dim})"


@dataclass(frozen=True)
class ZenoSchedule:
    """Uniform projection schedule on [0, t] with n evolution intervals.

    n = 0 is the degenerate convention "project once, never evolve"; products
    built from it reduce to the bare projector.
    """

    t: float
    n: int

    def __post_init__(self):
        _check_time(self.t, nonnegative=True)
        if self.n < 0:
            raise ValueError(f"interval count must be >= 0, got {self.n}")

    @property
    def dt(self) -> float:
        if self.n == 0:
            return 0.0
        return self.t / self.n

    @property
    def times(self) -> np.ndarray:
        """Projection instants t_k = k·δt for k = 0..n."""
        return np.linspace(0.0, self.t, self.n + 1)


@dataclass(frozen=True)
class PdxTerms:
    """The three pieces of the propagator split at a projector boundary."""

    boundary: Operator      # U(t) P
    crossing: Operator      # ∫₀ᵗ ds U(t-s) Ṗ U_r(s)
    restricted: Operator    # U_r(t)
    quad_points: int

    @property
    def total(self) -> Operator:
        return self.boundary + self.crossing + self.restricted


@dataclass(frozen=True)
class DecoherenceMatrix:
    """2x2 decoherence functional d(i,j) = Tr(C_i ρ C_j†) for a history pair."""

    d: np.ndarray
    labels: tuple[str, str] = ("stay", "cross")

    @property
    def d11(self) -> float:
        return float(self.d[0, 0].real)

    @property
    def d22(self) -> float:
        return float(self.d[1, 1].real)

    @property
    def d12(self) -> complex:
        return complex(self.d[0, 1])

    def total(self) -> complex:
        return complex(self.d.sum())

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return bool(np.abs(self.d - self.d.conj().T).max() <= tol)

    def is_consistent(self, rel_tol: float = 1e-6) -> bool:
        """Interference is negligible against the branch probabilities."""
        if not (np.isfinite(rel_tol) and rel_tol >= 0):
            raise ValueError(f"tol must be finite and >= 0, got {rel_tol}")
        scale = max(self.d11, self.d22, 1e-30)
        return abs(self.d12.real) <= rel_tol * scale

    @classmethod
    def from_class_operator(cls, c1, rho) -> "DecoherenceMatrix":
        """d(i,j) = Tr(C_i ρ C_j†) for C₁ = c1 and C₂ = 1 - C₁."""
        c1, rho = _as_matrix(c1), _as_matrix(rho)
        ops = (c1, np.eye(c1.shape[0]) - c1)
        return cls(np.array([[np.trace(a @ rho @ b.conj().T) for b in ops]
                             for a in ops]))


def simpson_weights(n_points: int, step: float) -> np.ndarray:
    """Composite Simpson weights for n_points (odd) nodes spaced by step."""
    weights = np.ones(n_points)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= step / 3.0
    return weights


def _hermitian(H) -> np.ndarray:
    """H as a matrix, if ‖H - H†‖₂ ≤ 1e-10·max(1, ‖H‖₂) (the one rule)."""
    m = _as_matrix(H)
    herm_defect = np.linalg.norm(m - m.conj().T, 2)
    if herm_defect > 1e-10 * max(1.0, np.linalg.norm(m, 2)):
        raise DomainError(f"H is not hermitian (defect {herm_defect:.3e})")
    return m


def _propagator(H, hbar: float) -> Callable[[float], np.ndarray]:
    """τ ↦ exp(-iHτ/ħ) from one eigendecomposition of hermitian H."""
    return _eigen_propagator(*np.linalg.eigh(_hermitian(H)), hbar)


def _eigen_propagator(evals: np.ndarray, vecs: np.ndarray,
                      hbar: float) -> Callable[[float], np.ndarray]:
    """τ ↦ exp(-iHτ/ħ) from H = V diag(λ) V†, given as (λ, V)."""

    def u_of(tau: float) -> np.ndarray:
        return (vecs * np.exp(-1j * evals * (tau / hbar))) @ vecs.conj().T

    return u_of


def _restricted_generator(h: np.ndarray, q: np.ndarray,
                          hbar: float) -> Callable[[float], np.ndarray]:
    """s ↦ Q exp(-i QHQ s/ħ) Q from one eigendecomposition of QHQ."""
    qhq = q @ h @ q
    u_qhq = _propagator(0.5 * (qhq + qhq.conj().T), hbar)   # scrub roundoff
    return lambda s: q @ u_qhq(s) @ q


def evolve(H, t: float, hbar: float = 1.0) -> Operator:
    """exp(-iHt/ħ) through the eigendecomposition of hermitian H.

    The result is unitary to machine precision for any finite t.
    """
    _check_time(t)
    return Operator(_propagator(H, hbar)(t))


def pdot(H, P, hbar: float = 1.0) -> Operator:
    """Heisenberg velocity of the projector: Ṗ = (i/ħ)[H, P]."""
    h, p = _as_matrix(H), _as_matrix(P)
    if h.shape != p.shape:
        raise ValueError(f"dimension mismatch: H is {h.shape}, P is {p.shape}")
    return Operator((1j / hbar) * (h @ p - p @ h))


def _check_projector(P, what: str = "P") -> np.ndarray:
    p = _as_matrix(P)
    if not Operator(p).is_projector(1e-10):
        raise DomainError(f"{what} is not an orthogonal projector")
    return p


def decomposition_of_unity_residual(H, P, schedule: ZenoSchedule,
                                    hbar: float = 1.0) -> float:
    """Residual ‖1 - [P + Σ_k P(t_k)Q(t_{k-1})···Q + Q(t_n)···Q]‖.

    The bracketed sum telescopes to the identity for every n and every set of
    times, so the residual is pure numerical noise; anything above ~1e-12
    indicates a broken projector or evolution.
    """
    u_of = _propagator(H, hbar)
    p = _check_projector(P)
    q = np.eye(p.shape[0]) - p
    total = p.copy()
    chain = q.copy()          # Q(t_{k-1}) ... Q(t_0), with t_0 = 0
    for tk in schedule.times[1:]:
        u = u_of(tk)
        p_t = u.conj().T @ p @ u
        q_t = u.conj().T @ q @ u
        total = total + p_t @ chain
        chain = q_t @ chain
    total = total + chain
    return float(np.linalg.norm(np.eye(p.shape[0]) - total, 2))


def _zeno_power(u_of: Callable[[float], np.ndarray], q: np.ndarray,
                dt: float, n: int) -> np.ndarray:
    """Q [U(dt) Q]ⁿ with a logarithmic number of products; Q itself for n = 0.

    The one Zeno-product kernel: callers decompose H and check Q once and
    hand in the propagator, so repeated products share both.
    """
    if n == 0:
        return q.astype(complex)
    return q @ np.linalg.matrix_power(u_of(dt) @ q, n)


def zeno_product(H, Q, schedule: ZenoSchedule, hbar: float = 1.0) -> Operator:
    """Finite-n Zeno approximant U(nδt) Q(nδt) ··· Q(δt) Q of U_r(t).

    Telescoping the Heisenberg projectors gives the equivalent stable form
    Q [U(δt) Q]ⁿ, evaluated with a logarithmic number of matrix products.
    For n = 0 the product degenerates to Q itself.
    """
    q = _check_projector(Q, "Q")
    u_of = _propagator(H, hbar)
    return Operator(_zeno_power(u_of, q, schedule.dt, schedule.n))


def restricted_limit(H, Q, t: float, hbar: float = 1.0) -> Operator:
    """Generator form Q exp(-i QHQ t/ħ) Q of the restricted propagator.

    In finite dimension the Zeno product converges to this at rate O(1/n);
    it serves as the cross-check for the finite-n route, not as its default.
    """
    _check_time(t)
    h = _hermitian(H)
    q = _check_projector(Q, "Q")
    return Operator(_restricted_generator(h, q, hbar)(t))


def _richardson(u_of: Callable[[float], np.ndarray], q: np.ndarray,
                t: float, n: int) -> np.ndarray:
    """2·Z(2n) - Z(n) from one propagator and one checked Q."""
    z_n = _zeno_power(u_of, q, ZenoSchedule(t, n).dt, n)
    z_2n = _zeno_power(u_of, q, ZenoSchedule(t, 2 * n).dt, 2 * n)
    return 2.0 * z_2n - z_n


def zeno_limit_richardson(H, Q, t: float, n: int, hbar: float = 1.0) -> Operator:
    """Richardson step in 1/n: 2·Z(2n) - Z(n) cancels the leading Zeno error."""
    q = _check_projector(Q, "Q")
    return Operator(_richardson(_propagator(H, hbar), q, t, n))


def pdx_assemble(H, P, t: float, n_zeno: int, n_quad: int,
                 hbar: float = 1.0, ur: str = "zeno") -> PdxTerms:
    """Assemble boundary, crossing, and restricted terms of the propagator split.

    The crossing convolution ∫₀ᵗ ds U(t-s) Ṗ U_r(s) uses composite Simpson on
    the n_quad uniformly spaced nodes s_j = t·j/N, N = n_quad - 1 (n_quad
    odd).  With ur="zeno", U_r reads one slice lattice of width δ = t/n_zeno:
    node j takes m_j = ⌊n_zeno·j/N⌋ whole slices (integer arithmetic) and,
    when the remainder r_j is non-zero, one partial slice of width
    t·r_j/(n_zeno·N) applied last,

        U_r(s_j) = Q U(t·r_j/(n_zeno·N)) Q·S^{m_j},   S = U(δ) Q,

    so the restricted term U_r(t) = Q·S^{n_zeno} is the n_zeno-slice
    `zeno_product`.  Q·S^{m_j} is carried from node to node by one of the two
    block powers S^{⌊n_zeno/N⌋} and S^{⌊n_zeno/N⌋+1}.  With ur="limit" the
    same loop carries the generator block Q exp(-i QHQ t/(Nħ)) Q, one per
    node.  The sum runs in H's eigenbasis (H = V diag(λ) V†) by Horner,
    Y_j = e^{-iλt/(Nħ)} ⊙ Y_{j-1} + w_j·V†Ṗ·U_r(s_j), and crossing = V·Y_N:
    one eigendecomposition of H and about two d×d products per node.
    """
    if n_quad < 3 or n_quad % 2 == 0:
        raise ValueError(f"n_quad must be odd and >= 3, got {n_quad}")
    if n_zeno < 1:
        raise ValueError(f"n_zeno must be >= 1, got {n_zeno}")
    _check_time(t, nonnegative=True)
    if ur not in ("zeno", "limit"):
        raise ValueError(f"unknown ur mode {ur!r}")
    h = _hermitian(H)
    p = _check_projector(P)
    q = np.eye(p.shape[0]) - p
    evals, vecs = np.linalg.eigh(h)
    u_of = _eigen_propagator(evals, vecs, hbar)
    n_int = n_quad - 1

    if ur == "limit":
        n_slices, blocks = n_int, (_restricted_generator(h, q, hbar)(t / n_int),)
    else:
        n_slices = n_zeno
        step = u_of(t / n_zeno) @ q
        low = q @ np.linalg.matrix_power(step, n_zeno // n_int)
        blocks = (low, low @ step)
    per_node = n_slices // n_int

    vecs_h = vecs.conj().T
    lead = vecs_h @ pdot(h, p, hbar).mat         # V†Ṗ
    lead_q = lead @ q @ vecs                     # V†ṖQV, for partial slices
    decay = np.exp(-1j * evals * (t / n_int / hbar))[:, None]
    weights = simpson_weights(n_quad, t / n_int)

    carry = q.astype(complex)                    # Q·S^{m_j}
    acc = weights[0] * (lead @ carry)
    m_prev = 0
    for j in range(1, n_quad):
        m_j, rem = divmod(n_slices * j, n_int)
        carry = carry @ blocks[m_j - m_prev - per_node]
        m_prev = m_j
        if rem:
            part = np.exp(-1j * evals * (t * rem / (n_slices * n_int) / hbar))
            term = (lead_q * part) @ (vecs_h @ carry)
        else:
            term = lead @ carry
        acc = decay * acc + weights[j] * term

    return PdxTerms(boundary=Operator(u_of(t) @ p),
                    crossing=Operator(vecs @ acc),
                    restricted=Operator(carry), quad_points=n_quad)


def _check_density_matrix(rho) -> np.ndarray:
    r = _as_matrix(rho)
    if np.linalg.norm(r - r.conj().T, 2) > 1e-8:
        raise DomainError("rho is not hermitian")
    if abs(np.trace(r) - 1.0) > 1e-8:
        raise DomainError(f"rho has trace {np.trace(r):.6g}, expected 1")
    if np.linalg.eigvalsh(0.5 * (r + r.conj().T)).min() < -1e-10:
        raise DomainError("rho has a negative eigenvalue")
    return r


def decoherence_functional(H, Q, rho, t: float, n_zeno: int,
                           hbar: float = 1.0,
                           richardson: bool = False) -> DecoherenceMatrix:
    """d(i,j) = Tr(C_i ρ C_j†) for the pair "stayed in Q" vs "crossed".

    C₁ = U†(t) U_r(t) with U_r from the n_zeno-slice Zeno product; C₂ = 1 - C₁.
    The sum Σ_ij d(i,j) = Tr ρ = 1 holds structurally; vanishing Re d(1,2)
    is the consistency condition that lets the diagonal be read as
    probabilities.

    richardson=True replaces the plain product with the 1/n extrapolant
    2·Z(2n) - Z(n).  Raw products cannot push the slice error below the
    float drift n·ε, so the extrapolant is the route to limit-accurate
    entries at large n_zeno.
    """
    rho_m = _check_density_matrix(rho)
    schedule = ZenoSchedule(t, n_zeno)
    u_of = _propagator(H, hbar)
    q = _check_projector(Q, "Q")
    if richardson:
        u_r = _richardson(u_of, q, t, n_zeno)
    else:
        u_r = _zeno_power(u_of, q, schedule.dt, n_zeno)
    return DecoherenceMatrix.from_class_operator(u_of(t).conj().T @ u_r, rho_m)


@dataclass(frozen=True)
class NoGoReport:
    """Numerical record of the obstruction to [H, T] = iħ·1 in finite dimension."""

    dim: int
    hbar: float
    trials: int
    seed: int
    trace_target: complex                  # trace of iħ·1 = iħ·dim
    max_abs_trace_commutator: float        # sup over samples of |tr [H, T]|
    min_defect_spectral: float             # min ‖[H,T] - iħ1‖₂ over samples
    min_defect_frobenius: float
    spectral_floor: float                  # ħ  (|tr M|/dim lower bound)
    frobenius_floor: float                 # ħ·√dim


def conjugate_time_no_go(H, trials: int = 1000, rng_seed: int = 42,
                         hbar: float = 1.0) -> NoGoReport:
    """Sample hermitian T and document why no T can satisfy [H, T] = iħ·1.

    Every commutator is traceless while iħ·1 has trace iħ·dim, so the defect
    ‖[H,T] - iħ·1‖ is bounded below by ħ (spectral norm) and ħ√dim (Frobenius)
    no matter how T is chosen.  The report carries the observed minima.
    """
    h = _hermitian(H)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    dim = h.shape[0]
    rng = np.random.default_rng(rng_seed)
    target = 1j * hbar * np.eye(dim)
    max_trace = 0.0
    min_spec = np.inf
    min_frob = np.inf
    for _ in range(trials):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        t_op = 0.5 * (a + a.conj().T)
        comm = h @ t_op - t_op @ h
        max_trace = max(max_trace, abs(np.trace(comm)))
        defect = comm - target
        min_spec = min(min_spec, np.linalg.norm(defect, 2))
        min_frob = min(min_frob, np.linalg.norm(defect, "fro"))
    return NoGoReport(
        dim=dim, hbar=hbar, trials=trials, seed=rng_seed,
        trace_target=complex(1j * hbar * dim),
        max_abs_trace_commutator=float(max_trace),
        min_defect_spectral=float(min_spec),
        min_defect_frobenius=float(min_frob),
        spectral_floor=float(hbar),
        frobenius_floor=float(hbar * np.sqrt(dim)),
    )


@dataclass(frozen=True)
class TwoStateSystem:
    """H = ħω σ₁ on the basis (up, down); down is the monitored subspace.

    Closed forms below are trigonometric identities, independent of the
    numeric evolution/quadrature routes, and serve as oracles for them:

        U(t) = [[cos ωt, -i sin ωt], [-i sin ωt, cos ωt]]
        U_r(t) -> Q,   crossing -> [[0, -i sin ωt], [0, cos ωt - 1]]
    """

    omega: float
    hbar: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.omega):
            raise ValueError(f"omega must be finite, got {self.omega}")

    def hamiltonian(self) -> Operator:
        return Operator(self.hbar * self.omega *
                        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))

    def projector_up(self) -> Operator:
        return Operator(np.diag([1.0, 0.0]).astype(complex))

    def projector_down(self) -> Operator:
        return Operator(np.diag([0.0, 1.0]).astype(complex))

    def unitary(self, t: float) -> Operator:
        th = self.omega * t
        c, s = np.cos(th), np.sin(th)
        return Operator(np.array([[c, -1j * s], [-1j * s, c]]))

    def pdot_closed(self) -> Operator:
        return Operator(self.omega * np.array([[0.0, -1j], [1j, 0.0]]))

    def crossing_closed(self, t: float) -> Operator:
        th = self.omega * t
        return Operator(np.array([[0.0, -1j * np.sin(th)],
                                  [0.0, np.cos(th) - 1.0]]))

    def boundary_closed(self, t: float) -> Operator:
        return self.unitary(t) @ self.projector_up()

    def zeno_survival(self, n: int, t: float) -> float:
        """Survival probability of down after n projective slices: cos²ⁿ(ωt/n)."""
        if n == 0:
            return 1.0
        return float(np.cos(self.omega * t / n) ** (2 * n))

    def decoherence_closed(self, t: float) -> tuple[float, float, complex]:
        """(d11, d22, d12) for initial down in the continuous-monitoring limit."""
        c = np.cos(self.omega * t)
        return 1.0, float(2.0 - 2.0 * c), complex(c - 1.0)
