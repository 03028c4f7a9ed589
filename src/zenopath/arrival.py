"""Time-of-arrival statistics for a free particle on the line.

The arrival density at the origin combines the two momentum half-lines of
the state,

    Π(t) = |∫_{p>0} dp (p/2πmħ)^{1/2} e^{-ip²t/2mħ} ψ(p)|²
         + |∫_{p<0} dp (-p/2πmħ)^{1/2} e^{-ip²t/2mħ} ψ(p)|²,

a pointwise nonnegative, time-translation covariant probability density
over arrival times (Kijowski's distribution).  It is compared against the
quantum flux at the origin, J(0,t) = (ħ/m)·Im[ψ̄ ∂ₓψ](0,t), which tracks
the density for quasi-classical right-movers but is not itself a density:
two-component interference can drive J negative while Π stays ≥ 0.

Quadrature: midpoint sums on a uniform momentum grid whose nodes sit at
half-integer offsets, p_j = -P + (j+½)Δp.  The p = 0 point, where the
√|p| weight has a kink, is never sampled, and reversing the sample order
realises the parity map p → -p exactly: the grid is built as its positive
half and that half's mirror.  Since e^{-ip²t/2mħ} is even in p, every
phase sum runs over the distinct values of |p|, with the weights of p and
-p added first; on such a grid that halves the phases and the matrix
products.  `kijowski_density` and `current_density_at_origin` take a
given time grid.  `converged_window`, the one entry point for a window of
normalization and moments, returns its distribution and its flux from the
same phase sums.  Its windows are symmetric, t_center + dt·k, |k| ≤ K, on
one time lattice, widened by 1.6 per round until the captured mass
changes by less than 1e-4; each round evaluates only the samples it adds,
and every round of a window shares one table of step phases.  The samples
an edge adds come from one stacked product over all their blocks, chunked
under a fixed number of entries so memory stays bounded.  A window still
moving after 12 rounds raises ConvergenceAdvisory rather than returning a
silently truncated distribution.

Arrival at a general point x_a enters through the translation phase
e^{ip·x_a/ħ} applied to ψ(p) before the x = 0 formulas.

Natural units: m = ħ = 1 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import DomainError

_NEG_TOL = 1e-12          # pointwise positivity slack for the density
_MASS_EXCESS = 1e-6       # allowed quadrature overshoot of the unit mass
_GROWTH = 1.6             # factor by which each round widens the window
_MAX_ROUNDS = 12          # widening rounds before the advisory
_MASS_TOL = 1e-4          # captured-mass change between rounds that converges
_STACK_ENTRIES = 1 << 16  # complex entries of one stacked phase product


class ConvergenceAdvisory(RuntimeError):
    """A windowed quantity failed to converge within the allowed widening."""


class CapturedMassExcess(ValueError):
    """A density window captured more than unit probability (beyond the
    quadrature slack), the signature of an unresolved slow arrival tail."""


def _uniform_step(x: np.ndarray, what: str) -> float:
    """Mean step of a finite, ascending 1-d grid whose steps agree to 1e-9
    relative: the one uniform-grid rule of this module."""
    if x.ndim != 1 or x.size < 2:
        raise ValueError(f"{what} must be 1-d with at least 2 samples")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} must be finite")
    d = np.diff(x)
    if d[0] <= 0 or np.max(np.abs(d - d[0])) > 1e-9 * d[0]:
        raise ValueError(f"{what} must be uniform and ascending")
    return float(x[-1] - x[0]) / (x.size - 1)


def momentum_grid(p_max: float, n: int) -> np.ndarray:
    """Offset symmetric grid p_j = -p_max + (j+½)Δp, Δp = 2p_max/n.

    n must be even so no node lands on p = 0.  The positive half is built
    and mirrored, so p_j = -p_{n-1-j} holds bitwise for every n.
    """
    if not (math.isfinite(p_max) and p_max > 0):
        raise ValueError(f"p_max must be positive and finite, got {p_max}")
    if n < 8 or n % 2:
        raise ValueError(f"n must be even and >= 8, got {n}")
    dp = 2.0 * p_max / n
    upper = -p_max + (np.arange(n // 2, n) + 0.5) * dp
    return np.concatenate([-upper[::-1], upper])


@dataclass(frozen=True)
class MomentumState:
    """Normalized free-particle state sampled on a uniform momentum grid."""

    p: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        psi = np.asarray(self.psi, dtype=complex)
        if p.ndim != 1 or p.size < 8:
            raise ValueError("momentum grid must be 1-d with at least 8 nodes")
        if psi.shape != p.shape:
            raise ValueError(f"psi shape {psi.shape} does not match grid {p.shape}")
        _uniform_step(p, "momentum grid")
        dp = p[1] - p[0]
        if np.min(np.abs(p)) < 1e-12 * dp:
            raise ValueError("momentum grid must not sample p = 0 "
                             "(use the half-offset nodes of momentum_grid)")
        if not (np.all(np.isfinite(psi.real)) and np.all(np.isfinite(psi.imag))):
            raise ValueError("state entries must be finite")
        nrm = np.sum(np.abs(psi) ** 2) * dp
        if abs(nrm - 1.0) > 1e-8:
            raise DomainError(f"state must be unit-normalized on its grid, "
                              f"got ∫|ψ|²dp = {nrm:.3e}")
        p.flags.writeable = False
        psi.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "psi", psi)

    @property
    def dp(self) -> float:
        return float(self.p[1] - self.p[0])

    def mean_momentum(self) -> float:
        return float(np.sum(self.p * np.abs(self.psi) ** 2) * self.dp)

    def mean_position(self) -> float:
        """⟨x⟩ = ⟨ψ| iħ∂ₚ |ψ⟩ by a centred difference on the grid."""
        dpsi = np.gradient(self.psi, self.dp)
        val = np.sum(np.conj(self.psi) * 1j * dpsi) * self.dp
        return float(val.real)


def gaussian_momentum_state(p: np.ndarray, p0: float, x0: float,
                            sigma_p: float) -> MomentumState:
    """ψ(p) ∝ exp(-(p-p₀)²/4σ_p² - ipx₀/ħ): width σ_p, launched from x₀."""
    for name, value in (("p0", p0), ("x0", x0)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not (math.isfinite(sigma_p) and sigma_p > 0):
        raise ValueError(f"sigma_p must be positive and finite, got {sigma_p}")
    psi = np.exp(-((p - p0) ** 2) / (4 * sigma_p ** 2) - 1j * p * x0)
    dp = p[1] - p[0]
    psi = psi / math.sqrt(float(np.sum(np.abs(psi) ** 2)) * dp)
    return MomentumState(p, psi)


@dataclass(frozen=True)
class ArrivalDistribution:
    """Arrival density on a uniform time window, split by momentum sign."""

    t: np.ndarray
    density: np.ndarray
    right_part: np.ndarray
    left_part: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        den = np.asarray(self.density, dtype=float)
        rp = np.asarray(self.right_part, dtype=float)
        lp = np.asarray(self.left_part, dtype=float)
        _uniform_step(t, "time grid")
        if not (den.shape == rp.shape == lp.shape == t.shape):
            raise ValueError("component shapes must match the time grid")
        if np.min(den) < -_NEG_TOL:
            raise ValueError(f"density must be nonnegative, min {np.min(den):.3e}")
        gap = np.max(np.abs(den - (rp + lp)))
        if gap > 1e-10 * max(float(np.max(den)), 1e-300):
            raise ValueError("density must equal right_part + left_part")
        mass = float(np.trapezoid(den, t))
        if mass > 1.0 + _MASS_EXCESS:
            raise CapturedMassExcess(f"captured mass {mass:.8f} exceeds unity")
        for a in (t, den, rp, lp):
            a.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "density", den)
        object.__setattr__(self, "right_part", rp)
        object.__setattr__(self, "left_part", lp)

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    def captured_mass(self) -> float:
        return float(np.trapezoid(self.density, self.t))


def _unit_phase(phase: np.ndarray) -> np.ndarray:
    """e^{iφ} of a real phase array, as cos φ + i·sin φ."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


@dataclass(frozen=True)
class _PhaseTable:
    """The weight columns summed onto the distinct |p|, their energies, and
    the step phases e^{-iE·dt·s}, s < B, of one time lattice."""

    energy: np.ndarray
    weights: np.ndarray
    dt: float
    step: np.ndarray


def _phase_table(state: MomentumState, weights: np.ndarray, dt: float,
                 b: int) -> _PhaseTable:
    """Fold W onto the distinct values of |p|, which e^{-ip²t/2mħ} cannot
    tell apart, and tabulate B = b step phases over them.  The fold keys on
    exact equality, so a grid without mirror pairs folds nothing."""
    mod_p, pair = np.unique(np.abs(state.p), return_inverse=True)
    folded = np.zeros((mod_p.size, weights.shape[1]), dtype=complex)
    np.add.at(folded, pair, weights)
    e = mod_p ** 2 / 2.0
    return _PhaseTable(e, folded, dt,
                       _unit_phase(np.outer(-dt * np.arange(b), e)))


def _phase_rows(table: _PhaseTable, t0: float, k0: int, n: int) -> np.ndarray:
    """Rows k = k0 .. k0+n-1 of Σ W(p)e^{-iE(p)t_k}, t_k = t0 + dt·k, on a
    table's lattice: blocks of B rows, each the table's step phases times
    the exact base phase e^{-iE·t_b} at the block's first row.

    All blocks of a call are evaluated together: their base phases as one
    (blocks × |p|) table and their full blocks as one stacked product
    step @ (base ⊗ W); a last partial block of r < B rows takes the first r
    step phases only.  The stack holds one block or at most _STACK_ENTRIES
    complex entries (blocks × |p| × columns), whichever is more; longer
    calls run in chunks of blocks under that cap, so memory stays bounded
    on any window."""
    b, m = table.step.shape
    cols = table.weights.shape[1]
    full, rest = divmod(n, b)
    starts = t0 + table.dt * (k0 + np.arange(0, n, b))
    out = np.empty((n, cols), dtype=complex)
    blocks = out[:full * b].reshape(full, b, cols)
    chunk = max(1, _STACK_ENTRIES // (m * cols))
    for i in range(0, starts.size, chunk):
        base = _unit_phase(np.outer(-starts[i:i + chunk], table.energy))
        base = base[:, :, None] * table.weights
        np.matmul(table.step, base[:full - i], out=blocks[i:i + chunk])
    if rest:
        out[full * b:] = table.step[:rest] @ base[-1]
    return out


def _phase_apply(state: MomentumState, weights: np.ndarray, t0: float,
                 dt: float, k0: int, n: int) -> np.ndarray:
    """Rows k = k0 .. k0+n-1 of Σ_p W(p)e^{-iE(p)t_k}, t_k = t0 + dt·k,
    E = p²/2mħ, for every weight column of W at once.

    The sums run over the distinct values of |p|: E is even in p, so the
    weights of p and -p are added first, which halves the phases and the
    matrix product on a grid from `momentum_grid`.  The phase table of each
    block of B ≈ √n rows is the product of two exactly evaluated phases,
    e^{-iE·t_b} at the block's first row and e^{-iE·dt·s} for s < B.  That
    takes ~2√n phases per distinct |p| instead of n, and, unlike a running
    recurrence, accumulates no rounding from block to block.
    """
    b = max(1, math.ceil(math.sqrt(n)))
    return _phase_rows(_phase_table(state, weights, dt, b), t0, k0, n)


def _time_grid(t: np.ndarray) -> tuple[float, float]:
    """(t₀, dt) of a time grid that passes the module's uniform-grid rule."""
    dt = _uniform_step(t, "time grid")
    return float(t[0]), dt


def _weights(state: MomentumState, x_arrival: float) -> np.ndarray:
    """Phase-sum weights as columns: the right and left Kijowski amplitudes,
    then ψ(x_a, t) and ∂ₓψ(x_a, t) for the flux."""
    p, dp = state.p, state.dp
    psi = state.psi * np.exp(1j * p * x_arrival)
    w = np.sqrt(np.abs(p) / (2 * np.pi)) * dp
    scale = dp / math.sqrt(2 * np.pi)
    return np.stack([w * (p > 0) * psi, w * (p < 0) * psi, scale * psi,
                     scale * (1j * p) * psi], axis=1)


def _distribution(t: np.ndarray, amp: np.ndarray) -> ArrivalDistribution:
    right, left = np.abs(amp.T) ** 2
    return ArrivalDistribution(t=t, density=right + left, right_part=right,
                               left_part=left)


def _current(amp: np.ndarray) -> np.ndarray:
    val, der = amp.T
    return (np.conj(val) * der).imag


def kijowski_density(state: MomentumState, t_grid,
                     x_arrival: float = 0.0) -> ArrivalDistribution:
    """Arrival density at x_arrival over the given uniform time window."""
    t = np.asarray(t_grid, dtype=float)
    t0, dt = _time_grid(t)
    amp = _phase_apply(state, _weights(state, x_arrival)[:, :2], t0, dt, 0,
                       t.size)
    return _distribution(t, amp)


def current_density_at_origin(state: MomentumState, t_grid,
                              x_arrival: float = 0.0) -> np.ndarray:
    """Flux J(x_a,t) = (ħ/m)·Im[ψ̄ ∂ₓψ]; real series, sign unconstrained."""
    t = np.asarray(t_grid, dtype=float)
    t0, dt = _time_grid(t)
    amp = _phase_apply(state, _weights(state, x_arrival)[:, 2:], t0, dt, 0,
                       t.size)
    return _current(amp)


def arrival_moments(dist: ArrivalDistribution, order: int) -> float:
    """Windowed mean (order 1) or variance (order 2) of the arrival time.

    The window must already capture ≥ 0.99 of the unit mass; otherwise the
    moment would silently describe a truncated distribution.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    mass = dist.captured_mass()
    if mass < 0.99:
        raise DomainError(f"window captures only {mass:.4f} of the arrival "
                          "mass; widen the time window before taking moments")
    mean = float(np.trapezoid(dist.t * dist.density, dist.t)) / mass
    if order == 1:
        return mean
    var = float(np.trapezoid((dist.t - mean) ** 2 * dist.density, dist.t))
    return var / mass


def converged_window(state: MomentumState, t_center: float | None = None,
                     half_width: float = 5.0, dt: float = 0.02,
                     x_arrival: float = 0.0
                     ) -> tuple[ArrivalDistribution, np.ndarray]:
    """Widen the time window about t_center until the mass stops moving;
    returns (distribution, current), the flux on the same window from the
    same phase sums.

    The windows are nested on one lattice t_center + dt·k: round r keeps
    |k| ≤ K_r = round(w_r/dt), where the half width w_r = half_width·1.6^r
    grows geometrically, and evaluates only the samples it adds at the two
    edges.  Convergence means the captured mass changes by less than 1e-4
    between rounds; after 12 rounds without it, ConvergenceAdvisory.  With
    t_center omitted it is estimated from the classical flight time
    (x_a - ⟨x⟩)·m/⟨p⟩.
    """
    for name, value in (("half_width", half_width), ("dt", dt)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if not math.isfinite(x_arrival):
        raise ValueError(f"x_arrival must be finite, got {x_arrival}")
    # every round's lattice half width K_r, before any sample is evaluated
    w, ks = half_width, []
    for _ in range(_MAX_ROUNDS):
        if not math.isfinite(w / dt):
            raise ValueError("the widest window half_width*"
                             f"{_GROWTH}^{_MAX_ROUNDS - 1}/dt must be "
                             f"positive and finite, got {w / dt}")
        ks.append(max(int(round(w / dt)), 1))
        w *= _GROWTH
    if t_center is None:
        pbar = state.mean_momentum()
        if abs(pbar) < 1e-9:
            raise DomainError("cannot estimate an arrival window for a "
                              "zero-mean-momentum state; pass t_center")
        t_center = (x_arrival - state.mean_position()) / pbar
    elif not math.isfinite(t_center):
        raise ValueError(f"t_center must be finite, got {t_center}")
    # one step table for the window, B = ⌈√K⌉ of the first round
    table = _phase_table(state, _weights(state, x_arrival), dt,
                         math.ceil(math.sqrt(ks[0])))
    k, amp, prev = 0, None, None
    for k_new in ks:
        # each round's lattice must pass the uniform-grid rule before any
        # of its phase sums
        t = t_center + dt * np.arange(-k_new, k_new + 1)
        try:
            _uniform_step(t, "time grid")
        except ValueError:
            raise ValueError(f"the window t_center ± dt·{k_new} "
                             f"(t_center = {t_center:g}, dt = {dt:g}) is not "
                             "a uniform time grid in floating point") from None
        if amp is None:
            amp = _phase_rows(table, t_center, 0, 1)
        grown = k_new - k
        amp = np.concatenate([_phase_rows(table, t_center, -k_new, grown),
                              amp, _phase_rows(table, t_center, k + 1, grown)])
        k = k_new
        try:
            dist = _distribution(t, amp[:, :2])
        except CapturedMassExcess as exc:
            raise ConvergenceAdvisory(
                "window widening drove the captured mass past unity; the "
                "state carries weight near p = 0 whose slow arrival tail "
                "this momentum grid cannot resolve") from exc
        mass = dist.captured_mass()
        if prev is not None and abs(mass - prev) < _MASS_TOL:
            return dist, _current(amp[:, 2:])
        prev = mass
    raise ConvergenceAdvisory(
        f"arrival window failed to converge after {_MAX_ROUNDS} widenings "
        f"(last captured mass {prev:.6f})")


def flux_l1_distance(dist: ArrivalDistribution,
                     current: np.ndarray) -> float:
    """∫|Π - J| dt over the distribution's window."""
    j = np.asarray(current, dtype=float)
    if j.shape != dist.t.shape:
        raise ValueError("current series must match the distribution window")
    return float(np.trapezoid(np.abs(dist.density - j), dist.t))


def smeared_density(dist: ArrivalDistribution, tau: float) -> ArrivalDistribution:
    """Gaussian-smeared variant: each component convolved with width tau.

    Models finite detector resolution; mass is conserved up to edge
    truncation of the window, positivity and the component split survive
    the convolution exactly.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be positive and finite, got {tau}")
    dt = dist.dt
    half = max(int(math.ceil(6 * tau / dt)), 1)
    u = dt * np.arange(-half, half + 1)
    kernel = np.exp(-u ** 2 / (2 * tau ** 2))
    kernel /= kernel.sum()
    # the centred window of the full convolution: mode="same" would return
    # the kernel's length whenever the kernel is longer than the window
    n = dist.t.size
    right = np.convolve(dist.right_part, kernel)[half:half + n]
    left = np.convolve(dist.left_part, kernel)[half:half + n]
    return ArrivalDistribution(t=dist.t, density=right + left,
                               right_part=right, left_part=left)
