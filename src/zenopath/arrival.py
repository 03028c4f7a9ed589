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
realises the parity map p → -p exactly.  Time windows for normalization
and moments are symmetric windows t_center + dt·k, |k| ≤ K, on one time
lattice, widened until the captured mass stops changing; each round
evaluates only the samples it adds.  An unconverged window raises
ConvergenceAdvisory rather than returning a silently truncated
distribution.

Arrival at a general point x_a enters through the translation phase
e^{ip·x_a/ħ} applied to ψ(p) before the x = 0 formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import DomainError

_NEG_TOL = 1e-12          # pointwise positivity slack for the density
_MASS_EXCESS = 1e-6       # allowed quadrature overshoot of the unit mass


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

    n must be even so no node lands on p = 0.
    """
    if not (math.isfinite(p_max) and p_max > 0):
        raise ValueError(f"p_max must be positive and finite, got {p_max}")
    if n < 8 or n % 2:
        raise ValueError(f"n must be even and >= 8, got {n}")
    dp = 2.0 * p_max / n
    return -p_max + (np.arange(n) + 0.5) * dp


@dataclass(frozen=True)
class MomentumState:
    """Normalized free-particle state sampled on a uniform momentum grid."""

    p: np.ndarray
    psi: np.ndarray
    mass: float = 1.0
    hbar: float = 1.0

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
        if self.mass <= 0 or self.hbar <= 0:
            raise ValueError("mass and hbar must be positive")
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

    def is_symmetric(self) -> bool:
        """Grid maps onto itself under p → -p (node order reversed)."""
        return bool(np.max(np.abs(self.p + self.p[::-1])) < 1e-9 * self.dp)

    def parity_flipped(self) -> "MomentumState":
        """The state ψ(-p); needs a symmetric grid."""
        if not self.is_symmetric():
            raise ValueError("parity flip needs a grid symmetric about p = 0")
        return MomentumState(self.p, self.psi[::-1].copy(),
                             mass=self.mass, hbar=self.hbar)

    def mean_momentum(self) -> float:
        return float(np.sum(self.p * np.abs(self.psi) ** 2) * self.dp)

    def mean_position(self) -> float:
        """⟨x⟩ = ⟨ψ| iħ∂ₚ |ψ⟩ by a centred difference on the grid."""
        dpsi = np.gradient(self.psi, self.dp)
        val = np.sum(np.conj(self.psi) * 1j * self.hbar * dpsi) * self.dp
        return float(val.real)


def gaussian_momentum_state(p: np.ndarray, p0: float, x0: float,
                            sigma_p: float, mass: float = 1.0,
                            hbar: float = 1.0) -> MomentumState:
    """ψ(p) ∝ exp(-(p-p₀)²/4σ_p² - ipx₀/ħ): width σ_p, launched from x₀."""
    for name, value in (("p0", p0), ("x0", x0)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not (math.isfinite(sigma_p) and sigma_p > 0):
        raise ValueError(f"sigma_p must be positive and finite, got {sigma_p}")
    psi = np.exp(-((p - p0) ** 2) / (4 * sigma_p ** 2) - 1j * p * x0 / hbar)
    dp = p[1] - p[0]
    psi = psi / math.sqrt(float(np.sum(np.abs(psi) ** 2)) * dp)
    return MomentumState(p, psi, mass=mass, hbar=hbar)


def superposition_state(p: np.ndarray, components, mass: float = 1.0,
                        hbar: float = 1.0) -> MomentumState:
    """Normalized Σ c·exp(-(p-p₀)²/4σ_p² - ipx₀/ħ) over (c, p₀, x₀, σ_p)."""
    psi = np.zeros(np.shape(p), dtype=complex)
    for c, p0, x0, sigma_p in components:
        if not (math.isfinite(sigma_p) and sigma_p > 0):
            raise ValueError(f"sigma_p must be positive and finite, got {sigma_p}")
        psi += c * np.exp(-((p - p0) ** 2) / (4 * sigma_p ** 2)
                          - 1j * p * x0 / hbar)
    dp = p[1] - p[0]
    nrm = math.sqrt(float(np.sum(np.abs(psi) ** 2)) * dp)
    if nrm < 1e-14:
        raise DomainError("superposition cancels to a (near) null state")
    return MomentumState(p, psi / nrm, mass=mass, hbar=hbar)


@dataclass(frozen=True)
class ArrivalDistribution:
    """Arrival density on a uniform time window, split by momentum sign."""

    t: np.ndarray
    density: np.ndarray
    right_part: np.ndarray
    left_part: np.ndarray
    dp: float
    p_max: float
    x_arrival: float = 0.0
    smear_tau: float = 0.0

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

    def peak_time(self) -> float:
        return float(self.t[int(np.argmax(self.density))])


def _phase_apply(state: MomentumState, weights: np.ndarray, t0: float,
                 dt: float, k0: int, n: int) -> np.ndarray:
    """Rows k = k0 .. k0+n-1 of Σ_p W(p)e^{-iE(p)t_k}, t_k = t0 + dt·k,
    E = p²/2mħ, for every weight column of W at once.

    The phase table of each block of B ≈ √n rows is the product of two
    exactly evaluated exponentials, e^{-iE·t_b} at the block's first row and
    e^{-iE·dt·s} for s < B.  That takes ~2√n exponentials per momentum node
    instead of n, and, unlike a running recurrence, accumulates no rounding
    from block to block.
    """
    e = state.p ** 2 / (2.0 * state.mass * state.hbar)
    b = max(1, math.ceil(math.sqrt(n)))
    step = np.exp(-1j * np.outer(dt * np.arange(b), e))
    out = np.empty((n, weights.shape[1]), dtype=complex)
    for i in range(0, n, b):
        base = np.exp(-1j * (t0 + dt * (k0 + i)) * e)
        out[i:i + b] = step[:n - i] @ (base[:, None] * weights)
    return out


def _time_grid(t: np.ndarray) -> tuple[float, float]:
    """(t₀, dt) of a time grid that passes the module's uniform-grid rule."""
    dt = _uniform_step(t, "time grid")
    return float(t[0]), dt


def _weights(state: MomentumState, x_arrival: float) -> np.ndarray:
    """Phase-sum weights as columns: the right and left Kijowski amplitudes,
    then ψ(x_a, t) and ∂ₓψ(x_a, t) for the flux."""
    p, dp, hbar = state.p, state.dp, state.hbar
    psi = state.psi * np.exp(1j * p * x_arrival / hbar)
    w = np.sqrt(np.abs(p) / (2 * np.pi * state.mass * hbar)) * dp
    scale = dp / math.sqrt(2 * np.pi * hbar)
    return np.stack([w * (p > 0) * psi, w * (p < 0) * psi, scale * psi,
                     scale * (1j * p / hbar) * psi], axis=1)


def _distribution(state: MomentumState, t: np.ndarray, amp: np.ndarray,
                  x_arrival: float) -> ArrivalDistribution:
    right, left = np.abs(amp.T) ** 2
    dp = state.dp
    return ArrivalDistribution(t=t, density=right + left, right_part=right,
                               left_part=left, dp=dp,
                               p_max=float(np.max(np.abs(state.p)) + 0.5 * dp),
                               x_arrival=x_arrival)


def _current(state: MomentumState, amp: np.ndarray) -> np.ndarray:
    val, der = amp.T
    return np.asarray((state.hbar / state.mass) * (np.conj(val) * der).imag)


def kijowski_density(state: MomentumState, t_grid,
                     x_arrival: float = 0.0) -> ArrivalDistribution:
    """Arrival density at x_arrival over the given uniform time window."""
    t = np.asarray(t_grid, dtype=float)
    t0, dt = _time_grid(t)
    amp = _phase_apply(state, _weights(state, x_arrival)[:, :2], t0, dt, 0,
                       t.size)
    return _distribution(state, t, amp, x_arrival)


def current_density_at_origin(state: MomentumState, t_grid,
                              x_arrival: float = 0.0) -> np.ndarray:
    """Flux J(x_a,t) = (ħ/m)·Im[ψ̄ ∂ₓψ]; real series, sign unconstrained."""
    t = np.asarray(t_grid, dtype=float)
    t0, dt = _time_grid(t)
    amp = _phase_apply(state, _weights(state, x_arrival)[:, 2:], t0, dt, 0,
                       t.size)
    return _current(state, amp)


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


def converged_density(state: MomentumState, t_center: float | None = None,
                      half_width: float = 5.0, dt: float = 0.02,
                      tol: float = 1e-4, growth: float = 1.6,
                      max_rounds: int = 12,
                      x_arrival: float = 0.0) -> ArrivalDistribution:
    """Widen the time window about t_center until the mass stops moving.

    The windows are nested on one lattice t_center + dt·k: round r keeps
    |k| ≤ K_r = round(w_r/dt), where the half width w_r = half_width·growth^r
    grows geometrically, and evaluates only the samples it adds at the two
    edges.  Convergence means the captured mass changes by less than tol
    between rounds.  With t_center omitted it is estimated from the
    classical flight time (x_a - ⟨x⟩)·m/⟨p⟩.
    """
    return _converged_window(state, t_center, half_width, dt, tol, growth,
                             max_rounds, x_arrival)[0]


def _converged_window(state: MomentumState, t_center: float | None = None,
                      half_width: float = 5.0, dt: float = 0.02,
                      tol: float = 1e-4, growth: float = 1.6,
                      max_rounds: int = 12, x_arrival: float = 0.0
                      ) -> tuple[ArrivalDistribution, np.ndarray]:
    """`converged_density` plus the flux on the same window, from the same
    phase sums: returns (distribution, current)."""
    for name, value in (("half_width", half_width), ("dt", dt)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if not growth >= 1:
        raise ValueError(f"growth must be >= 1, got {growth}")
    if not math.isfinite(x_arrival):
        raise ValueError(f"x_arrival must be finite, got {x_arrival}")
    if t_center is None:
        pbar = state.mean_momentum()
        if abs(pbar) < 1e-9:
            raise DomainError("cannot estimate an arrival window for a "
                              "zero-mean-momentum state; pass t_center")
        t_center = (x_arrival - state.mean_position()) * state.mass / pbar
    elif not math.isfinite(t_center):
        raise ValueError(f"t_center must be finite, got {t_center}")
    weights = _weights(state, x_arrival)
    k = 0
    amp = _phase_apply(state, weights, t_center, dt, 0, 1)
    w = half_width
    prev = None
    for _ in range(max_rounds):
        k_new = max(int(round(w / dt)), 1)
        grown = k_new - k
        amp = np.concatenate([
            _phase_apply(state, weights, t_center, dt, -k_new, grown), amp,
            _phase_apply(state, weights, t_center, dt, k + 1, grown)])
        k = k_new
        t = t_center + dt * np.arange(-k, k + 1)
        try:
            dist = _distribution(state, t, amp[:, :2], x_arrival)
        except CapturedMassExcess as exc:
            raise ConvergenceAdvisory(
                "window widening drove the captured mass past unity; the "
                "state carries weight near p = 0 whose slow arrival tail "
                "this momentum grid cannot resolve") from exc
        mass = dist.captured_mass()
        if prev is not None and abs(mass - prev) < tol:
            return dist, _current(state, amp[:, 2:])
        prev = mass
        w *= growth
    raise ConvergenceAdvisory(
        f"arrival window failed to converge after {max_rounds} widenings "
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
    right = np.convolve(dist.right_part, kernel, mode="same")
    left = np.convolve(dist.left_part, kernel, mode="same")
    return ArrivalDistribution(t=dist.t, density=right + left,
                               right_part=right, left_part=left,
                               dp=dist.dp, p_max=dist.p_max,
                               x_arrival=dist.x_arrival, smear_tau=tau)
