"""Two-way space-time histories for a free particle: "stays on one side of
x = 0 for all of [0, t]" versus "crosses at least once".

The staying class operator is realised through the direct sum of the two
half-line restricted propagators,

    C₁ψ = U†(t) [ U_r^β(t)(θψ) ⊕ U_r^{β,L}(t)((1-θ)ψ) ],    C₂ = 1 - C₁,

with the left half-line carrying the mirrored wall condition (parameter -β
in the global x derivative; the reflecting wall mirrors to itself).  Because
each U_r is unitary on its half-line, d(1,1) = 1 identically and every
departure from consistency is carried by the interference entry

    Re d(1,2) = Re⟨ψ|C₁ψ⟩ - 1,

so the sum rule d(1,1) + d(2,2) + 2 Re d(1,2) = 1 holds exactly.

Antisymmetric states at the hard wall (β = 0), and symmetric states at the
reflecting wall, evolve identically under the full line and under the direct
sum, so their crossing amplitude vanishes to grid precision and the pair of
histories is consistent.  Generic states interfere and the assignment fails.

Node convention: x = 0 sits on a grid node owned by the right half; the left
restriction is the strict complement, and the left evolution reads its
boundary value at x = 0 from the (continuous) state rather than
extrapolating.

Both half lines evolve through `halfline.half_spectrum`, the one image
transform every half-line evolution reads: the parity walls extend the
state itself, every other wall the intertwined state g = D_h ψ.  Every
free phase e^{-ik²t/2} is `halfline.free_phase`.  A sweep over durations
(`history_sweep`) transforms ψ and the two half lines once; each row then
reads the phase at t, which evolves ψ and the half lines to t.  The
verdict is read in the evolved frame (U(t) is unitary on the grid, so
d(i,j) = ⟨U C_jψ|U C_iψ⟩), and at the parity walls the left half line
follows from the right one by the reflection x -> -x.  The sweep is the
one way to a verdict, for one duration or many.

States are position samples (`halfline.WaveFunction`) on a grid symmetric
about x = 0.  The numerical choices are fixed module constants: the
reflection-safe horizon keeps a margin of 2 from the grid edges and reads
support and bandwidth at the 1e-6 mass quantile, and `robin_state_builder`
mixes two fixed Gaussians.

Natural units: m = ħ = 1 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .halfline import (
    HalfLineSystem,
    SpatialGrid,
    WaveFunction,
    free_phase,
    half_spectrum,
    production_route,
)
from .qcore import DecoherenceMatrix, _check_time, _check_tol

_HORIZON_MARGIN = 2.0     # distance kept from the grid edges by the horizon
_HORIZON_TAIL = 1e-6      # mass quantile at which support and bandwidth are read
# robin_state_builder's two Gaussians, (centre, momentum, width) each
_ROBIN_FIRST = (4.0, -1.0, 1.2)
_ROBIN_SECOND = (7.0, 0.6, 1.6)


@dataclass(frozen=True)
class ConsistencyVerdict:
    """Probability assignment for the pair plus its interference diagnostics.

    consistent is DecoherenceMatrix.is_consistent(tol); the imaginary part
    is reported but not gated (the failure signal for a probability sum
    rule is the real part).
    """

    p_same: float
    p_cross: float
    re_d12: float
    im_d12: float
    consistent: bool

    @classmethod
    def from_matrix(cls, dm: DecoherenceMatrix, tol: float) -> "ConsistencyVerdict":
        return cls(p_same=dm.d11, p_cross=dm.d22,
                   re_d12=dm.d12.real, im_d12=dm.d12.imag,
                   consistent=dm.is_consistent(tol))


def mirror_beta(beta: float | str) -> float | str:
    """Wall parameter of the left half-line in its outward coordinate."""
    if isinstance(beta, str):
        return beta
    return -beta if beta != 0.0 else 0.0


def _split_context(psi: WaveFunction, beta):
    g = psi.grid
    if not g.is_symmetric():
        raise ValueError("history amplitudes need a grid symmetric about x = 0")
    n = g.n // 2
    right = HalfLineSystem(L=g.x_max, n=n, beta=beta)
    left = HalfLineSystem(L=g.x_max, n=n, beta=mirror_beta(beta))
    return g, right, left


def _half_spectra(psi: WaveFunction, right: HalfLineSystem,
                  left: HalfLineSystem) -> list:
    """The direct sum's inputs, transformed once: one `half_spectrum` per
    half line.  The left half is taken in its outward coordinate u = -x,
    with its boundary value read from the (continuous) state rather than
    extrapolated."""
    n = right.n
    s = psi.samples
    h_left = np.empty(n, dtype=complex)
    h_left[0] = s[n]
    h_left[1:] = s[1:n][::-1]
    return [half_spectrum(s[n:], right), half_spectrum(h_left, left)]


def _direct_sum(halves: list, evolved: WaveFunction, t: float) -> WaveFunction:
    """[U_r^β(t)(θψ)] ⊕ [U_r^{β,L}(t)((1-θ)ψ)] on the full grid, from
    `_half_spectra` and evolved = U(t)ψ.

    At the parity walls on ψ's own grid the two halves' image extensions
    sum to (1 ± P)ψ (P: node j ↔ 2n - j; + reflecting, - hard wall), and
    U(t) commutes with P since `free_phase` is mirrored exactly.  So with
    R the right half's extension evolved, the sum is R on x ≥ 0 and
    (1 ± P)U(t)ψ - R on x < 0: one transform for both halves.  Otherwise
    (finite β, a grid symmetric only to rounding) each half is read at t.

    The x = -L node has no mirror partner inside the half grid and is set to
    zero (at the reflecting wall (1 + P)ψ counts ψ(-L) twice where the half
    lines drop it); states in the supported regime carry no weight there.
    """
    right, left = halves
    n = right.sys.n
    out = np.zeros(2 * n, dtype=complex)
    if (production_route(right.sys) == "images"
            and right.sys.full_grid() == evolved.grid):
        ext = np.fft.ifft(right.spec * free_phase(evolved.grid, t))
        u = evolved.samples
        mirrored = u[:n:-1] if right.sys.is_neumann else -u[:n:-1]
        out[n:] = ext[n:]
        out[1:n] = u[1:n] + mirrored - ext[1:n]
    else:
        out[n:] = right.at(t)
        out[1:n] = left.at(t)[1:][::-1]
    return WaveFunction(evolved.grid, out)


def _grid_warning(psi: WaveFunction) -> bool:
    """A cut too coarse for the state: the moduli at the two nodes adjacent
    to x = 0 differ by more than 20%."""
    n = psi.grid.n // 2
    lo, hi = abs(psi.samples[n - 1]), abs(psi.samples[n + 1])
    ref = max(lo, hi)
    return bool(ref > 1e-12 and abs(hi - lo) > 0.2 * ref)


def _class_matrix(stay: WaveFunction, cross: WaveFunction) -> DecoherenceMatrix:
    """d(i,j) = ⟨C_jψ|C_iψ⟩ in the order (stay, cross), read in the evolved
    frame: U(t) is unitary on the grid, so d(i,j) = ⟨U C_jψ|U C_iψ⟩, with
    stay = U C₁ψ the direct sum and cross = U C₂ψ = U(t)ψ minus it."""
    d12 = cross.inner(stay)              # ⟨C₂ψ|C₁ψ⟩
    return DecoherenceMatrix(np.array([[stay.inner(stay), d12],
                                       [np.conj(d12), cross.inner(cross)]]))


def reflection_safe_horizon(psi: WaveFunction) -> float:
    """Largest t before the state's fast tail can reach the outer grid edges.

    Support and bandwidth are read off at the 1e-6 mass quantile, the
    bandwidth from |FFT ψ|² in ascending wavenumber on p_j = k_min + Δk·j;
    the horizon is (edge distance - 2) / v_max.  Past it, wrap-around
    contaminates full-line evolution and verdicts stop being meaningful.
    """
    g = psi.grid
    w = np.abs(psi.samples) ** 2
    cum = np.cumsum(w) / np.sum(w)
    x_lo = g.x[int(np.searchsorted(cum, _HORIZON_TAIL))]
    x_hi = g.x[min(int(np.searchsorted(cum, 1.0 - _HORIZON_TAIL)), g.n - 1)]
    k = np.fft.fftshift(g.k)
    p = k[0] + (k[1] - k[0]) * np.arange(g.n)
    pw = np.abs(np.fft.fftshift(np.fft.fft(psi.samples))) ** 2
    pcum = np.cumsum(pw) / np.sum(pw)
    p_lo = p[int(np.searchsorted(pcum, _HORIZON_TAIL))]
    p_hi = p[min(int(np.searchsorted(pcum, 1.0 - _HORIZON_TAIL)), g.n - 1)]
    v_max = max(abs(p_lo), abs(p_hi))
    room = min(g.x_max - x_hi, x_lo - g.x_min) - _HORIZON_MARGIN
    if room <= 0:
        return 0.0
    if v_max < 1e-12:
        return math.inf
    return room / v_max


@dataclass(frozen=True)
class BetaScanRow:
    """One (β, t) cell, as `history_sweep` evaluates it for the wall-condition
    scan and the `histories` command.

    r_plus/r_minus: |ψ_t(0) - βψ_t'(0±)| for the fully evolved state (the
    persistence residual of the wall condition; |ψ'| alone for the reflecting
    wall).  directsum_distance: sup-norm gap between full-line evolution and
    the decoupled half-line evolution.  flux0: probability flux through x=0.
    rejected: builder output violated the condition at t=0 beyond 1e-6.
    """

    beta: float | str
    t: float
    verdict: ConsistencyVerdict | None
    r_plus: float
    r_minus: float
    flux0: float
    directsum_distance: float
    grid_warning: bool
    rejected: bool


def boundary_condition_residuals(psi: WaveFunction, beta) -> tuple[float, float]:
    """|ψ(0) - βψ'(0±)| by one-sided stencils on each side of the cut
    (|ψ'(0±)| alone for the reflecting wall); the persistence diagnostic
    reported by the scan and the command line surface."""
    n = psi.grid.n // 2
    dx = psi.grid.dx
    s = psi.samples
    d_plus = (-3 * s[n] + 4 * s[n + 1] - s[n + 2]) / (2 * dx)
    d_minus = (3 * s[n] - 4 * s[n - 1] + s[n - 2]) / (2 * dx)
    if isinstance(beta, str):
        return abs(d_plus), abs(d_minus)
    return abs(s[n] - beta * d_plus), abs(s[n] - beta * d_minus)


def _spectral_gate_residual(psi: WaveFunction, beta) -> float:
    """|ψ(0) - βψ'(0)| with the spectral derivative; exact for the smooth
    band-limited states a builder should produce, so the rejection gate is
    not polluted by stencil truncation error."""
    n = psi.grid.n // 2
    dpsi = np.fft.ifft(1j * psi.grid.k * np.fft.fft(psi.samples))[n]
    if isinstance(beta, str):
        return abs(dpsi)
    return abs(psi.samples[n] - beta * dpsi)


def _flux_through_zero(psi: WaveFunction) -> float:
    n = psi.grid.n // 2
    s = psi.samples
    dpsi = (s[n + 1] - s[n - 1]) / (2 * psi.grid.dx)
    return float((np.conj(s[n]) * dpsi).imag)


def history_sweep(psi: WaveFunction, beta: float | str, t_list,
                  tol: float = 1e-3) -> list[BetaScanRow]:
    """The (β, t) rows of one state, in t_list order; each verdict uses the
    grid-honest relative tolerance tol (default 1e-3).

    tol and every t (finite, >= 0) are checked before any work, and β by
    `HalfLineSystem` (a string β must be NEUMANN).  ψ and its two half
    lines (one `half_spectrum` each) are transformed once per sweep, and
    the grid warning, which reads ψ alone, is taken once.  Each row reads one
    `free_phase` e^{-ik²t/2} of ψ's grid, which the half lines share when
    their grid is exactly ψ's (a grid symmetric only to rounding builds its
    own).  It evolves ψ to U(t)ψ (wall residuals, flux through x = 0) and
    the half lines to the direct sum S (`_direct_sum`: two inverse FFTs per
    row with U(t)ψ at the parity walls, three at finite β); the verdict and
    the distance read S and U(t)ψ - S.
    """
    _check_tol(tol)
    times = [float(t) for t in t_list]
    for t in times:
        _check_time(t, nonnegative=True)
    g, right, left = _split_context(psi, beta)
    halves = _half_spectra(psi, right, left)
    spec = np.fft.fft(psi.samples)
    warning = _grid_warning(psi)
    rows = []
    for t in times:
        evolved = WaveFunction(g, np.fft.ifft(spec * free_phase(g, t)))
        stay = _direct_sum(halves, evolved, t)
        cross = WaveFunction(g, evolved.samples - stay.samples)
        rp, rm = boundary_condition_residuals(evolved, beta)
        rows.append(BetaScanRow(
            beta=beta, t=t,
            verdict=ConsistencyVerdict.from_matrix(_class_matrix(stay, cross),
                                                   tol),
            r_plus=rp, r_minus=rm,
            flux0=_flux_through_zero(evolved),
            directsum_distance=float(np.max(np.abs(cross.samples))),
            grid_warning=warning, rejected=False))
    return rows


def beta_condition_scan(builder: Callable[[float | str, SpatialGrid], WaveFunction],
                        beta_list, t_list, grid: SpatialGrid | None = None,
                        tol: float = 1e-3) -> list[BetaScanRow]:
    """Evaluate the wall-condition family across (β, t).

    builder(β, grid) must return a normalized full-line state satisfying
    ψ(0) = βψ'(0) at t = 0; violations beyond 1e-6 (checked with the
    spectral derivative, which is exact for smooth band-limited states)
    mark the row rejected.  Each accepted β is one `history_sweep` over
    t_list; output is sorted by (β, t) with the reflecting wall last.
    tol is checked before any state is built.
    """
    _check_tol(tol)
    if grid is None:
        grid = SpatialGrid(-40.0, 40.0, 4096)
    rows = []
    for beta in beta_list:
        psi0 = builder(beta, grid)
        r0p, r0m = boundary_condition_residuals(psi0, beta)
        if _spectral_gate_residual(psi0, beta) > 1e-6:
            rows += [BetaScanRow(beta=beta, t=float(t), verdict=None,
                                 r_plus=r0p, r_minus=r0m, flux0=math.nan,
                                 directsum_distance=math.nan,
                                 grid_warning=False, rejected=True)
                     for t in t_list]
            continue
        rows += history_sweep(psi0, beta, t_list, tol)

    def key(row: BetaScanRow):
        if isinstance(row.beta, str):
            return (1, 0.0, row.t)
        return (0, float(row.beta), row.t)

    return sorted(rows, key=key)


def robin_state_builder():
    """Family of smooth two-Gaussian states meeting the wall condition at t=0.

    For finite β the mixing coefficient solves (G₁+λG₂)(0) = β(G₁+λG₂)'(0)
    in closed form; the hard wall instead takes the antisymmetrized first
    Gaussian (a node at the origin that persists), the reflecting wall the
    symmetrized one (a flat point that persists).  Returns builder(β, grid).
    The second Gaussian never meets the condition on its own: with p₂ ≠ 0,
    |G₂(0) - βG₂'(0)| ≥ |G₂(0)|·|p₂|/|x₂/2σ₂² + ip₂| ≈ 3.4e-3 for every
    real β, so λ always exists.
    """
    x1, p1, s1 = _ROBIN_FIRST
    x2, p2, s2 = _ROBIN_SECOND

    def g_at_zero(x0, p0, sig):
        val = np.exp(-x0 ** 2 / (4 * sig ** 2) - 1j * p0 * x0)
        return val, val * (x0 / (2 * sig ** 2) + 1j * p0)

    def builder(beta, grid: SpatialGrid) -> WaveFunction:
        x = grid.x
        g1 = np.exp(-((x - x1) ** 2) / (4 * s1 ** 2) + 1j * p1 * (x - x1))
        if isinstance(beta, str):
            parity = 1.0
        elif beta == 0.0:
            parity = -1.0
        else:
            v1, d1 = g_at_zero(x1, p1, s1)
            v2, d2 = g_at_zero(x2, p2, s2)
            lam = -(v1 - beta * d1) / (v2 - beta * d2)
            g2 = np.exp(-((x - x2) ** 2) / (4 * s2 ** 2) + 1j * p2 * (x - x2))
            return WaveFunction(grid, g1 + lam * g2).normalized()
        idx = (-np.arange(grid.n)) % grid.n
        sym = g1 + parity * g1[idx]
        return WaveFunction(grid, sym).normalized()

    return builder
