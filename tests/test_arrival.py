"""Tests for the time-of-arrival module.

Oracles used here:
  * classical flight time t̄ = m|x₀ - x_a|/p₀ for quasi-classical packets
    (peak and mean location, arrival-point shift)
  * algebraic covariance: multiplying ψ(p) by e^{-ip²t₀/2mħ} evolves the
    state forward by t₀, so every arrival happens exactly t₀ earlier -- the
    quadrature sums shift rigidly, making the check machine-exact
  * parity: reversing the sample order on the offset grid is exactly
    ψ(p) → ψ(-p) and must swap the two momentum-sign components
  * variance addition under Gaussian smearing: var → var + τ²
  * stationary-phase scaling: arrival-time spread ∝ position spread for
    narrow momentum packets (log-log slope ≈ 1)
  * the phase kernel against a direct table e^{-iE·t} of exponentials, and
    the nested widening against fresh evaluations on its final window
"""

import math

import numpy as np
import pytest

from zenopath.arrival import (
    ArrivalDistribution,
    CapturedMassExcess,
    ConvergenceAdvisory,
    MomentumState,
    arrival_moments,
    converged_density,
    current_density_at_origin,
    flux_l1_distance,
    gaussian_momentum_state,
    kijowski_density,
    momentum_grid,
    smeared_density,
    superposition_state,
)
from zenopath import arrival
from zenopath.arrival import _converged_window, _phase_apply, _weights
from zenopath.qcore import DomainError

P_GRID = momentum_grid(8.0, 1024)


def arrival_packet():
    """The reference right-mover: launched from -10 with momentum 2."""
    return gaussian_momentum_state(P_GRID, p0=2.0, x0=-10.0, sigma_p=0.2)


class TestMomentumGrid:
    def test_offset_nodes_exclude_zero(self):
        p = momentum_grid(4.0, 64)
        assert p.shape == (64,)
        assert np.min(np.abs(p)) == pytest.approx(0.5 * (8.0 / 64))
        assert np.max(np.abs(p + p[::-1])) == 0.0

    def test_spacing(self):
        p = momentum_grid(5.0, 100)
        assert np.allclose(np.diff(p), 0.1)
        assert p[0] == pytest.approx(-5.0 + 0.05)

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="even"):
            momentum_grid(4.0, 65)
        with pytest.raises(ValueError, match="even"):
            momentum_grid(4.0, 6)
        with pytest.raises(ValueError, match="positive"):
            momentum_grid(-1.0, 64)


class TestMomentumState:
    def test_normalization_enforced(self):
        psi = np.ones(P_GRID.size, dtype=complex)
        with pytest.raises(DomainError, match="normalized"):
            MomentumState(P_GRID, psi)

    def test_zero_node_rejected(self):
        p = np.linspace(-4.0, 4.0, 65)
        psi = np.exp(-p ** 2)
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * (p[1] - p[0]))
        with pytest.raises(ValueError, match="p = 0"):
            MomentumState(p, psi)

    def test_nonuniform_grid_rejected(self):
        p = np.cumsum(np.linspace(0.1, 0.2, 64))
        with pytest.raises(ValueError, match="uniform"):
            MomentumState(p, np.ones(64, dtype=complex))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            MomentumState(P_GRID, np.ones(10, dtype=complex))

    def test_positive_constants_required(self):
        st = arrival_packet()
        with pytest.raises(ValueError, match="positive"):
            MomentumState(st.p, st.psi, mass=-1.0)

    def test_samples_are_frozen(self):
        st = arrival_packet()
        with pytest.raises(ValueError):
            st.psi[0] = 1.0

    def test_parity_flip_round_trip(self):
        st = arrival_packet()
        assert st.is_symmetric()
        back = st.parity_flipped().parity_flipped()
        assert np.array_equal(back.psi, st.psi)

    def test_parity_flip_needs_symmetric_grid(self):
        p = momentum_grid(4.0, 64) + 0.5
        psi = np.exp(-((p - 2.0) ** 2))
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * (p[1] - p[0]))
        st = MomentumState(p, psi)
        with pytest.raises(ValueError, match="symmetric"):
            st.parity_flipped()

    def test_expectation_values(self):
        st = arrival_packet()
        assert st.mean_momentum() == pytest.approx(2.0, abs=1e-9)
        assert st.mean_position() == pytest.approx(-10.0, abs=0.1)


class TestStateBuilders:
    def test_gaussian_is_grid_normalized(self):
        st = arrival_packet()
        assert np.sum(np.abs(st.psi) ** 2) * st.dp == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_peaks_at_p0(self):
        st = arrival_packet()
        assert st.p[int(np.argmax(np.abs(st.psi)))] == pytest.approx(2.0, abs=st.dp)

    def test_gaussian_width_validation(self):
        with pytest.raises(ValueError, match="sigma_p"):
            gaussian_momentum_state(P_GRID, 2.0, -10.0, sigma_p=0.0)

    def test_superposition_normalized(self):
        st = superposition_state(P_GRID, [(1.0, 1.0, -5.0, 0.2),
                                          (0.5j, 3.0, -15.0, 0.2)])
        assert np.sum(np.abs(st.psi) ** 2) * st.dp == pytest.approx(1.0, abs=1e-12)

    # NaN passes a sign check, so the width needs its own finiteness check
    @pytest.mark.parametrize("sigma_p", [0.0, -0.2, np.nan, np.inf])
    def test_superposition_width_validation(self, sigma_p):
        with pytest.raises(ValueError, match="sigma_p must be positive and finite"):
            superposition_state(P_GRID, [(1.0, 2.0, -10.0, sigma_p)])

    def test_superposition_cancellation_rejected(self):
        with pytest.raises(DomainError, match="null"):
            superposition_state(P_GRID, [(1.0, 2.0, -10.0, 0.2),
                                         (-1.0, 2.0, -10.0, 0.2)])


class TestArrivalDistributionType:
    def build(self, den, rp, lp, t=None):
        t = np.array([0.0, 1.0, 2.0]) if t is None else t
        return ArrivalDistribution(t=t, density=den, right_part=rp,
                                   left_part=lp, dp=0.1, p_max=4.0)

    def test_component_split_enforced(self):
        z = np.zeros(3)
        with pytest.raises(ValueError, match="right_part"):
            self.build(np.array([0.1, 0.2, 0.1]), z, z)

    def test_negative_density_rejected(self):
        bad = np.array([0.1, -1e-6, 0.1])
        with pytest.raises(ValueError, match="nonnegative"):
            self.build(bad, bad, np.zeros(3))

    def test_excess_mass_rejected(self):
        big = np.array([2.0, 2.0, 2.0])
        with pytest.raises(ValueError, match="exceeds unity"):
            self.build(big, big, np.zeros(3))

    def test_excess_mass_has_its_own_type(self):
        big = np.array([2.0, 2.0, 2.0])
        with pytest.raises(CapturedMassExcess, match="exceeds unity"):
            self.build(big, big, np.zeros(3))
        assert issubclass(CapturedMassExcess, ValueError)

    def test_nonuniform_time_rejected(self):
        d = np.array([0.1, 0.1, 0.1])
        with pytest.raises(ValueError, match="uniform"):
            self.build(d, d, np.zeros(3), t=np.array([0.0, 1.0, 3.0]))

    def test_metadata_and_helpers(self):
        d = np.array([0.0, 0.2, 0.0])
        dist = self.build(d, d, np.zeros(3))
        assert dist.dt == pytest.approx(1.0)
        assert dist.peak_time() == pytest.approx(1.0)
        assert dist.captured_mass() == pytest.approx(0.2)
        assert dist.smear_tau == 0.0


class TestKijowskiDensity:
    def test_pointwise_nonnegative(self):
        dist = kijowski_density(arrival_packet(), np.linspace(-5.0, 15.0, 401))
        assert np.min(dist.density) >= -1e-12
        assert np.max(np.abs(dist.density - dist.right_part - dist.left_part)) \
            <= 1e-15

    def test_peak_near_classical_arrival(self):
        dist = converged_density(arrival_packet())
        assert 4.5 <= dist.peak_time() <= 5.5

    def test_window_converged_normalization(self):
        assert converged_density(arrival_packet()).captured_mass() \
            == pytest.approx(1.0, abs=1e-3)

    def test_right_mover_has_zero_left_part(self):
        st = arrival_packet()
        psi = st.psi.copy()
        psi[st.p < 0] = 0.0
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * st.dp)
        dist = kijowski_density(MomentumState(st.p, psi),
                                np.linspace(0.0, 10.0, 201))
        assert np.max(np.abs(dist.left_part)) == 0.0
        assert np.max(dist.right_part) > 0.1

    def test_time_translation_covariance_is_exact(self):
        st = arrival_packet()
        t0 = 1.7
        evolved = MomentumState(st.p, st.psi * np.exp(
            -1j * st.p ** 2 * t0 / (2 * st.mass * st.hbar)))
        t = np.linspace(2.0, 9.0, 351)
        a = kijowski_density(evolved, t).density
        b = kijowski_density(st, t + t0).density
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_evolution_shifts_mean_arrival_earlier(self):
        st = arrival_packet()
        t0 = 1.7
        evolved = MomentumState(st.p, st.psi * np.exp(
            -1j * st.p ** 2 * t0 / (2 * st.mass * st.hbar)))
        gap = arrival_moments(converged_density(evolved), 1) \
            - arrival_moments(converged_density(st), 1)
        assert gap == pytest.approx(-t0, abs=1e-6)

    def test_parity_swaps_components(self):
        st = arrival_packet()
        t = np.linspace(2.0, 9.0, 181)
        a = kijowski_density(st, t)
        b = kijowski_density(st.parity_flipped(), t)
        assert np.max(np.abs(a.right_part - b.left_part)) <= 1e-12
        assert np.max(np.abs(a.left_part - b.right_part)) <= 1e-12

    def test_arrival_point_shifts_flight_time(self):
        dist = converged_density(arrival_packet(), x_arrival=2.0)
        assert arrival_moments(dist, 1) == pytest.approx(6.0, abs=0.2)
        assert dist.x_arrival == 2.0

    def test_degenerate_time_grids_rejected(self):
        st = arrival_packet()
        with pytest.raises(ValueError, match="at least 2"):
            kijowski_density(st, np.array([]))
        with pytest.raises(ValueError, match="at least 2"):
            kijowski_density(st, np.array([1.0]))


class TestCurrentDensity:
    def quasi_classical(self):
        return gaussian_momentum_state(momentum_grid(12.0, 1024),
                                       p0=5.0, x0=-10.0, sigma_p=0.25)

    def test_tracks_density_for_quasi_classical_packet(self):
        st = self.quasi_classical()
        dist = converged_density(st)
        j = current_density_at_origin(st, dist.t)
        assert flux_l1_distance(dist, j) <= 0.05
        assert np.min(j) >= -1e-3
        assert np.trapezoid(j, dist.t) == pytest.approx(1.0, abs=2e-3)

    def test_agreement_degrades_towards_the_quantum_regime(self):
        # recorded profile, bound asserted only in the quasi-classical cell
        l1 = {}
        for p0, sp, x0 in [(5.0, 0.25, -10.0), (2.0, 0.25, -10.0),
                           (1.2, 0.3, -8.0)]:
            st = gaussian_momentum_state(momentum_grid(10.0, 1024),
                                         p0=p0, x0=x0, sigma_p=sp)
            tbar = -x0 / p0
            t = np.linspace(max(-2.0, tbar - 10.0), tbar + 14.0, 1201)
            j = current_density_at_origin(st, t)
            l1[(p0, sp)] = flux_l1_distance(kijowski_density(st, t), j)
        assert l1[(5.0, 0.25)] <= 0.05
        assert all(v >= 0.0 for v in l1.values())

    def test_vanishes_far_from_the_arrival_window(self):
        j = current_density_at_origin(arrival_packet(),
                                      np.linspace(-60.0, -55.0, 11))
        assert np.max(np.abs(j)) <= 1e-6

    @pytest.mark.parametrize("t", [
        np.array([0.0, 1.0, 3.0]), np.array([0.0, np.nan, 2.0]),
        np.array([0.0, 1.0, np.inf]), np.array([2.0, 1.0, 0.0])])
    def test_bad_time_grid_rejected(self, t):
        with pytest.raises(ValueError, match="time grid must be"):
            current_density_at_origin(arrival_packet(), t)

    def test_interference_drives_flux_negative(self):
        # two right-moving components timed to overlap at the origin: the
        # flux undershoots zero while the arrival density stays nonnegative
        st = superposition_state(P_GRID, [
            (1.0, 1.0, -5.0, 0.18),
            (0.6 * np.exp(0.5j * np.pi), 3.0, -15.0, 0.18)])
        t = np.linspace(2.0, 8.0, 301)
        j = current_density_at_origin(st, t)
        dist = kijowski_density(st, t)
        assert np.min(j) < -0.02
        assert np.min(dist.density) >= -1e-12


class TestArrivalMoments:
    def test_mean_matches_classical_flight_time(self):
        mean = arrival_moments(converged_density(arrival_packet()), 1)
        assert mean == pytest.approx(5.0, abs=0.2)

    def test_variance_magnitude(self):
        var = arrival_moments(converged_density(arrival_packet()), 2)
        assert 1.2 ** 2 <= var <= 1.6 ** 2

    def test_order_validation(self):
        dist = converged_density(arrival_packet())
        for order in (0, 3, -1):
            with pytest.raises(ValueError, match="order"):
                arrival_moments(dist, order)

    def test_truncated_window_refused(self):
        dist = kijowski_density(arrival_packet(), np.linspace(4.0, 6.0, 101))
        with pytest.raises(DomainError, match="widen"):
            arrival_moments(dist, 1)

    def test_spread_scales_with_position_width(self):
        stds = []
        widths = (0.05, 0.1, 0.2)
        for sp in widths:
            st = gaussian_momentum_state(momentum_grid(6.0, 2048),
                                         p0=2.0, x0=-10.0, sigma_p=sp)
            dist = converged_density(st, dt=0.05)
            stds.append(math.sqrt(arrival_moments(dist, 2)))
        slope = (math.log(stds[0]) - math.log(stds[-1])) \
            / (math.log(widths[-1]) - math.log(widths[0]))
        assert slope == pytest.approx(1.0, abs=0.15)


class TestConvergedDensity:
    def test_auto_window_centers_on_flight_time(self):
        dist = converged_density(arrival_packet())
        assert dist.t[0] < 5.0 < dist.t[-1]
        assert dist.captured_mass() >= 0.999

    def test_explicit_center_respected(self):
        dist = converged_density(arrival_packet(), t_center=5.0,
                                 half_width=8.0)
        assert abs(0.5 * (dist.t[0] + dist.t[-1]) - 5.0) <= 0.1

    def test_zero_momentum_state_needs_explicit_center(self):
        st = gaussian_momentum_state(P_GRID, p0=0.0, x0=0.0, sigma_p=0.3)
        with pytest.raises(DomainError, match="t_center"):
            converged_density(st)

    @pytest.mark.parametrize("kwargs", [
        {"dt": 0.0}, {"dt": -0.02}, {"dt": math.nan}, {"dt": math.inf},
        {"half_width": 0.0}, {"half_width": math.nan},
        {"half_width": math.inf},
    ])
    def test_bad_window_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be positive and finite"):
            converged_density(arrival_packet(), **kwargs)

    @pytest.mark.parametrize("kwargs, match", [
        ({"growth": 0.9}, "growth"), ({"growth": math.nan}, "growth"),
        ({"t_center": math.nan}, "t_center"), ({"t_center": math.inf}, "t_center"),
    ])
    def test_bad_widening_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            converged_density(arrival_packet(), **kwargs)

    def test_exhausted_widening_raises_advisory(self):
        with pytest.raises(ConvergenceAdvisory, match="converge"):
            converged_density(arrival_packet(), max_rounds=1)

    def test_slow_tail_raises_advisory(self):
        # strong weight near p = 0: the late-arrival tail outruns any
        # window this momentum grid can support
        st = gaussian_momentum_state(momentum_grid(10.0, 1024),
                                     p0=1.0, x0=-20.0, sigma_p=0.35)
        with pytest.raises(ConvergenceAdvisory, match="p = 0") as info:
            converged_density(st)
        assert isinstance(info.value.__cause__, CapturedMassExcess)


class TestSmearedDensity:
    def test_variance_addition(self):
        dist = converged_density(arrival_packet())
        tau = 0.3
        sm = smeared_density(dist, tau)
        assert arrival_moments(sm, 2) - arrival_moments(dist, 2) \
            == pytest.approx(tau ** 2, abs=1e-4)
        assert arrival_moments(sm, 1) \
            == pytest.approx(arrival_moments(dist, 1), abs=1e-6)

    def test_mass_and_positivity_survive(self):
        dist = converged_density(arrival_packet())
        sm = smeared_density(dist, 0.5)
        assert sm.captured_mass() == pytest.approx(dist.captured_mass(),
                                                   abs=1e-6)
        assert np.min(sm.density) >= -1e-12
        assert sm.smear_tau == 0.5

    def test_width_validation(self):
        dist = converged_density(arrival_packet())
        for tau in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="tau"):
                smeared_density(dist, tau)


class TestFluxL1Distance:
    def test_zero_against_itself(self):
        dist = converged_density(arrival_packet())
        assert flux_l1_distance(dist, dist.density) == 0.0

    def test_shape_mismatch_rejected(self):
        dist = converged_density(arrival_packet())
        with pytest.raises(ValueError, match="match"):
            flux_l1_distance(dist, np.zeros(3))


class TestPhaseKernel:
    def test_matches_direct_exponentials(self):
        st = gaussian_momentum_state(momentum_grid(8.0, 8192), p0=2.0,
                                     x0=-10.0, sigma_p=0.2)
        w = _weights(st, 0.0)
        k_max, t_center, dt = 4194, 10.0, 0.02
        got = _phase_apply(st, w, t_center, dt, -k_max, 2 * k_max + 1)
        t = t_center + dt * np.arange(-k_max, k_max + 1)
        energy = st.p ** 2 / (2 * st.mass * st.hbar)
        ref = np.concatenate([np.exp(-1j * np.outer(t[i:i + 512], energy)) @ w
                              for i in range(0, t.size, 512)])
        gap = np.max(np.abs(got - ref), axis=0) / np.max(np.abs(ref), axis=0)
        assert np.max(gap) <= 1e-13

    def slow_window(self, monkeypatch):
        """The slow-tail packet's window, with every kernel call recorded."""
        calls = []

        def counted(state, weights, t0, dt, k0, n):
            calls.append((t0, dt, k0, n))
            return _phase_apply(state, weights, t0, dt, k0, n)

        monkeypatch.setattr(arrival, "_phase_apply", counted)
        st = gaussian_momentum_state(momentum_grid(8.0, 1024), p0=1.0,
                                     x0=-10.0, sigma_p=0.2)
        dist, current = _converged_window(st)
        monkeypatch.undo()
        return st, dist, current, calls

    def test_widening_evaluates_each_sample_once(self, monkeypatch):
        _, dist, _, calls = self.slow_window(monkeypatch)
        assert len({(t0, dt) for t0, dt, _, _ in calls}) == 1
        ks = np.sort(np.concatenate([k0 + np.arange(n)
                                     for _, _, k0, n in calls]))
        k_max = (dist.t.size - 1) // 2
        assert len(calls) > 3
        assert np.array_equal(ks, np.arange(-k_max, k_max + 1))

    def test_window_matches_fresh_evaluation(self, monkeypatch):
        st, dist, current, _ = self.slow_window(monkeypatch)
        fresh = kijowski_density(st, dist.t)
        for name in ("density", "right_part", "left_part"):
            a, b = getattr(dist, name), getattr(fresh, name)
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(b), name
        flux = current_density_at_origin(st, dist.t)
        assert np.max(np.abs(current - flux)) <= 1e-13 * np.max(np.abs(flux))
