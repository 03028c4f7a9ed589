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
    converged_window,
    current_density_at_origin,
    flux_l1_distance,
    gaussian_momentum_state,
    kijowski_density,
    momentum_grid,
    smeared_density,
)
from zenopath import arrival
from zenopath.arrival import _phase_apply, _phase_rows, _phase_table, _weights
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

    @pytest.mark.parametrize("n", [8, 100, 1000, 3000, 8192])
    def test_mirror_pairs_are_bitwise(self, n):
        # p_max = 7.3 is no dyadic fraction, so -p_max + (j+½)Δp alone
        # would miss the mirror of some nodes by an ulp
        p = momentum_grid(7.3, n)
        assert np.array_equal(p, -p[::-1])

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

    def test_samples_are_frozen(self):
        st = arrival_packet()
        with pytest.raises(ValueError):
            st.psi[0] = 1.0

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


class TestArrivalDistributionType:
    def build(self, den, rp, lp, t=None):
        t = np.array([0.0, 1.0, 2.0]) if t is None else t
        return ArrivalDistribution(t=t, density=den, right_part=rp,
                                   left_part=lp)

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
        assert dist.captured_mass() == pytest.approx(0.2)


class TestKijowskiDensity:
    def test_pointwise_nonnegative(self):
        dist = kijowski_density(arrival_packet(), np.linspace(-5.0, 15.0, 401))
        assert np.min(dist.density) >= -1e-12
        assert np.max(np.abs(dist.density - dist.right_part - dist.left_part)) \
            <= 1e-15

    def test_peak_near_classical_arrival(self):
        dist = converged_window(arrival_packet())[0]
        assert 4.5 <= dist.t[np.argmax(dist.density)] <= 5.5

    def test_window_converged_normalization(self):
        assert converged_window(arrival_packet())[0].captured_mass() \
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
            -1j * st.p ** 2 * t0 / 2))
        t = np.linspace(2.0, 9.0, 351)
        a = kijowski_density(evolved, t).density
        b = kijowski_density(st, t + t0).density
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_evolution_shifts_mean_arrival_earlier(self):
        st = arrival_packet()
        t0 = 1.7
        evolved = MomentumState(st.p, st.psi * np.exp(
            -1j * st.p ** 2 * t0 / 2))
        gap = arrival_moments(converged_window(evolved)[0], 1) \
            - arrival_moments(converged_window(st)[0], 1)
        assert gap == pytest.approx(-t0, abs=1e-6)

    def test_parity_swaps_components(self):
        st = arrival_packet()
        t = np.linspace(2.0, 9.0, 181)
        a = kijowski_density(st, t)
        b = kijowski_density(MomentumState(st.p, st.psi[::-1]), t)
        assert np.max(np.abs(a.right_part - b.left_part)) <= 1e-12
        assert np.max(np.abs(a.left_part - b.right_part)) <= 1e-12

    def test_arrival_point_shifts_flight_time(self):
        dist = converged_window(arrival_packet(), x_arrival=2.0)[0]
        assert arrival_moments(dist, 1) == pytest.approx(6.0, abs=0.2)

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
        dist = converged_window(st)[0]
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
        psi = sum(c * np.exp(-((P_GRID - p0) ** 2) / (4 * 0.18 ** 2)
                             - 1j * P_GRID * x0)
                  for c, p0, x0 in [(1.0, 1.0, -5.0),
                                    (0.6 * np.exp(0.5j * np.pi), 3.0, -15.0)])
        dp = P_GRID[1] - P_GRID[0]
        st = MomentumState(P_GRID, psi / np.sqrt(np.sum(np.abs(psi) ** 2) * dp))
        t = np.linspace(2.0, 8.0, 301)
        j = current_density_at_origin(st, t)
        dist = kijowski_density(st, t)
        assert np.min(j) < -0.02
        assert np.min(dist.density) >= -1e-12


class TestArrivalMoments:
    def test_mean_matches_classical_flight_time(self):
        mean = arrival_moments(converged_window(arrival_packet())[0], 1)
        assert mean == pytest.approx(5.0, abs=0.2)

    def test_variance_magnitude(self):
        var = arrival_moments(converged_window(arrival_packet())[0], 2)
        assert 1.2 ** 2 <= var <= 1.6 ** 2

    def test_order_validation(self):
        dist = converged_window(arrival_packet())[0]
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
            dist = converged_window(st, dt=0.05)[0]
            stds.append(math.sqrt(arrival_moments(dist, 2)))
        slope = (math.log(stds[0]) - math.log(stds[-1])) \
            / (math.log(widths[-1]) - math.log(widths[0]))
        assert slope == pytest.approx(1.0, abs=0.15)


class TestConvergedDensity:
    def test_auto_window_centers_on_flight_time(self):
        dist = converged_window(arrival_packet())[0]
        assert dist.t[0] < 5.0 < dist.t[-1]
        assert dist.captured_mass() >= 0.999

    def test_explicit_center_respected(self):
        dist = converged_window(arrival_packet(), t_center=5.0,
                                half_width=8.0)[0]
        assert abs(0.5 * (dist.t[0] + dist.t[-1]) - 5.0) <= 0.1

    def test_zero_momentum_state_needs_explicit_center(self):
        st = gaussian_momentum_state(P_GRID, p0=0.0, x0=0.0, sigma_p=0.3)
        with pytest.raises(DomainError, match="t_center"):
            converged_window(st)

    @pytest.mark.parametrize("kwargs", [
        {"dt": 0.0}, {"dt": -0.02}, {"dt": math.nan}, {"dt": math.inf},
        {"half_width": 0.0}, {"half_width": math.nan},
        {"half_width": math.inf}, {"half_width": 1e308, "dt": 1e-10},
    ])
    def test_bad_window_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be positive and finite"):
            converged_window(arrival_packet(), **kwargs)

    @pytest.mark.parametrize("kwargs, match", [
        ({"t_center": math.nan}, "t_center"), ({"t_center": math.inf}, "t_center"),
        # ulp(2e5) ≈ 2.9e-11 is past the 1e-9·dt = 2e-11 step tolerance
        ({"t_center": 2e5}, r"t_center = 200000, dt = 0\.02"),
        ({"t_center": -1e17, "dt": 0.5}, r"t_center = -1e\+17, dt = 0\.5"),
    ])
    def test_bad_widening_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            converged_window(arrival_packet(), **kwargs)

    def test_exhausted_widening_raises_advisory(self, monkeypatch):
        monkeypatch.setattr(arrival, "_MAX_ROUNDS", 1)
        with pytest.raises(ConvergenceAdvisory, match="converge"):
            converged_window(arrival_packet())

    def test_slow_tail_raises_advisory(self):
        # strong weight near p = 0: the late-arrival tail outruns any
        # window this momentum grid can support
        st = gaussian_momentum_state(momentum_grid(10.0, 1024),
                                     p0=1.0, x0=-20.0, sigma_p=0.35)
        with pytest.raises(ConvergenceAdvisory, match="p = 0") as info:
            converged_window(st)
        assert isinstance(info.value.__cause__, CapturedMassExcess)


class TestSmearedDensity:
    def test_variance_addition(self):
        dist = converged_window(arrival_packet())[0]
        tau = 0.3
        sm = smeared_density(dist, tau)
        assert arrival_moments(sm, 2) - arrival_moments(dist, 2) \
            == pytest.approx(tau ** 2, abs=1e-4)
        assert arrival_moments(sm, 1) \
            == pytest.approx(arrival_moments(dist, 1), abs=1e-6)

    def test_mass_and_positivity_survive(self):
        dist = converged_window(arrival_packet())[0]
        sm = smeared_density(dist, 0.5)
        assert sm.captured_mass() == pytest.approx(dist.captured_mass(),
                                                   abs=1e-6)
        assert np.min(sm.density) >= -1e-12

    def test_kernel_longer_than_window(self):
        # 2·⌈6τ/dt⌉+1 = 1801 kernel samples against a 1281-sample window
        dist = converged_window(arrival_packet())[0]
        sm = smeared_density(dist, 3.0)
        assert sm.t.size == dist.t.size == 1281
        assert np.array_equal(sm.t, dist.t)
        assert np.min(sm.density) >= -1e-12

    def test_width_validation(self):
        dist = converged_window(arrival_packet())[0]
        for tau in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="tau"):
                smeared_density(dist, tau)


class TestFluxL1Distance:
    def test_zero_against_itself(self):
        dist = converged_window(arrival_packet())[0]
        assert flux_l1_distance(dist, dist.density) == 0.0

    def test_shape_mismatch_rejected(self):
        dist = converged_window(arrival_packet())[0]
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
        energy = st.p ** 2 / 2
        ref = np.concatenate([np.exp(-1j * np.outer(t[i:i + 512], energy)) @ w
                              for i in range(0, t.size, 512)])
        gap = np.max(np.abs(got - ref), axis=0) / np.max(np.abs(ref), axis=0)
        assert np.max(gap) <= 1e-13

    @pytest.mark.parametrize("p, folded", [
        (momentum_grid(4.0, 64) + 0.3, 64),   # no mirror pairs: nothing folds
        (momentum_grid(4.0, 64) + 0.5, 36),   # 28 pairs with |p| ≤ 3.4375
        (momentum_grid(7.3, 1000), 500),
    ], ids=["unpaired", "shifted", "mirrored"])
    def test_fold_matches_direct_exponentials(self, p, folded):
        st = gaussian_momentum_state(p, p0=1.5, x0=-4.0, sigma_p=0.6)
        w = _weights(st, 0.7)
        k0, n, t0, dt = -300, 601, 4.0, 0.02
        table = _phase_table(st, w, dt, 25)
        assert table.energy.size == folded
        got = _phase_rows(table, t0, k0, n)
        t = t0 + dt * np.arange(k0, k0 + n)
        ref = np.exp(-1j * np.outer(t, st.p ** 2 / 2)) @ w
        gap = np.max(np.abs(got - ref), axis=0) / np.max(np.abs(ref), axis=0)
        assert np.max(gap) <= 1e-13

    @pytest.mark.parametrize("n", [1, 24, 25, 26, 80])
    @pytest.mark.parametrize("k0", [-40, 7])
    def test_block_edges_match_direct_exponentials(self, n, k0):
        # n = 1, B - 1, B, B + 1 and 3B + 5 rows for B = 25, about the
        # packet's arrival at t = 5
        st = arrival_packet()
        w = _weights(st, 0.0)
        t0, dt = 5.0, 0.02
        table = _phase_table(st, w, dt, 25)
        got = _phase_rows(table, t0, k0, n)
        t = t0 + dt * np.arange(k0, k0 + n)
        ref = np.exp(-1j * np.outer(t, st.p ** 2 / 2)) @ w
        assert got.shape == (n, 4)
        gap = np.max(np.abs(got - ref), axis=0) / np.max(np.abs(ref), axis=0)
        assert np.max(gap) <= 1e-13

    @pytest.mark.parametrize("cap", [1, 3 * 512 * 4])
    def test_chunking_leaves_rows_unchanged(self, monkeypatch, cap):
        # one block per chunk, and three: both against a single chunk
        st = arrival_packet()
        table = _phase_table(st, _weights(st, 0.0), 0.02, 16)
        monkeypatch.setattr(arrival, "_STACK_ENTRIES", 1 << 40)
        whole = _phase_rows(table, 5.0, -1000, 2001)
        monkeypatch.setattr(arrival, "_STACK_ENTRIES", cap)
        assert np.array_equal(_phase_rows(table, 5.0, -1000, 2001), whole)

    def slow_window(self, monkeypatch):
        """The slow-tail packet's window, with every step table and every
        kernel call recorded."""
        tables, calls = [], []

        def counted_table(state, weights, dt, b):
            tables.append((dt, b))
            return _phase_table(state, weights, dt, b)

        def counted(table, t0, k0, n):
            calls.append((t0, table.dt, k0, n))
            return _phase_rows(table, t0, k0, n)

        monkeypatch.setattr(arrival, "_phase_table", counted_table)
        monkeypatch.setattr(arrival, "_phase_rows", counted)
        st = gaussian_momentum_state(momentum_grid(8.0, 1024), p0=1.0,
                                     x0=-10.0, sigma_p=0.2)
        dist, current = converged_window(st)
        monkeypatch.undo()
        return st, dist, current, tables, calls

    def test_widening_evaluates_each_sample_once(self, monkeypatch):
        _, dist, _, tables, calls = self.slow_window(monkeypatch)
        assert len(tables) == 1
        assert len({(t0, dt) for t0, dt, _, _ in calls}) == 1
        ks = np.sort(np.concatenate([k0 + np.arange(n)
                                     for _, _, k0, n in calls]))
        k_max = (dist.t.size - 1) // 2
        assert len(calls) > 3
        assert np.array_equal(ks, np.arange(-k_max, k_max + 1))

    def test_window_matches_fresh_evaluation(self, monkeypatch):
        st, dist, current, _, _ = self.slow_window(monkeypatch)
        fresh = kijowski_density(st, dist.t)
        for name in ("density", "right_part", "left_part"):
            a, b = getattr(dist, name), getattr(fresh, name)
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(b), name
        flux = current_density_at_origin(st, dist.t)
        assert np.max(np.abs(current - flux)) <= 1e-13 * np.max(np.abs(flux))
