"""Tests for the stays/crosses history pair on the line.

Oracles used here:
  * parity identities: an antisymmetric state at the hard wall (and a
    symmetric state at the reflecting wall) evolves identically under the
    full line and under the decoupled half-lines, so the crossing
    amplitude must vanish to grid precision
  * the sum rule d(1,1) + d(2,2) + 2 Re d(1,2) = ‖ψ‖² is an algebraic
    identity of the split C₁ + C₂ = 1 and must hold to machine precision
    for every state, consistent or not
  * semigroup law of the decoupled evolution: composing two direct-sum
    steps equals one step of the summed duration
  * a test-side direct sum and class split, each half line through
    `restricted_propagate`, as the per-row oracle of `history_sweep`
  * a packet launched across x = 0 interferes strongly, so the pair of
    histories must fail the consistency gate by a wide margin
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from zenopath.halfline import (
    NEUMANN,
    HalfLineSystem,
    SpatialGrid,
    WaveFunction,
    free_phase,
    gaussian_packet,
    production_route,
    restricted_propagate,
    spectral_evolve_line,
)
from zenopath.histories import (
    BetaScanRow,
    ConsistencyVerdict,
    beta_condition_scan,
    boundary_condition_residuals,
    history_sweep,
    mirror_beta,
    reflection_safe_horizon,
    robin_state_builder,
)
from zenopath.qcore import DecoherenceMatrix

GRID = SpatialGrid(-40.0, 40.0, 2048)


def random_parity_state(rng, grid, sign, n_terms=3):
    """Normalized random superposition of Gaussians, (anti)symmetrised."""
    s = np.zeros(grid.n, dtype=complex)
    for _ in range(n_terms):
        x0 = rng.uniform(3.0, 8.0)
        p0 = rng.uniform(-2.0, 2.0)
        sig = rng.uniform(0.8, 1.5)
        c = rng.normal() + 1j * rng.normal()
        s += c * np.exp(-((grid.x - x0) ** 2) / (4 * sig ** 2)
                        + 1j * p0 * (grid.x - x0))
    idx = (-np.arange(grid.n)) % grid.n
    return WaveFunction(grid, s + sign * s[idx]).normalized()


def oracle_direct_sum(psi, beta, t):
    """[U_r^β(t)(θψ)] ⊕ [U_r^{β,L}(t)((1-θ)ψ)] on ψ's grid, each half line
    through `restricted_propagate` on its production route."""
    g = psi.grid
    n = g.n // 2
    right = HalfLineSystem(L=g.x_max, n=n, beta=beta)
    left = HalfLineSystem(L=g.x_max, n=n, beta=mirror_beta(beta))
    s = psi.samples
    h_left = np.concatenate([s[n:n + 1], s[1:n][::-1]])
    outs = [restricted_propagate(WaveFunction(sys.half_grid(), h), sys, t,
                                 method=production_route(sys)).samples
            for sys, h in ((right, s[n:].copy()), (left, h_left))]
    summed = np.zeros(g.n, dtype=complex)
    summed[n:] = outs[0]
    summed[1:n] = outs[1][1:][::-1]
    return WaveFunction(g, summed)


def oracle_classes(psi, beta, t):
    """C₂ψ = ψ - C₁ψ, with C₁ψ = U(-t)·[direct sum] by
    `spectral_evolve_line`, and d(i,j) = ⟨C_jψ|C_iψ⟩ in the order
    (stay, cross)."""
    c1 = spectral_evolve_line(oracle_direct_sum(psi, beta, t), -t)
    c2 = WaveFunction(psi.grid, psi.samples - c1.samples)
    d12 = c2.inner(c1)
    dm = DecoherenceMatrix(np.array([[c1.inner(c1), d12],
                                     [np.conj(d12), c2.inner(c2)]]))
    return c2, dm


def verdict(psi, beta, t, tol=1e-3):
    """The verdict of one duration: a one-row `history_sweep`."""
    return history_sweep(psi, beta, [t], tol)[0].verdict


def sum_rule_residual(v):
    """|p_same + p_cross + 2 Re d12 - ‖ψ‖²| of a verdict, for unit ‖ψ‖."""
    return abs(v.p_same + v.p_cross + 2 * v.re_d12 - 1.0)


class TestHistoryPair:
    """The pair's duration and wall, as `history_sweep` takes them."""

    def test_defaults(self):
        psi = gaussian_packet(GRID, -5.0, 2.0, 1.0)
        row = history_sweep(psi, 0.0, [1.5])[0]
        assert (row.t, row.beta) == (1.5, 0.0)
        assert type(row.t) is float

    def test_negative_duration_rejected(self, monkeypatch):
        from zenopath import histories

        def refuse(*args, **kwargs):
            raise AssertionError("work started before t was checked")

        monkeypatch.setattr(histories, "half_spectrum", refuse)
        psi = gaussian_packet(GRID, -5.0, 2.0, 1.0)
        for t in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="t must be"):
                history_sweep(psi, 0.0, [1.0, t])

    def test_string_beta_must_be_reflecting(self):
        psi = gaussian_packet(GRID, 4.0, -1.0, 1.2, parity="even")
        history_sweep(psi, NEUMANN, [1.0])
        with pytest.raises(ValueError, match="string beta"):
            history_sweep(psi, "robin", [1.0])


class TestMirrorBeta:
    def test_reflecting_wall_is_self_mirror(self):
        assert mirror_beta(NEUMANN) == NEUMANN

    def test_hard_wall_is_self_mirror(self):
        out = mirror_beta(0.0)
        assert out == 0.0 and math.copysign(1.0, out) > 0

    def test_finite_values_flip_sign(self):
        assert mirror_beta(1.3) == -1.3
        assert mirror_beta(-2.0) == 2.0


class TestConsistencyVerdict:
    def test_from_matrix_thresholds(self):
        ok = DecoherenceMatrix(np.array([[1.0, 5e-4], [5e-4, 0.5]], dtype=complex))
        bad = DecoherenceMatrix(np.array([[1.0, 2e-3], [2e-3, 0.5]], dtype=complex))
        assert ConsistencyVerdict.from_matrix(ok, tol=1e-3).consistent
        assert not ConsistencyVerdict.from_matrix(bad, tol=1e-3).consistent
        # one rule: the verdict is the matrix's own test, also for matrices
        # whose entries all sit below 1e-12
        tiny = [DecoherenceMatrix(np.array([[a, c], [c, b]], dtype=complex))
                for a, b, c in ((1e-14, 1e-15, 5e-18), (1e-14, 1e-15, 5e-16),
                                (0.0, 0.0, 1e-20), (0.0, 0.0, 0.0))]
        for dm in [ok, bad] + tiny:
            for tol in (1e-6, 1e-3):
                assert (ConsistencyVerdict.from_matrix(dm, tol).consistent
                        == dm.is_consistent(tol))
        for tol in (np.nan, np.inf, -1e-3):
            with pytest.raises(ValueError, match="tol"):
                ConsistencyVerdict.from_matrix(ok, tol)

    def test_null_matrix_is_consistent(self):
        v = ConsistencyVerdict.from_matrix(
            DecoherenceMatrix(np.zeros((2, 2), dtype=complex)), tol=1e-3)
        assert v.consistent and v.p_same == 0.0 and v.p_cross == 0.0

    def test_sum_rule_residual(self):
        # the verdict carries Re d12 and not Im d12 into the sum rule
        dm = DecoherenceMatrix(np.array([[0.6, -0.05 + 0.3j],
                                         [-0.05 - 0.3j, 0.5]]))
        v = ConsistencyVerdict.from_matrix(dm, tol=1e-3)
        assert sum_rule_residual(v) == pytest.approx(0.0, abs=1e-15)


class TestClassAmplitudes:
    def test_completeness_is_exact(self):
        # C₁ + C₂ = 1 by construction, which makes the sum rule exact
        rng = np.random.default_rng(11)
        psi = random_parity_state(rng, GRID, -1.0)
        v = history_sweep(psi, 0.7, [1.8])[0].verdict
        assert sum_rule_residual(v) <= 1e-12
        _, dm = oracle_classes(psi, 0.7, 1.8)
        assert v == ConsistencyVerdict.from_matrix(dm, 1e-3)

    def test_needs_symmetric_grid(self):
        g = SpatialGrid(-10.0, 30.0, 1024)
        psi = gaussian_packet(g, 5.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="symmetric"):
            verdict(psi, 0.0, 1.0)

    def test_grid_warning_for_underresolved_cut(self):
        coarse = SpatialGrid(-20.0, 20.0, 512)
        skew = gaussian_packet(coarse, 2.0, 0.0, 0.5)
        assert history_sweep(skew, 0.0, [0.5])[0].grid_warning

    def test_no_warning_for_resolved_state(self):
        psi = gaussian_packet(GRID, -5.0, 2.0, 1.0)
        assert not history_sweep(psi, 0.0, [0.5])[0].grid_warning


class TestDirectSumEvolve:
    """The direct sum the sweep reads (equal to it bitwise, see
    TestHistoryRow), built here from `restricted_propagate`."""

    def test_zero_time_is_identity_off_the_far_node(self):
        psi = gaussian_packet(GRID, 4.0, -1.0, 1.2)
        out = oracle_direct_sum(psi, 0.7, 0.0)
        assert np.max(np.abs(out.samples[1:] - psi.samples[1:])) <= 1e-10
        assert out.samples[0] == 0.0

    def test_semigroup_composition_hard_wall(self):
        rng = np.random.default_rng(5)
        psi = random_parity_state(rng, GRID, -1.0)
        one = oracle_direct_sum(psi, 0.0, 2.1)
        half = oracle_direct_sum(psi, 0.0, 0.8)
        two = oracle_direct_sum(half, 0.0, 1.3)
        assert np.max(np.abs(one.samples - two.samples)) <= 1e-10

    def test_norm_preserved_at_hard_wall(self):
        # Dirichlet halves pin the shared node to zero, so reassembly loses
        # nothing and the summed evolution stays unitary to grid precision.
        psi = gaussian_packet(GRID, -5.0, 2.0, 1.0)
        out = oracle_direct_sum(psi, 0.0, 2.5)
        assert abs(out.norm() - 1.0) <= 1e-6

    def test_norm_drift_at_finite_beta_is_small(self):
        # After the halves decouple the continuum state jumps at x = 0; a
        # single-valued grid row cannot carry both one-sided wall values, so
        # the reassembled norm picks up an O(Δx) weighting error.
        psi = gaussian_packet(GRID, 4.0, -1.0, 1.2)
        out = oracle_direct_sum(psi, -1.3, 1.5)
        assert abs(out.norm() - 1.0) <= 0.02


class TestSumRule:
    def test_exact_for_assorted_states(self):
        rng = np.random.default_rng(23)
        states = [
            gaussian_packet(GRID, -5.0, 2.0, 1.0),
            gaussian_packet(GRID, 4.0, -1.0, 1.2),
            random_parity_state(rng, GRID, -1.0),
            random_parity_state(rng, GRID, 1.0),
        ]
        betas = [0.0, 0.7, -1.3, NEUMANN]
        for psi, beta in zip(states, betas):
            v = verdict(psi, beta, 1.7)
            assert sum_rule_residual(v) <= 1e-12, f"beta={beta}"

    def test_matrix_is_hermitian_with_unit_total(self):
        psi = gaussian_packet(GRID, -5.0, 2.0, 1.0)
        _, dm = oracle_classes(psi, 0.0, 2.5)
        assert verdict(psi, 0.0, 2.5) \
            == ConsistencyVerdict.from_matrix(dm, 1e-3)
        assert dm.is_hermitian(1e-12)
        assert dm.d11 >= 0.0 and dm.d22 >= 0.0
        assert dm.total() == pytest.approx(1.0, abs=1e-12)

    def test_stay_probability_is_unit_at_hard_wall(self):
        # U_r ⊕ U_r is an isometry on the split state, so d(1,1) = ‖ψ‖².
        psi = gaussian_packet(GRID, -5.0, 2.0, 1.0)
        v = verdict(psi, 0.0, 2.5)
        assert abs(v.p_same - 1.0) <= 1e-6

    def test_global_phase_invariance(self):
        psi = gaussian_packet(GRID, -5.0, 2.0, 1.0)
        rot = WaveFunction(GRID, np.exp(0.9j) * psi.samples)
        a = verdict(psi, 0.0, 2.5)
        b = verdict(rot, 0.0, 2.5)
        assert abs(a.re_d12 - b.re_d12) <= 1e-12
        assert abs(a.p_same - b.p_same) <= 1e-12


class TestParityTheorems:
    def test_full_line_evolution_preserves_parity(self):
        rng = np.random.default_rng(31)
        idx = (-np.arange(GRID.n)) % GRID.n
        odd = random_parity_state(rng, GRID, -1.0)
        ev = spectral_evolve_line(odd, 1.7)
        assert np.max(np.abs(ev.samples + ev.samples[idx])) <= 1e-10

    def test_odd_states_never_cross_hard_wall(self):
        rng = np.random.default_rng(41)
        for k in range(20):
            psi = random_parity_state(rng, GRID, -1.0)
            horizon = reflection_safe_horizon(psi)
            assert horizon > 0.5
            t = min(0.5 + 0.9 * horizon * k / 19, horizon)
            c2, _ = oracle_classes(psi, 0.0, t)
            v = verdict(psi, 0.0, t)
            assert c2.norm() <= 1e-9
            assert abs(v.re_d12) <= 1e-10
            assert v.p_same >= 1.0 - 1e-6
            assert v.consistent

    def test_even_states_never_cross_reflecting_wall(self):
        rng = np.random.default_rng(43)
        for k in range(20):
            psi = random_parity_state(rng, GRID, 1.0)
            horizon = reflection_safe_horizon(psi)
            t = min(0.5 + 0.9 * horizon * k / 19, horizon)
            c2, _ = oracle_classes(psi, NEUMANN, t)
            v = verdict(psi, NEUMANN, t)
            # the x = -L node has no mirror partner; an even state carries a
            # genuine (tiny) tail there, so this route is not machine exact
            assert c2.norm() <= 1e-5
            assert abs(v.re_d12) <= 1e-10
            assert v.p_same >= 1.0 - 1e-6
            assert v.consistent

    def test_crossing_packet_is_inconsistent(self):
        psi = gaussian_packet(GRID, -5.0, 2.0, 1.0)
        v = verdict(psi, 0.0, 2.5)
        assert abs(v.re_d12) > 1e-2
        assert not v.consistent
        assert v.p_cross > 0.5

    def test_interference_has_reported_imaginary_part(self):
        psi = gaussian_packet(GRID, -5.0, 2.0, 1.0)
        v = verdict(psi, 0.0, 2.5)
        assert math.isfinite(v.im_d12)
        assert abs(v.im_d12) > 1e-3


class TestReflectionSafeHorizon:
    def test_faster_packet_has_shorter_horizon(self):
        slow = reflection_safe_horizon(gaussian_packet(GRID, 0.0, 0.0, 1.0))
        fast = reflection_safe_horizon(gaussian_packet(GRID, 0.0, 6.0, 1.0))
        assert 0.0 < fast < slow

    def test_edge_supported_state_has_no_horizon(self):
        psi = gaussian_packet(GRID, 37.0, 3.0, 1.0)
        assert reflection_safe_horizon(psi) == 0.0


def oracle_row(psi, beta, t, tol=1e-3):
    """One (β, t) row by the per-row formula: each half line through
    `restricted_propagate` on its production route, then U(-t) and U(t)
    by `spectral_evolve_line`, every phase built from its own grid."""
    g = psi.grid
    n = g.n // 2
    s = psi.samples
    _, dm = oracle_classes(psi, beta, t)
    evolved = spectral_evolve_line(psi, t)
    rp, rm = boundary_condition_residuals(evolved, beta)
    lo, hi = abs(s[n - 1]), abs(s[n + 1])
    ref = max(lo, hi)
    dpsi = (evolved.samples[n + 1] - evolved.samples[n - 1]) / (2 * g.dx)
    summed = oracle_direct_sum(psi, beta, t).samples
    return BetaScanRow(
        beta=beta, t=t, verdict=ConsistencyVerdict.from_matrix(dm, tol),
        r_plus=rp, r_minus=rm,
        flux0=float((np.conj(evolved.samples[n]) * dpsi).imag),
        directsum_distance=float(np.max(np.abs(evolved.samples - summed))),
        grid_warning=bool(ref > 1e-12 and abs(hi - lo) > 0.2 * ref),
        rejected=False)


class TestHistoryRow:
    def test_cli_sweep_runs_one_direct_sum_per_row(self, monkeypatch):
        from zenopath import cli, halfline, histories
        calls = {"half_spectrum": [], "_to_dirichlet": [], "_direct_sum": []}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name].append(args[1] if name == "_direct_sum" else 1)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(histories, "half_spectrum")
        counted(halfline, "_to_dirichlet")
        counted(histories, "_direct_sum")
        for beta, n_t in ((0.0, 3), (0.0, 5), (0.7, 3), (0.7, 5)):
            for seen in calls.values():
                seen.clear()
            table = cli.cmd_histories(cli.RunConfig(
                "histories", {"n_t": n_t, "beta": beta}))
            p = table.metadata
            t_values = list(np.linspace(float(p["t_min"]), float(p["t_max"]),
                                        n_t))
            assert [row[0] for row in table.rows] == t_values
            # one direct sum per row, in t order; one half spectrum (and, at
            # finite β, one D_h) per half line per sweep, whatever n_t is
            assert calls["_direct_sum"] == t_values
            assert len(calls["half_spectrum"]) == 2
            assert len(calls["_to_dirichlet"]) == (0 if beta == 0.0 else 2)

    @pytest.mark.parametrize("parity", [None, "odd", "even"])
    @pytest.mark.parametrize("beta", [0.0, NEUMANN, 0.7, -1.3])
    def test_sweep_rows_equal_per_row_oracle(self, beta, parity):
        grid = SpatialGrid(-40.0, 40.0, 1024)
        x0, p0 = (-5.0, 2.0) if parity is None else (5.5, -1.2)
        psi = gaussian_packet(grid, x0, p0, 1.0, parity=parity)
        times = np.linspace(0.0, 3.0, 4)
        rows = history_sweep(psi, beta, times)
        assert rows == [oracle_row(psi, beta, float(t)) for t in times]

    @pytest.mark.parametrize("n", [2048, 4096])
    def test_conjugate_phase_is_the_reverse_phase(self, n):
        # C₁ψ takes U(-t) from the conjugate of the row's forward phase
        k2 = SpatialGrid(-40.0, 40.0, n).k ** 2
        for t in np.linspace(0.0, 10.0, 201):
            back = np.conj(np.exp(-1j * k2 * t / 2))
            direct = np.exp(-1j * k2 * -t / 2)
            assert np.array_equal(back, direct)
            # bitwise wherever the imaginary part is nonzero; an exact zero
            # (k = 0, and every k at t = 0) differs only in its sign
            live = direct.imag != 0
            assert back[live].tobytes() == direct[live].tobytes()
            assert live.sum() == (0 if t == 0 else n - 1)

    @pytest.mark.parametrize("beta", [0.0, NEUMANN, 0.7, -1.3])
    def test_one_free_phase_per_row(self, beta):
        # ψ and both half lines read one cached array on an exact grid
        psi = gaussian_packet(GRID, -5.0, 2.0, 1.0)
        times = [0.0, 0.5, 1.25, 2.5]
        free_phase.cache_clear()
        history_sweep(psi, beta, times)
        assert free_phase.cache_info().misses == len(times)
        free_phase.cache_clear()

    @pytest.mark.parametrize("beta", [0.0, NEUMANN, 0.7, -1.3])
    def test_rounding_symmetric_grid_keeps_per_half_phases(self, beta):
        grid = SpatialGrid(-40.0 - 4e-12, 40.0, 1024)
        assert grid.is_symmetric()
        assert not np.array_equal(SpatialGrid(-40.0, 40.0, 1024).k, grid.k)
        psi = gaussian_packet(grid, -5.0, 2.0, 1.0)
        times = [0.0, 1.25, 2.5]
        free_phase.cache_clear()
        rows = history_sweep(psi, beta, times)
        # ψ's grid and the half lines' grid each build their own phase
        assert free_phase.cache_info().misses == 2 * len(times)
        free_phase.cache_clear()
        assert rows == [oracle_row(psi, beta, t) for t in times]

    @pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
    def test_bad_tol_refused_before_any_work(self, monkeypatch, tol):
        from zenopath import histories

        def refuse(*args, **kwargs):
            raise AssertionError("work started before tol was checked")

        monkeypatch.setattr(histories, "half_spectrum", refuse)
        psi = gaussian_packet(GRID, -5.0, 2.0, 1.0)
        message = "tol must be finite and >= 0"
        with pytest.raises(ValueError, match=message):
            history_sweep(psi, 0.0, [], tol=tol)           # no row to judge
        with pytest.raises(ValueError, match=message):
            history_sweep(psi, 0.0, [1.0], tol=tol)
        # a builder that meets no wall condition rejects every row
        with pytest.raises(ValueError, match=message):
            beta_condition_scan(lambda beta, grid: psi, [0.7], [1.0],
                                grid=GRID, tol=tol)

    @pytest.mark.parametrize("beta", [0.0, 0.7, -1.3, NEUMANN])
    def test_scan_rows_are_history_rows(self, beta):
        psi = robin_state_builder()(beta, GRID)
        scan = beta_condition_scan(robin_state_builder(), [beta], [1.5],
                                   grid=GRID, tol=1e-3)
        row = history_sweep(psi, beta, [1.5], tol=1e-3)[0]
        # verdict, distance, residuals and flux: every field identical
        assert scan == [row]
        dist = np.max(np.abs(spectral_evolve_line(psi, 1.5).samples
                             - oracle_direct_sum(psi, beta, 1.5).samples))
        assert row.directsum_distance == dist


class TestBetaConditionScan:
    def scan(self, betas=(0.0, 0.7, -1.3, NEUMANN), times=(1.0, 2.5)):
        return beta_condition_scan(robin_state_builder(), list(betas),
                                   list(times), grid=GRID)

    def test_row_count_and_order(self):
        rows = self.scan()
        assert len(rows) == 8
        keys = [(isinstance(r.beta, str), r.beta if not isinstance(r.beta, str)
                 else 0.0, r.t) for r in rows]
        assert keys == sorted(keys)
        assert isinstance(rows[-1].beta, str)

    def test_no_rejections_for_conforming_builder(self):
        rows = self.scan()
        assert all(not r.rejected for r in rows)
        assert all(r.verdict is not None for r in rows)
        assert all(math.isfinite(r.flux0) for r in rows)

    def test_parity_walls_are_machine_consistent(self):
        for r in self.scan():
            if r.beta == 0.0 or isinstance(r.beta, str):
                assert r.directsum_distance <= 1e-12
                assert abs(r.verdict.re_d12) <= 1e-12
                assert r.verdict.consistent

    def test_decoupled_rows_carry_consistent_verdicts(self):
        for r in self.scan():
            if r.directsum_distance <= 1e-3:
                assert r.verdict.consistent, f"beta={r.beta} t={r.t}"

    def test_condition_does_not_persist_at_finite_beta(self):
        rows = {(r.beta, r.t): r for r in self.scan()}
        # persistence residual grows with t for a generic Robin parameter
        assert rows[(0.7, 2.5)].r_plus > rows[(0.7, 1.0)].r_plus > 1e-4
        # while the hard wall keeps its node exactly
        assert rows[(0.0, 2.5)].r_plus <= 1e-12

    def test_nonconforming_builder_is_rejected(self):
        def bare(beta, grid):
            return gaussian_packet(grid, -3.0, 1.0, 1.0)
        rows = beta_condition_scan(bare, [0.0, 0.7], [1.0], grid=GRID)
        assert all(r.rejected for r in rows)
        assert all(r.verdict is None for r in rows)
        assert all(math.isnan(r.flux0) for r in rows)
        assert all(math.isnan(r.directsum_distance) for r in rows)

    def test_rejection_reports_the_violation_size(self):
        def bare(beta, grid):
            return gaussian_packet(grid, -3.0, 1.0, 1.0)
        row = beta_condition_scan(bare, [0.0], [1.0], grid=GRID)[0]
        assert row.r_plus > 1e-3

    def test_row_is_frozen_record(self):
        row = self.scan(betas=(0.0,), times=(1.0,))[0]
        assert isinstance(row, BetaScanRow)
        with pytest.raises(AttributeError):
            row.t = 2.0


class TestRobinStateBuilder:
    def test_states_meet_condition_at_time_zero(self):
        builder = robin_state_builder()
        for beta in (0.0, 0.7, -1.3, NEUMANN):
            psi = builder(beta, GRID)
            assert abs(psi.norm() - 1.0) <= 1e-12
            n = GRID.n // 2
            k = 2 * np.pi * np.fft.fftfreq(GRID.n, GRID.dx)
            dpsi = np.fft.ifft(1j * k * np.fft.fft(psi.samples))[n]
            if isinstance(beta, str):
                assert abs(dpsi) <= 1e-8
            else:
                assert abs(psi.samples[n] - beta * dpsi) <= 1e-8

    def test_hard_wall_state_is_antisymmetric(self):
        psi = robin_state_builder()(0.0, GRID)
        idx = (-np.arange(GRID.n)) % GRID.n
        assert np.max(np.abs(psi.samples + psi.samples[idx])) <= 1e-12

    def test_reflecting_wall_state_is_symmetric(self):
        psi = robin_state_builder()(NEUMANN, GRID)
        idx = (-np.arange(GRID.n)) % GRID.n
        assert np.max(np.abs(psi.samples - psi.samples[idx])) <= 1e-12


def test_histories_imports_no_private_halfline_name():
    # the direct sum reads halfline through its public half_spectrum only
    from zenopath import histories
    tree = ast.parse(Path(histories.__file__).read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.module or "").endswith("halfline")
             for alias in node.names]
    assert "half_spectrum" in names
    assert [name for name in names if name.startswith("_")] == []
