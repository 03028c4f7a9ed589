"""Release gate: the eleven numerical contracts this package promises.

Each test checks one contract end to end at its stated tolerance and
wall-clock budget, and reports a single summary line (visible under
``pytest -s``); ``pytest -v`` gives the pass/fail verdict per contract.
Tolerances are the contractual ones, not the tightest observed values;
the module test suites pin the sharper figures.

 1. two-state crossing term against -i·sin ωt and cos ωt - 1; the
    never-entered term against its closed form at machine precision
 2. interleaved-evolution split of the propagator is an identity for
    random Hermitian generators and projectors
 3. interruption bound 1 - survival ≤ (ωt)²/n and the projector limit
    of the monitored product
 4. decoherence entries of the two-state history pair against closed
    forms, with the sum rule
 5. hard-wall and Neumann restricted propagation against the method of
    images; Robin bound-state energy -1/(2β²)
 6. spatial propagator split on the cut line: monotone quadrature
    ladder and β-dependence of the crossing term
 7. history consistency by symmetry sector, and its generic failure
 8. arrival-time distribution: positivity, normalization, classical
    mean, time-translation covariance, flux agreement
 9. obstruction to a conjugate-time operator in finite dimension
10. byte-identical CSV output for every command line entry point
11. finite-β walls by intertwining against the eigensystem route across
    both signs of β: sup gap, its second-order convergence, norm
"""

import subprocess
import sys
import time

import numpy as np

from zenopath.arrival import (
    MomentumState,
    arrival_moments,
    converged_window,
    current_density_at_origin,
    flux_l1_distance,
    gaussian_momentum_state,
    kijowski_density,
)
from zenopath.arrival import momentum_grid
from zenopath.halfline import (
    NEUMANN,
    HalfLineSystem,
    SpatialGrid,
    WaveFunction,
    gaussian_packet,
    halfline_eigensystem,
    halfline_norm,
    line_pdx_ladder,
    restricted_propagate,
)
from zenopath.histories import history_sweep, reflection_safe_horizon
from zenopath.qcore import (
    TwoStateSystem,
    ZenoSchedule,
    conjugate_time_no_go,
    decoherence_functional,
    decomposition_of_unity_residual,
    pdx_assemble,
    zeno_product,
)

from conftest import child_env


def report(label: str, detail: str, start: float, budget: float) -> None:
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"{label}: {elapsed:.2f}s over {budget:.0f}s"
    print(f"[gate] {label}: PASS ({detail}, {elapsed:.2f}s)")


def half_packet(sys_, x0, p0, sigma, pin_wall=False):
    h = np.exp(-((sys_.x - x0) ** 2) / (4 * sigma ** 2) + 1j * p0 * sys_.x)
    if pin_wall:
        h[0] = 0.0
    return WaveFunction(sys_.half_grid(), h / halfline_norm(h, sys_))


def right_packet(sys_, x0, p0, sigma):
    g = sys_.full_grid()
    h = np.exp(-((g.x - x0) ** 2) / (4 * sigma ** 2) + 1j * p0 * g.x)
    h[g.x < 0] = 0.0
    return WaveFunction(g, h).normalized()


def test_01_two_state_crossing_and_boundary_closed_forms():
    start = time.perf_counter()
    sys_ = TwoStateSystem(1.0)
    ham, proj = sys_.hamiltonian(), sys_.projector_up()
    worst_x = worst_b = 0.0
    for t in (0.3, np.pi / 2, 2.0):
        pdx = pdx_assemble(ham, proj, t, n_zeno=10, n_quad=201, ur="limit")
        x = pdx.crossing.mat
        assert abs(x[0, 1] - (-1j * np.sin(t))) <= 1e-6
        assert abs(x[1, 1] - (np.cos(t) - 1.0)) <= 1e-6
        worst_x = max(worst_x, np.max(np.abs(x - sys_.crossing_closed(t).mat)))
        worst_b = max(worst_b, np.max(np.abs(pdx.boundary.mat
                                             - sys_.boundary_closed(t).mat)))
    assert worst_x <= 1e-6
    assert worst_b <= 1e-12
    report("two-state crossing/boundary",
           f"crossing {worst_x:.1e}, boundary {worst_b:.1e}", start, 1.0)


def test_02_propagator_split_is_an_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        n = int(rng.integers(1, 21))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        ham = (a + a.conj().T) / 2
        k = int(rng.integers(1, dim))
        q, _ = np.linalg.qr(rng.normal(size=(dim, k))
                            + 1j * rng.normal(size=(dim, k)))
        proj = q @ q.conj().T
        t = float(rng.uniform(0.2, 3.0))
        worst = max(worst, decomposition_of_unity_residual(
            ham, proj, ZenoSchedule(t, n)))
    assert worst <= 1e-10
    report("propagator split identity", f"50 instances, worst {worst:.1e}",
           start, 5.0)


def test_03_interruption_bound_and_projector_limit():
    start = time.perf_counter()
    sys_ = TwoStateSystem(1.0)
    ham, q = sys_.hamiltonian(), sys_.projector_down()
    t = np.pi / 2
    for n in (100, 1000, 10_000, 100_000):
        z = zeno_product(ham, q, ZenoSchedule(t, n))
        deviation = 1.0 - abs(z.mat[1, 1]) ** 2
        assert deviation <= t * t / n, n
    dist = (zeno_product(ham, q, ZenoSchedule(t, 10_000)) + (-1.0) * q).norm()
    assert dist <= 1e-3
    report("interruption bound/limit", f"distance {dist:.1e} at n=10^4",
           start, 5.0)


def test_04_decoherence_entries_closed_forms():
    start = time.perf_counter()
    sys_ = TwoStateSystem(1.0)
    ham, q = sys_.hamiltonian(), sys_.projector_down()
    worst = 0.0
    for t in np.linspace(0.1, 2 * np.pi, 50):
        dm = decoherence_functional(ham, q, q, float(t), n_zeno=400_000,
                                    richardson=True)
        worst = max(worst,
                    abs(dm.d[0, 0] - 1.0),
                    abs(dm.d[1, 1] - (2.0 - 2.0 * np.cos(t))),
                    abs(dm.d[0, 1].real - (np.cos(t) - 1.0)),
                    abs(dm.d.sum() - 1.0))
    assert worst <= 1e-8
    report("decoherence closed forms", f"50-point sweep, worst {worst:.1e}",
           start, 1.0)


def test_05_wall_propagation_against_images_and_bound_state():
    start = time.perf_counter()
    wall = HalfLineSystem(L=28.0, n=2048, beta=0.0)
    w = half_packet(wall, 10.0, -0.75, 1.45, pin_wall=True)
    gap_wall = np.max(np.abs(
        restricted_propagate(w, wall, 9.0, method="eig").samples
        - restricted_propagate(w, wall, 9.0).samples))
    assert gap_wall <= 1e-4
    free_end = HalfLineSystem(L=28.0, n=2048, beta=NEUMANN)
    w = half_packet(free_end, 10.0, -0.75, 1.45)
    gap_neu = np.max(np.abs(
        restricted_propagate(w, free_end, 9.0, method="eig").samples
        - restricted_propagate(w, free_end, 9.0).samples))
    assert gap_neu <= 1e-4
    robin = HalfLineSystem(L=40.0, n=2048, beta=-1.0)
    energy = halfline_eigensystem(robin)[0][0]
    assert abs(energy - (-0.5)) <= 1e-3
    report("wall propagation vs images",
           f"sup gaps {gap_wall:.1e}/{gap_neu:.1e}, E0 {energy:.5f}",
           start, 30.0)


def test_06_line_split_ladder_and_beta_dependence():
    start = time.perf_counter()
    wall = HalfLineSystem(L=40.0, n=2048, beta=0.0)
    psi = right_packet(wall, 6.0, -1.0, 1.0)
    parts = line_pdx_ladder(psi, wall, 3.0, [100, 200, 400])
    ladder = [p.residual_norm(wall.dx) for p in parts]
    assert all(b < a for a, b in zip(ladder, ladder[1:]))
    assert ladder[-1] <= 5e-3
    free_end = HalfLineSystem(L=40.0, n=2048, beta=NEUMANN)
    cross_wall = parts[-1].crossing
    cross_neu = line_pdx_ladder(psi, free_end, 3.0, [400])[0].crossing
    diff = np.sqrt(np.sum(np.abs(cross_wall - cross_neu) ** 2) * wall.dx)
    assert diff > 1e-3
    report("line split ladder",
           f"finest {ladder[-1]:.1e}, beta difference {diff:.2f}",
           start, 120.0)


def test_07_history_consistency_by_symmetry_sector():
    start = time.perf_counter()
    grid = SpatialGrid(-40.0, 40.0, 2048)

    odd = gaussian_packet(grid, 6.0, -1.2, 1.1, parity="odd")
    horizon = reflection_safe_horizon(odd)
    assert horizon > 1.0
    for row in history_sweep(odd, 0.0, np.linspace(0.3, horizon, 8),
                             tol=1e-3):
        v = row.verdict
        assert v.p_same >= 1.0 - 1e-3
        assert abs(v.re_d12) <= 1e-4

    even = gaussian_packet(grid, 6.0, -1.2, 1.1, parity="even")
    for row in history_sweep(even, NEUMANN,
                             np.linspace(0.3, reflection_safe_horizon(even), 8),
                             tol=1e-3):
        v = row.verdict
        assert v.p_same >= 1.0 - 1e-3
        assert abs(v.re_d12) <= 1e-3

    generic = gaussian_packet(grid, -5.0, 2.0, 1.0)
    peak = max(abs(row.verdict.re_d12)
               for row in history_sweep(generic, 0.0, np.linspace(0.5, 3.0, 6)))
    assert peak > 1e-2
    report("history consistency by sector",
           f"horizon {horizon:.1f}, generic |Re d12| up to {peak:.2f}",
           start, 60.0)


def test_08_arrival_distribution_contract():
    start = time.perf_counter()
    state = gaussian_momentum_state(momentum_grid(8.0, 1024), 2.0, -10.0, 0.2)
    dist = converged_window(state)[0]
    assert dist.density.min() >= -1e-12
    mass = dist.captured_mass()
    assert abs(mass - 1.0) <= 1e-3
    mean = arrival_moments(dist, 1)
    assert abs(mean - 5.0) <= 0.2

    shift = 1.7
    shifted = MomentumState(state.p,
                            state.psi * np.exp(-1j * state.p ** 2 * shift / 2))
    t_grid = np.linspace(2.0, 8.0, 601)
    covariance = np.max(np.abs(kijowski_density(shifted, t_grid).density
                               - kijowski_density(state, t_grid + shift).density))
    assert covariance <= 1e-8

    quasi = gaussian_momentum_state(momentum_grid(12.0, 1024), 5.0, -10.0, 0.25)
    dq = converged_window(quasi)[0]
    l1 = flux_l1_distance(dq, current_density_at_origin(quasi, dq.t))
    assert l1 <= 0.05
    report("arrival distribution",
           f"mean {mean:.3f}, covariance {covariance:.1e}, L1 {l1:.4f}",
           start, 30.0)


def test_09_conjugate_time_obstruction():
    start = time.perf_counter()
    rep = conjugate_time_no_go(TwoStateSystem(1.0).hamiltonian())
    assert rep.trace_target == 2j
    assert rep.max_abs_trace_commutator <= 1e-12
    assert rep.spectral_floor == 1.0
    assert rep.min_defect_spectral >= rep.spectral_floor - 1e-9
    assert rep.min_defect_frobenius >= rep.frobenius_floor - 1e-9
    report("conjugate-time obstruction",
           f"{rep.trials} trials, spectral defect ≥ "
           f"{rep.min_defect_spectral:.6f}", start, 1.0)


def test_10_cli_byte_determinism(tmp_path):
    start = time.perf_counter()
    cases = {
        "twostate": ("--n-zeno", "20000"),
        "zeno-converge": ("--n-list", "1,10,100"),
        "pdx-verify": (),
        "histories": ("--n-t", "3", "--n-grid", "1024", "--length", "30"),
        "arrival": (),
    }
    for command, extra in cases.items():
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}-{tag}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "zenopath", command, *extra,
                 "--out", str(out)],
                capture_output=True, text=True, env=child_env())
            assert proc.returncode == 0, (command, proc.stderr)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], command
    report("CLI byte determinism", f"{len(cases)} commands, two runs each",
           start, 60.0)


def test_11_intertwined_robin_walls_against_eigensystem():
    start = time.perf_counter()
    worst_gap = worst_drift = 0.0
    worst_ratio = np.inf
    for beta in (-1.5, -0.4, 0.7, 13.0):
        gaps = []
        for n in (1024, 2048):
            wall = HalfLineSystem(L=28.0, n=n, beta=beta)
            w = half_packet(wall, 10.0, -0.75, 1.45)
            fast = restricted_propagate(w, wall, 9.0, method="intertwine")
            oracle = restricted_propagate(w, wall, 9.0, method="eig")
            gaps.append(np.max(np.abs(fast.samples - oracle.samples)))
        # the gap is the eigensystem route's dx² dispersion error
        assert gaps[1] <= 2.5e-4, beta
        assert gaps[0] / gaps[1] >= 3.5, beta
        drift = abs(halfline_norm(fast.samples, wall) - 1.0)
        assert drift <= 1e-5, beta
        worst_gap = max(worst_gap, gaps[1])
        worst_ratio = min(worst_ratio, gaps[0] / gaps[1])
        worst_drift = max(worst_drift, drift)
    report("intertwined Robin walls vs eigensystem",
           f"sup gap {worst_gap:.1e}, refinement ratio >= {worst_ratio:.1f}, "
           f"norm drift {worst_drift:.1e}", start, 30.0)
