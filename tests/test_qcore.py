"""Tests for the finite-dimensional kernel.

Derived expectations are produced by routes independent of the implementation:
scipy's Padé matrix exponential for evolution, explicit Heisenberg-projector
chains for telescoped products, central differences for the projector
velocity, and parametric scans for the conjugate-operator obstruction.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from zenopath.qcore import (
    DomainError,
    Operator,
    TwoStateSystem,
    ZenoSchedule,
    conjugate_time_no_go,
    decoherence_functional,
    decomposition_of_unity_residual,
    evolve,
    pdot,
    pdx_assemble,
    restricted_limit,
    zeno_limit_richardson,
    zeno_product,
)


def random_hermitian(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (a + a.conj().T)


def random_projector(rng, dim, rank):
    """Orthogonal projector onto a random rank-dimensional subspace."""
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    q, _ = np.linalg.qr(a)
    return q @ q.conj().T


def op_norm(m):
    return np.linalg.norm(np.asarray(m, dtype=complex), 2)


def unitary_defect(m):
    """‖U†U - 1‖, zero for a unitary U."""
    return op_norm(m.conj().T @ m - np.eye(m.shape[0]))


class TestOperator:
    def test_predicates(self):
        rng = np.random.default_rng(7)
        h = Operator(random_hermitian(rng, 4))
        assert h.is_hermitian()
        assert unitary_defect(h.mat) > 1e-10
        p = Operator(random_projector(rng, 4, 2))
        assert p.is_projector()
        u = evolve(h, 0.7)
        assert unitary_defect(u.mat) <= 1e-10
        assert not u.is_projector()

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Operator(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Operator(np.array([[np.nan, 0], [0, 1]]))

    def test_algebra(self):
        a = Operator(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Operator(np.eye(2))
        assert op_norm((a @ b).mat - a.mat) == 0
        assert op_norm((a + (-1.0) * a).mat) == 0
        assert op_norm((2.0 * a - a).mat - a.mat) == 0


class TestEvolve:
    def test_two_state_closed_form(self):
        # U(t) = [[cos wt, -i sin wt], [-i sin wt, cos wt]]
        sys = TwoStateSystem(omega=1.3)
        for t in (0.0, 0.4, np.pi / 2, 2.0):
            u = evolve(sys.hamiltonian(), t)
            assert op_norm(u.mat - sys.unitary(t).mat) < 1e-12

    def test_identity_at_t_zero(self):
        rng = np.random.default_rng(0)
        h = random_hermitian(rng, 5)
        assert op_norm(evolve(h, 0.0).mat - np.eye(5)) < 1e-14

    def test_against_pade_exponential(self):
        # Independent oracle: scipy scaling-and-squaring expm.
        rng = np.random.default_rng(1)
        for dim in (2, 3, 6):
            h = random_hermitian(rng, dim)
            t = float(rng.uniform(0.1, 3.0))
            expected = scipy.linalg.expm(-1j * h * t)
            assert op_norm(evolve(h, t).mat - expected) < 1e-11

    def test_unitary_for_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            u = evolve(random_hermitian(rng, dim), float(rng.uniform(0, 10)))
            assert unitary_defect(u.mat) <= 1e-12

    # every entry point takes H through the one hermiticity rule; for
    # restricted_limit the defect sits outside the QHQ block, which the
    # symmetrised generator alone would never see
    @pytest.mark.parametrize("call", [
        lambda h, p, q: evolve(h, 1.0),
        lambda h, p, q: pdx_assemble(h, p, 1.0, n_zeno=4, n_quad=3),
        lambda h, p, q: restricted_limit(h, q, 1.0),
        lambda h, p, q: decoherence_functional(h, q, q, 1.0, n_zeno=4),
        lambda h, p, q: conjugate_time_no_go(h, trials=1),
    ], ids=["evolve", "pdx_assemble", "restricted_limit",
            "decoherence_functional", "conjugate_time_no_go"])
    def test_rejects_non_hermitian(self, call):
        p = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(DomainError, match="not hermitian"):
            call(np.array([[0.0, 1.0], [0.0, 0.0]]), p, np.eye(2) - p)

    # one time rule: t finite everywhere, and >= 0 where it is a duration
    @pytest.mark.parametrize("call, nonnegative", [
        (lambda h, p, q, t: evolve(h, t), False),
        (lambda h, p, q, t: restricted_limit(h, q, t), False),
        (lambda h, p, q, t: ZenoSchedule(t, 3), True),
        (lambda h, p, q, t: pdx_assemble(h, p, t, n_zeno=4, n_quad=3), True),
    ], ids=["evolve", "restricted_limit", "ZenoSchedule", "pdx_assemble"])
    def test_rejects_non_finite_time(self, call, nonnegative):
        sys = TwoStateSystem(omega=1.0)
        args = sys.hamiltonian(), sys.projector_up(), sys.projector_down()
        for t in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="t must be finite"):
                call(*args, t)
        if nonnegative:
            with pytest.raises(ValueError, match="t must be finite and >= 0"):
                call(*args, -1.0)
        else:
            call(*args, -1.0)           # backward evolution stays allowed

class TestDecompositionOfUnity:
    def test_two_state(self):
        sys = TwoStateSystem(omega=1.0)
        r = decomposition_of_unity_residual(
            sys.hamiltonian(), sys.projector_up(), ZenoSchedule(1.7, 3))
        assert r < 1e-12

    def test_single_interval(self):
        sys = TwoStateSystem(omega=0.9)
        r = decomposition_of_unity_residual(
            sys.hamiltonian(), sys.projector_up(), ZenoSchedule(0.8, 1))
        assert r < 1e-13

    def test_random_instance(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, 5)
        p = random_projector(rng, 5, 2)
        r = decomposition_of_unity_residual(h, p, ZenoSchedule(2.0, 10))
        assert r < 1e-10

    def test_exact_for_any_interval_count(self):
        # The sum telescopes: no n-dependence of the residual beyond roundoff.
        rng = np.random.default_rng(12)
        h = random_hermitian(rng, 4)
        p = random_projector(rng, 4, 1)
        for n in (1, 2, 7, 20):
            assert decomposition_of_unity_residual(h, p, ZenoSchedule(1.3, n)) < 1e-11

    def test_rejects_non_projector(self):
        rng = np.random.default_rng(13)
        h = random_hermitian(rng, 3)
        with pytest.raises(DomainError):
            decomposition_of_unity_residual(h, h, ZenoSchedule(1.0, 2))


class TestZenoProduct:
    def test_two_state_half_survival(self):
        # cos^2(pi/4) = 1/2 exactly.
        sys = TwoStateSystem(omega=1.0)
        z = zeno_product(sys.hamiltonian(), sys.projector_down(),
                         ZenoSchedule(np.pi / 2, 2))
        assert op_norm(z.mat - 0.5 * sys.projector_down().mat) < 1e-14

    def test_two_state_closed_form_any_n(self):
        sys = TwoStateSystem(omega=0.7)
        t = 1.9
        for n in (1, 3, 10, 137):
            z = zeno_product(sys.hamiltonian(), sys.projector_down(),
                             ZenoSchedule(t, n))
            expected = np.cos(sys.omega * t / n) ** n * sys.projector_down().mat
            assert op_norm(z.mat - expected) < 1e-13

    def test_degenerate_schedule_returns_projector(self):
        sys = TwoStateSystem(omega=1.0)
        z = zeno_product(sys.hamiltonian(), sys.projector_down(), ZenoSchedule(0.0, 0))
        assert op_norm(z.mat - sys.projector_down().mat) == 0

    def test_approaches_projector(self):
        sys = TwoStateSystem(omega=1.0)
        z = zeno_product(sys.hamiltonian(), sys.projector_down(),
                         ZenoSchedule(np.pi / 2, 10_000))
        assert op_norm(z.mat - sys.projector_down().mat) <= 1e-3

    def test_freeze_error_bound(self):
        # 1 - survival <= (wt)^2 / n once n is large.
        sys = TwoStateSystem(omega=1.0)
        t = np.pi / 2
        for n in (100, 1000, 10_000, 100_000):
            z = zeno_product(sys.hamiltonian(), sys.projector_down(),
                             ZenoSchedule(t, n))
            survival = abs(z.mat[1, 1]) ** 2
            assert 1.0 - survival <= t * t / n
            assert abs(survival - sys.zeno_survival(n, t)) < 1e-10

    def test_commuting_case_is_exact(self):
        # [H, Q] = 0 makes every finite product equal U(t) Q.
        h = np.diag([0.3, -0.2, 1.1, 0.0]).astype(complex)
        q = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        for n in (1, 4, 50):
            z = zeno_product(h, q, ZenoSchedule(2.2, n))
            expected = evolve(h, 2.2).mat @ q
            assert op_norm(z.mat - expected) < 1e-12

    def test_telescoping_matches_direct_chain(self):
        # Direct oracle: U(t_n) Q(t_n) Q(t_{n-1}) ... Q(t_1) Q with
        # Q(s) = U†(s) Q U(s), built one Heisenberg projector at a time.
        rng = np.random.default_rng(21)
        for dim in (2, 4, 6):
            h = random_hermitian(rng, dim)
            q = random_projector(rng, dim, dim // 2)
            sched = ZenoSchedule(1.4, 6)
            chain = q.copy()
            for tk in sched.times[1:]:
                u = scipy.linalg.expm(-1j * h * tk)
                chain = (u.conj().T @ q @ u) @ chain
            direct = scipy.linalg.expm(-1j * h * sched.t) @ chain
            z = zeno_product(h, q, sched)
            assert op_norm(z.mat - direct) < 1e-10

    def test_converges_to_generator_form(self):
        rng = np.random.default_rng(22)
        h = random_hermitian(rng, 4)
        q = random_projector(rng, 4, 2)
        lim = restricted_limit(h, q, 1.0)
        errs = [op_norm(zeno_product(h, q, ZenoSchedule(1.0, n)).mat - lim.mat)
                for n in (64, 128, 256, 512)]
        for a, b in zip(errs, errs[1:]):
            assert b < 0.75 * a
        # O(1/n): doubling n roughly halves the error.
        assert errs[-1] < 2.5 * errs[0] / 8

    def test_richardson_accelerates(self):
        rng = np.random.default_rng(23)
        h = random_hermitian(rng, 4)
        q = random_projector(rng, 4, 2)
        lim = restricted_limit(h, q, 1.0)
        plain = op_norm(zeno_product(h, q, ZenoSchedule(1.0, 256)).mat - lim.mat)
        accel = op_norm(zeno_limit_richardson(h, q, 1.0, 256).mat - lim.mat)
        assert accel < 0.2 * plain


class TestPdot:
    def test_two_state_closed_form(self):
        sys = TwoStateSystem(omega=2.5)
        d = pdot(sys.hamiltonian(), sys.projector_up())
        # Ṗ = (i/ħ)[H, P] = ω·[[0, -i], [i, 0]] for P = up
        closed = 2.5 * np.array([[0.0, -1j], [1j, 0.0]])
        assert op_norm(d.mat - closed) < 1e-13

    def test_commuting_gives_zero(self):
        h = np.diag([1.0, 2.0, 3.0]).astype(complex)
        p = np.diag([1.0, 0.0, 0.0]).astype(complex)
        assert op_norm(pdot(h, p).mat) == 0

    def test_finite_difference_oracle(self):
        # d/dt U†(t) P U(t) at t = 0 by central differences.
        rng = np.random.default_rng(31)
        h = random_hermitian(rng, 5)
        p = random_projector(rng, 5, 2)
        eps = 1e-5
        up = scipy.linalg.expm(-1j * h * eps)
        um = scipy.linalg.expm(1j * h * eps)
        fd = (up.conj().T @ p @ up - um.conj().T @ p @ um) / (2 * eps)
        assert op_norm(pdot(h, p).mat - fd) < 1e-8

    def test_result_hermitian(self):
        rng = np.random.default_rng(32)
        h = random_hermitian(rng, 4)
        p = random_projector(rng, 4, 2)
        assert pdot(h, p).is_hermitian(1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pdot(np.eye(2), np.eye(3))


def pdx_reference(h, p, t, n_zeno, n_quad, ur="zeno"):
    """Crossing and restricted terms with U_r(s_j) rebuilt at every node.

    Node j of N = n_quad - 1 takes m_j = ⌊n_zeno·j/N⌋ whole slices of width
    t/n_zeno and, for a non-zero remainder r_j, one partial slice of width
    t·r_j/(n_zeno·N) applied last; ur="limit" takes Q exp(-i QHQ s_j) Q.
    Every exponential is scipy's Padé expm, and the Simpson sum is direct.
    """
    q = np.eye(h.shape[0]) - p
    pd = 1j * (h @ p - p @ h)
    n_int = n_quad - 1
    step = scipy.linalg.expm(-1j * h * (t / n_zeno)) @ q

    def u_r(j):
        if ur == "limit":
            return q @ scipy.linalg.expm(-1j * (q @ h @ q) * (t * j / n_int)) @ q
        m, rem = divmod(n_zeno * j, n_int)
        out = q @ np.linalg.matrix_power(step, m)
        if rem:
            part = scipy.linalg.expm(-1j * h * (t * rem / (n_zeno * n_int)))
            out = q @ part @ out
        return out

    w = np.ones(n_quad)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= t / n_int / 3.0
    crossing = sum(w[j] * scipy.linalg.expm(-1j * h * (t * (n_int - j) / n_int))
                   @ pd @ u_r(j) for j in range(n_quad))
    return crossing, u_r(n_int)


class TestPdxAssemble:
    def test_two_state_boundary_exact(self):
        sys = TwoStateSystem(omega=1.0)
        for t in (0.3, np.pi / 2, 2.0):
            terms = pdx_assemble(sys.hamiltonian(), sys.projector_up(), t,
                                 n_zeno=100, n_quad=21)
            assert op_norm(terms.boundary.mat - sys.boundary_closed(t).mat) < 1e-12

    def test_two_state_crossing_elements(self):
        # <up|X|down> = -i sin wt and <down|X|down> = cos wt - 1 at 1e-6.
        sys = TwoStateSystem(omega=1.0)
        for t in (0.3, np.pi / 2, 2.0):
            terms = pdx_assemble(sys.hamiltonian(), sys.projector_up(), t,
                                 n_zeno=10_000_000, n_quad=201)
            x = terms.crossing.mat
            assert abs(x[0, 1] - (-1j * np.sin(t))) < 1e-6
            assert abs(x[1, 1] - (np.cos(t) - 1.0)) < 1e-6
            assert abs(x[0, 0]) < 1e-6 and abs(x[1, 0]) < 1e-6

    def test_two_state_identity_residual(self):
        sys = TwoStateSystem(omega=1.0)
        t = 2.0
        terms = pdx_assemble(sys.hamiltonian(), sys.projector_up(), t,
                             n_zeno=10_000_000, n_quad=201)
        assert op_norm(terms.total.mat - sys.unitary(t).mat) < 1e-6

    def test_quadrature_order(self):
        # Simpson: fitted convergence order in n_quad at least 3.5.
        sys = TwoStateSystem(omega=1.0)
        t = np.pi / 2
        h, p = sys.hamiltonian(), sys.projector_up()
        errs, hs = [], []
        for n_quad in (11, 21, 41, 81):
            terms = pdx_assemble(h, p, t, n_zeno=1, n_quad=n_quad, ur="limit")
            errs.append(op_norm(terms.total.mat - sys.unitary(t).mat))
            hs.append(t / (n_quad - 1))
        order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert order >= 3.5

    def test_residual_decreases_with_zeno_refinement(self):
        sys = TwoStateSystem(omega=1.0)
        t = 2.0
        res = []
        for n_zeno in (10, 100, 1000):
            terms = pdx_assemble(sys.hamiltonian(), sys.projector_up(), t,
                                 n_zeno=n_zeno, n_quad=201)
            res.append(op_norm(terms.total.mat - sys.unitary(t).mat))
        assert res[0] > res[1] > res[2]

    def test_limit_mode_matches_fine_zeno(self):
        rng = np.random.default_rng(41)
        h = random_hermitian(rng, 4)
        p = random_projector(rng, 4, 2)
        a = pdx_assemble(h, p, 1.0, n_zeno=200_000, n_quad=101)
        b = pdx_assemble(h, p, 1.0, n_zeno=1, n_quad=101, ur="limit")
        assert op_norm(a.crossing.mat - b.crossing.mat) < 1e-4

    def test_unitarity_split_on_restricted_subspace(self):
        # For psi in ran Q the boundary term drops and the remaining two
        # terms must reassemble a unit-norm vector.
        sys = TwoStateSystem(omega=1.0)
        t = 1.1
        terms = pdx_assemble(sys.hamiltonian(), sys.projector_up(), t,
                             n_zeno=1_000_000, n_quad=201)
        psi = np.array([0.0, 1.0], dtype=complex)
        out = (terms.crossing.mat + terms.restricted.mat) @ psi
        assert abs(np.linalg.norm(out) - 1.0) < 1e-6

        rng = np.random.default_rng(42)
        h = random_hermitian(rng, 4)
        p = random_projector(rng, 4, 2)
        q = np.eye(4) - p
        terms = pdx_assemble(h, p, 1.0, n_zeno=1_000_000, n_quad=401)
        v = q @ (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        v /= np.linalg.norm(v)
        out = (terms.crossing.mat + terms.restricted.mat) @ v
        assert abs(np.linalg.norm(out) - 1.0) < 1e-4

    # the lattice route against node-by-node products: slices fewer than,
    # a multiple of, and not a multiple of the quadrature intervals
    @pytest.mark.parametrize("n_zeno, n_quad", [(10_000, 201), (333, 21),
                                                (10, 201), (7, 5)])
    def test_matches_per_node_reference(self, n_zeno, n_quad):
        rng = np.random.default_rng(43)
        h = random_hermitian(rng, 4)
        p = random_projector(rng, 4, 2)
        t = 1.3
        terms = pdx_assemble(h, p, t, n_zeno=n_zeno, n_quad=n_quad)
        crossing, restricted = pdx_reference(h, p, t, n_zeno, n_quad)
        assert op_norm(terms.crossing.mat - crossing) < 1e-10
        assert op_norm(terms.restricted.mat - restricted) < 1e-10

    def test_limit_mode_matches_per_node_generator(self):
        rng = np.random.default_rng(44)
        h = random_hermitian(rng, 4)
        p = random_projector(rng, 4, 2)
        terms = pdx_assemble(h, p, 1.3, n_zeno=1, n_quad=201, ur="limit")
        crossing, restricted = pdx_reference(h, p, 1.3, 1, 201, ur="limit")
        assert op_norm(terms.crossing.mat - crossing) < 1e-12
        assert op_norm(terms.restricted.mat - restricted) < 1e-12

    def test_restricted_term_takes_exactly_n_zeno_slices(self):
        # a float ceil(n·t/t) can round up to n + 1 slices; the integer
        # lattice cannot
        t = next(t for t in np.linspace(0.1, 3.0, 2000)
                 if math.ceil(7 * t / t) != 7)
        sys = TwoStateSystem(omega=1.0)
        terms = pdx_assemble(sys.hamiltonian(), sys.projector_up(), t,
                             n_zeno=7, n_quad=5)
        z = zeno_product(sys.hamiltonian(), sys.projector_down(),
                         ZenoSchedule(t, 7))
        assert op_norm(terms.restricted.mat - z.mat) < 1e-12

    @pytest.mark.parametrize("ur", ["zeno", "limit"])
    def test_zero_time(self, ur):
        rng = np.random.default_rng(45)
        h = random_hermitian(rng, 4)
        p = random_projector(rng, 4, 2)
        terms = pdx_assemble(h, p, 0.0, n_zeno=100, n_quad=21, ur=ur)
        assert op_norm(terms.crossing.mat) == 0.0
        assert op_norm(terms.restricted.mat - (np.eye(4) - p)) < 1e-12

    def test_bad_quadrature_arguments(self):
        sys = TwoStateSystem(omega=1.0)
        with pytest.raises(ValueError):
            pdx_assemble(sys.hamiltonian(), sys.projector_up(), 1.0,
                         n_zeno=10, n_quad=1)
        with pytest.raises(ValueError):
            pdx_assemble(sys.hamiltonian(), sys.projector_up(), 1.0,
                         n_zeno=10, n_quad=100)


class TestDecoherenceFunctional:
    # Plain products cannot beat the n·eps float drift, so the deep-limit
    # comparisons run through the 1/n Richardson extrapolant.
    N_DEEP = 400_000

    def test_two_state_closed_forms(self):
        sys = TwoStateSystem(omega=1.0)
        for t in np.linspace(0.0, 2 * np.pi, 23):
            d = decoherence_functional(sys.hamiltonian(), sys.projector_down(),
                                       np.diag([0.0, 1.0]), t, self.N_DEEP,
                                       richardson=True)
            d11, d22, d12 = sys.decoherence_closed(t)
            assert abs(d.d11 - d11) < 1e-8
            assert abs(d.d22 - d22) < 1e-8
            assert abs(d.d12.real - d12.real) < 1e-8

    def test_strong_inconsistency_at_quarter_period(self):
        sys = TwoStateSystem(omega=1.0)
        d = decoherence_functional(sys.hamiltonian(), sys.projector_down(),
                                   np.diag([0.0, 1.0]), np.pi / 2, self.N_DEEP,
                                   richardson=True)
        assert abs(d.d11 - 1.0) < 1e-8
        assert abs(d.d22 - 2.0) < 1e-8
        assert abs(d.d12.real + 1.0) < 1e-8
        assert not d.is_consistent()

    def test_revival_is_consistent(self):
        sys = TwoStateSystem(omega=1.0)
        d = decoherence_functional(sys.hamiltonian(), sys.projector_down(),
                                   np.diag([0.0, 1.0]), 2 * np.pi, self.N_DEEP,
                                   richardson=True)
        assert abs(d.d22) < 1e-8
        assert d.is_consistent(1e-6)

    def test_sum_rule_and_structure(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            dim = int(rng.integers(2, 7))
            h = random_hermitian(rng, dim)
            q = random_projector(rng, dim, int(rng.integers(1, dim)))
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            d = decoherence_functional(h, q, rho, float(rng.uniform(0.1, 3.0)),
                                       n_zeno=64)
            assert abs(d.total() - 1.0) < 1e-9
            assert d.is_hermitian(1e-10)
            assert d.d11 >= -1e-10 and d.d22 >= -1e-10

    def test_commuting_monitor_is_consistent(self):
        h = np.diag([0.5, -0.5]).astype(complex)
        q = np.diag([0.0, 1.0]).astype(complex)
        d = decoherence_functional(h, q, np.diag([0.0, 1.0]), 1.3, n_zeno=16)
        assert abs(d.d12) < 1e-12
        assert d.is_consistent()

    def test_rejects_bad_density_matrix(self):
        sys = TwoStateSystem(omega=1.0)
        with pytest.raises(DomainError):
            decoherence_functional(sys.hamiltonian(), sys.projector_down(),
                                   np.diag([1.0, 1.0]), 1.0, 8)

    def test_class_operator_matches_projector_chain(self):
        # C1 = U†(t)·[Zeno product] equals the bare Heisenberg chain
        # Q(t_n) Q(t_{n-1}) ... Q(t_1) Q.
        rng = np.random.default_rng(52)
        h = random_hermitian(rng, 5)
        q = random_projector(rng, 5, 3)
        sched = ZenoSchedule(1.2, 9)
        chain = q.copy()
        for tk in sched.times[1:]:
            u = scipy.linalg.expm(-1j * h * tk)
            chain = (u.conj().T @ q @ u) @ chain
        u_t = scipy.linalg.expm(-1j * h * sched.t)
        c1 = u_t.conj().T @ zeno_product(h, q, sched).mat
        assert op_norm(c1 - chain) < 1e-9


class TestConjugateTimeNoGo:
    def test_trace_obstruction(self):
        # tr [H, T] = 0 always, while iħ·1 needs trace 2iħ in dim 2.
        sys = TwoStateSystem(omega=1.0)
        rep = conjugate_time_no_go(sys.hamiltonian(), trials=1000, rng_seed=42)
        assert rep.max_abs_trace_commutator < 1e-12 * rep.trials
        assert rep.trace_target == 2j

    def test_observed_minima_respect_floors(self):
        sys = TwoStateSystem(omega=1.0)
        rep = conjugate_time_no_go(sys.hamiltonian(), trials=1000, rng_seed=42)
        assert rep.min_defect_spectral >= rep.spectral_floor - 1e-12
        assert rep.min_defect_frobenius >= rep.frobenius_floor - 1e-12

    def test_parametric_family_minimum(self):
        # Exhaustive oracle over T = a·1 + b·sigma: the commutator depends
        # only on (b2, b3) and the defect is minimised at b2 = b3 = 0 where
        # it equals ħ (spectral) and ħ·sqrt(2) (Frobenius).
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        h = sx  # omega = hbar = 1
        target = 1j * np.eye(2)
        b2s = np.linspace(-2, 2, 81)
        b3s = np.linspace(-2, 2, 81)
        best = np.inf
        best_fro = np.inf
        argmin = None
        for b2 in b2s:
            for b3 in b3s:
                t_op = b2 * sy + b3 * sz
                defect = (h @ t_op - t_op @ h) - target
                s = np.linalg.norm(defect, 2)
                if s < best:
                    best, argmin = s, (b2, b3)
                best_fro = min(best_fro, np.linalg.norm(defect, "fro"))
        assert abs(best - 1.0) < 1e-9
        assert abs(best_fro - np.sqrt(2.0)) < 1e-9
        assert abs(argmin[0]) < 1e-9 and abs(argmin[1]) < 1e-9

    def test_floors_scale_with_dimension(self):
        rng = np.random.default_rng(61)
        for dim in (2, 3, 4, 6):
            h = random_hermitian(rng, dim)
            rep = conjugate_time_no_go(h, trials=200, rng_seed=1)
            assert rep.frobenius_floor == pytest.approx(np.sqrt(dim))
            assert rep.min_defect_frobenius >= rep.frobenius_floor - 1e-12

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            conjugate_time_no_go(np.eye(2), trials=0)


class TestSchedule:
    def test_times_layout(self):
        s = ZenoSchedule(2.0, 4)
        assert np.allclose(s.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert s.dt == 0.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ZenoSchedule(-1.0, 3)
        with pytest.raises(ValueError):
            ZenoSchedule(1.0, -1)


def _exported_parameters() -> list[tuple[str, str]]:
    """(where, name) for every parameter of every callable, method and
    dataclass field that zenopath exports."""
    import dataclasses
    import inspect

    import zenopath

    params = []
    for name in dir(zenopath):
        obj = getattr(zenopath, name)
        if name.startswith("_") or not callable(obj):
            continue
        funcs = [obj]
        if inspect.isclass(obj):
            funcs = [getattr(v, "__func__", v) for v in vars(obj).values()]
            funcs = [f for f in funcs if inspect.isfunction(f)]
            if dataclasses.is_dataclass(obj):
                params += [(name, f.name) for f in dataclasses.fields(obj)]
        for f in funcs:
            params += [(f"{name}.{f.__name__}", p)
                       for p in inspect.signature(f).parameters]
    assert len(params) > 100
    return params


def test_natural_units_only():
    """ħ = m = 1 throughout: no callable, method or dataclass field that
    zenopath exports takes a parameter named hbar or mass."""
    assert [(where, p) for where, p in _exported_parameters()
            if p in ("hbar", "mass")] == []


def test_retired_names_stay_retired():
    """Values every production path leaves at one setting are module
    constants, and states have one (position) representation: no exported
    callable, method or dataclass field takes these names.  LinePdxParts
    reports the k_cut each rung chose; it is a result, not a setting."""
    import zenopath
    from zenopath import halfline

    retired = {"representation", "reverse", "k_cut", "margin", "tail",
               "max_rounds", "labels", "label_same", "label_cross",
               "quad_points"}
    found = [(where, p) for where, p in _exported_parameters()
             if p in retired
             and (where.split(".")[0], p) != ("LinePdxParts", "k_cut")]
    assert found == []
    for module in (zenopath, halfline):
        assert not hasattr(module, "to_momentum")
        assert not hasattr(module, "to_position")
