"""Tests for the line / half-line module.

Oracles used here:
  * closed-form freely spreading Gaussian (complex Gaussian integral done
    by hand, frozen below as gauss_exact)
  * closed-form momentum-space Gaussian for the transform
  * discrete dispersion 2κ(1-cos kΔx) for the tridiagonal eigenvalues
  * continuum Robin results: box levels (mπ/L)²/2, bound state e^{x/β} at
    E=-ħ²/2mβ², Neumann cosine ground profile
  * method-of-images propagation as an independent route to U_r for the
    two parity walls
  * the eigensystem route as the oracle for the intertwined route at
    finite β, with a plain loop as the reference for its linear scan
  * parity identities making the crossing term computable exactly from two
    full-line spectral evolutions (odd state at the hard wall, even state
    at the reflecting wall)
  * a per-rung line split with the full 2n-column phase table as the
    oracle for the one-pass ladder (half spectrum, strided nested rungs)
"""

import numpy as np
import pytest

from zenopath.halfline import (
    NEUMANN,
    GaussianPacket,
    HalfLineSystem,
    LinePdxParts,
    SpatialGrid,
    WaveFunction,
    build_halfline_hamiltonian,
    free_kernel,
    gaussian_packet,
    grid_zeno_product,
    halfline_eigensystem,
    halfline_norm,
    image_method_propagate,
    line_pdx_ladder,
    line_pdx_residual,
    line_pdx_terms,
    phq_nonzero_check,
    production_route,
    restricted_propagate,
    spectral_evolve_line,
    to_momentum,
    to_position,
    wall_flux,
)
from zenopath import halfline
from zenopath.halfline import _line_pdx_parts, _linear_scan, _wall_probe
from zenopath.qcore import DomainError, simpson_weights


def gauss_exact(x, t, x0, p0, sigma, m=1.0, hbar=1.0):
    """Exact free evolution of (2πσ²)^(-1/4) exp(-(x-x₀)²/4σ² + ip₀(x-x₀)/ħ)."""
    a = sigma ** 2 + 1j * hbar * t / (2 * m)
    b = 1j * (x - x0 - p0 * t / m)
    return ((2 * np.pi) ** -0.5) * ((2 * sigma ** 2 / np.pi) ** 0.25) \
        * np.sqrt(np.pi / a) \
        * np.exp(b ** 2 / (4 * a) + 1j * p0 * (x - x0) / hbar
                 - 1j * p0 ** 2 * t / (2 * m * hbar))


def right_packet(sys, x0, p0, sigma):
    """Normalized Gaussian on the full grid with the x<0 samples zeroed."""
    g = sys.full_grid()
    x = g.x
    h = np.exp(-((x - x0) ** 2) / (4 * sigma ** 2) + 1j * p0 * x)
    h[x < 0] = 0.0
    return WaveFunction(g, h).normalized()


def half_packet(sys, x0, p0, sigma, pin_wall=False):
    x = sys.x
    h = np.exp(-((x - x0) ** 2) / (4 * sigma ** 2) + 1j * p0 * x)
    if pin_wall:
        h[0] = 0.0
    h = h / halfline_norm(h, sys)
    return WaveFunction(sys.half_grid(), h)


class TestSpatialGrid:
    def test_spacing_and_nodes(self):
        g = SpatialGrid(-2.0, 2.0, 16)
        assert g.dx == pytest.approx(0.25)
        assert g.x[0] == pytest.approx(-2.0)
        assert g.x[-1] == pytest.approx(2.0 - 0.25)
        # wavenumbers in FFT order: fundamental 2π/(x_max - x_min), Nyquist
        assert g.k[1] == pytest.approx(2 * np.pi / 4.0)
        assert g.k[8] == pytest.approx(-np.pi / 0.25)

    def test_symmetric_detection(self):
        assert SpatialGrid(-3.0, 3.0, 64).is_symmetric()
        assert not SpatialGrid(-3.0, 3.1, 64).is_symmetric()
        assert not SpatialGrid(-3.0, 3.0, 63).is_symmetric()
        assert not SpatialGrid(0.0, 3.0, 64).is_symmetric()

    def test_validation(self):
        with pytest.raises(ValueError):
            SpatialGrid(1.0, 1.0, 64)
        with pytest.raises(ValueError):
            SpatialGrid(0.0, 1.0, 4)
        for x_min, x_max in ((-np.inf, np.inf), (0.0, np.inf), (np.nan, 1.0)):
            with pytest.raises(ValueError, match="grid endpoints must be finite"):
                SpatialGrid(x_min, x_max, 64)


class TestWaveFunction:
    def test_norm_and_normalize(self):
        g = SpatialGrid(-10, 10, 256)
        w = WaveFunction(g, np.ones(256))
        assert w.norm() == pytest.approx(np.sqrt(20.0))
        assert w.normalized().norm() == pytest.approx(1.0, abs=1e-12)

    def test_inner_product(self):
        g = SpatialGrid(-10, 10, 512)
        a = gaussian_packet(g, -1.0, 0.5, 1.0)
        assert a.inner(a) == pytest.approx(1.0, abs=1e-10)

    def test_validation(self):
        g = SpatialGrid(-1, 1, 8)
        with pytest.raises(ValueError):
            WaveFunction(g, np.zeros(9))
        with pytest.raises(ValueError):
            WaveFunction(g, np.zeros(8), representation="spin")
        with pytest.raises(DomainError):
            WaveFunction(g, np.zeros(8)).normalized()

    def test_inner_needs_matching_grid(self):
        a = WaveFunction(SpatialGrid(-1, 1, 8), np.ones(8))
        b = WaveFunction(SpatialGrid(-2, 2, 8), np.ones(8))
        with pytest.raises(ValueError):
            a.inner(b)


class TestGaussianPacket:
    def test_normalized_on_build(self):
        g = SpatialGrid(-30, 30, 1024)
        w = GaussianPacket(2.0, -1.0, 1.5).build(g)
        assert w.norm() == pytest.approx(1.0, abs=1e-12)

    def test_even_odd_symmetry(self):
        g = SpatialGrid(-30, 30, 1024)
        ev = gaussian_packet(g, 3.0, 0.7, 1.2, parity="even")
        od = gaussian_packet(g, 3.0, 0.7, 1.2, parity="odd")
        idx = (-np.arange(1024)) % 1024
        np.testing.assert_allclose(ev.samples, ev.samples[idx], atol=1e-13)
        np.testing.assert_allclose(od.samples, -od.samples[idx], atol=1e-13)
        assert abs(od.samples[512]) < 1e-14   # node at x=0
        assert ev.norm() == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianPacket(0.0, 0.0, -1.0)
        for args, name in (((np.nan, 0.0, 1.0), "x0"), ((0.0, np.inf, 1.0), "p0"),
                           ((0.0, 0.0, np.nan), "sigma"),
                           ((0.0, 0.0, np.inf), "sigma")):
            with pytest.raises(ValueError, match=name):
                GaussianPacket(*args)
        with pytest.raises(ValueError, match="non-finite"):
            WaveFunction(SpatialGrid(0.0, 30, 64), np.full(64, np.nan)).normalized()
        with pytest.raises(ValueError):
            GaussianPacket(0.0, 0.0, 1.0, parity="sideways")
        g = SpatialGrid(0.0, 30, 1024)
        with pytest.raises(ValueError):
            gaussian_packet(g, 3.0, 0.0, 1.0, parity="odd")


class TestFreeKernel:
    def test_prefactor_modulus(self):
        # |g(x,x,t)| = sqrt(m/2πħt)
        for t in (0.5, 2.0):
            assert abs(free_kernel(1.3, 1.3, t)) == pytest.approx(
                np.sqrt(1 / (2 * np.pi * t)), rel=1e-12)

    def test_symmetry_and_t_validation(self):
        assert free_kernel(0.2, -1.1, 1.7) == pytest.approx(free_kernel(-1.1, 0.2, 1.7))
        with pytest.raises(ValueError):
            free_kernel(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            free_kernel(0.0, 1.0, -2.0)

    def test_kernel_quadrature_matches_closed_form(self):
        # evolve a Gaussian by direct kernel quadrature at a few grid nodes
        g = SpatialGrid(-40, 40, 4096)
        w = gaussian_packet(g, -4.0, 1.0, 1.8)
        t = 2.0
        for j in (2048, 2100, 1900):
            x = g.x[j]
            val = np.sum(free_kernel(x, g.x, t) * w.samples) * g.dx
            assert abs(val - gauss_exact(x, t, -4.0, 1.0, 1.8)) < 1e-6

    def test_semigroup_under_convolution(self):
        # endpoint taper suppresses the non-decaying Fresnel oscillation the
        # truncation would otherwise leave at the 1e-4 level
        g = SpatialGrid(-40, 40, 4096)
        xi = g.x
        taper = np.ones(g.n)
        edge = np.abs(xi) > 0.5 * 40
        ramp = (np.abs(xi[edge]) - 20.0) / 20.0
        taper[edge] = 0.5 * (1 + np.cos(np.pi * np.clip(ramp, 0, 1)))
        for (t1, t2, x, y) in [(1.0, 1.0, 0.3, -0.2), (0.7, 1.4, 1.0, 2.0)]:
            val = np.sum(free_kernel(x, xi, t1) * free_kernel(xi, y, t2) * taper) * g.dx
            assert abs(val - free_kernel(x, y, t1 + t2)) < 1e-5


class TestSpectralEvolve:
    def test_matches_closed_form(self):
        g = SpatialGrid(-40, 40, 2048)
        w = gaussian_packet(g, -5.0, 1.5, 2.0)
        for t in (0.7, 2.5, 6.0):
            ev = spectral_evolve_line(w, t)
            np.testing.assert_allclose(
                ev.samples, gauss_exact(g.x, t, -5.0, 1.5, 2.0), atol=1e-6)

    def test_identity_at_t0_and_unitarity(self):
        g = SpatialGrid(-40, 40, 2048)
        w = gaussian_packet(g, 3.0, -2.0, 1.0)
        np.testing.assert_allclose(spectral_evolve_line(w, 0.0).samples,
                                   w.samples, atol=1e-14)
        assert spectral_evolve_line(w, 5.0).norm() == pytest.approx(1.0, abs=1e-10)

    def test_group_velocity(self):
        g = SpatialGrid(-60, 60, 4096)
        w = gaussian_packet(g, -20.0, 2.0, 3.0)   # narrow in momentum
        ev = spectral_evolve_line(w, 8.0)
        center = np.sum(g.x * np.abs(ev.samples) ** 2) * g.dx
        assert center == pytest.approx(-20.0 + 2.0 * 8.0, rel=0.01)

    def test_momentum_representation_route(self):
        g = SpatialGrid(-40, 40, 2048)
        w = gaussian_packet(g, -3.0, 2.0, 1.5)
        e1 = spectral_evolve_line(w, 1.7)
        e2 = to_position(spectral_evolve_line(to_momentum(w), 1.7), g)
        np.testing.assert_allclose(e1.samples, e2.samples, atol=1e-10)

    def test_rejects_non_finite_time(self):
        g = SpatialGrid(-40, 40, 256)
        w = gaussian_packet(g, 2.0, -1.0, 1.2)
        for psi in (w, to_momentum(w)):
            for t in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match="t must be finite"):
                    spectral_evolve_line(psi, t)

    def test_backward_time_inverts(self):
        g = SpatialGrid(-40, 40, 2048)
        w = gaussian_packet(g, 2.0, -1.0, 1.2)
        back = spectral_evolve_line(spectral_evolve_line(w, 3.0), -3.0)
        np.testing.assert_allclose(back.samples, w.samples, atol=1e-12)


class TestMomentumTransform:
    def test_unitary_and_round_trip(self):
        g = SpatialGrid(-40, 40, 2048)
        w = gaussian_packet(g, -3.0, 2.0, 1.5)
        ph = to_momentum(w)
        assert ph.norm() == pytest.approx(1.0, abs=1e-10)
        back = to_position(ph, g)
        np.testing.assert_allclose(back.samples, w.samples, atol=1e-12)

    def test_gaussian_closed_form(self):
        g = SpatialGrid(-40, 40, 2048)
        w = gaussian_packet(g, -5.0, 1.5, 2.0)
        ph = to_momentum(w)
        p = ph.grid.x
        exact = ((2 * 2.0 ** 2 / np.pi) ** 0.25) \
            * np.exp(-2.0 ** 2 * (p - 1.5) ** 2 - 1j * p * (-5.0))
        np.testing.assert_allclose(ph.samples, exact, atol=1e-9)

    def test_representation_guards(self):
        g = SpatialGrid(-40, 40, 2048)
        w = gaussian_packet(g, 0.0, 0.0, 1.0)
        ph = to_momentum(w)
        with pytest.raises(ValueError):
            to_momentum(ph)
        with pytest.raises(ValueError):
            to_position(w, g)


class TestPhqNonzero:
    def test_away_from_cut_vanishes(self):
        g = SpatialGrid(-20, 20, 1024)
        w = gaussian_packet(g, 12.0, 0.0, 1.0)   # tail at x=0 below roundoff
        assert phq_nonzero_check(w) < 1e-10

    def test_even_scaling(self):
        # ψ(0) ≠ 0: δ' weight at the cut, norm grows like dx^(-3/2)
        vals = []
        for n in (512, 1024, 2048):
            g = SpatialGrid(-20, 20, n)
            vals.append(phq_nonzero_check(gaussian_packet(g, 0.0, 0.0, 1.0)))
        assert vals[0] > 1.0
        for a, b in zip(vals, vals[1:]):
            assert b / a == pytest.approx(2 ** 1.5, rel=0.15)

    def test_odd_scaling_differs(self):
        # ψ(0)=0, ψ'(0)≠0: only the δ weight survives, dx^(-1/2) growth
        vals = []
        for n in (512, 1024, 2048):
            g = SpatialGrid(-20, 20, n)
            vals.append(phq_nonzero_check(gaussian_packet(g, 1.0, 0.0, 1.0,
                                                          parity="odd")))
        assert vals[0] > 0.1
        for a, b in zip(vals, vals[1:]):
            assert b / a == pytest.approx(2 ** 0.5, rel=0.15)

    def test_needs_symmetric_grid(self):
        g = SpatialGrid(0.0, 20, 1024)
        w = WaveFunction(g, np.exp(-(g.x - 5) ** 2))
        with pytest.raises(ValueError):
            phq_nonzero_check(w)


class TestHalfLineSystem:
    def test_validation(self):
        with pytest.raises(ValueError):
            HalfLineSystem(L=-1.0, n=64, beta=0.0)
        with pytest.raises(ValueError):
            HalfLineSystem(L=10.0, n=4, beta=0.0)
        with pytest.raises(ValueError):
            HalfLineSystem(L=10.0, n=64, beta="dirichlet")
        with pytest.raises(ValueError):
            HalfLineSystem(L=10.0, n=64, beta=float("inf"))
        with pytest.raises(ValueError):
            HalfLineSystem(L=10.0, n=64, beta=0.0, mass=-1.0)

    def test_flags_and_grids(self):
        s = HalfLineSystem(L=10.0, n=64, beta=NEUMANN)
        assert s.is_neumann and not s.is_dirichlet
        d = HalfLineSystem(L=10.0, n=64, beta=0.0)
        assert d.is_dirichlet and not d.is_neumann
        assert d.half_grid().dx == pytest.approx(d.dx)
        assert d.full_grid().n == 128
        assert d.full_grid().is_symmetric()


class TestHamiltonianBuild:
    def test_symmetric_real(self):
        for beta in (0.0, 0.7, -1.0, NEUMANN):
            op = build_halfline_hamiltonian(HalfLineSystem(L=10.0, n=64, beta=beta))
            assert np.max(np.abs(op.mat - op.mat.T)) < 1e-12
            assert np.max(np.abs(op.mat.imag)) == 0.0
            assert op.is_hermitian()

    def test_dirichlet_box_levels(self):
        s = HalfLineSystem(L=40.0, n=2048, beta=0.0)
        evals, _ = halfline_eigensystem(s)
        kappa = 1.0 / (2 * s.dx ** 2)
        for m in range(1, 6):
            discrete = 2 * kappa * (1 - np.cos(m * np.pi * s.dx / s.L))
            assert evals[m - 1] == pytest.approx(discrete, rel=1e-10)
            box = 0.5 * (m * np.pi / s.L) ** 2
            assert evals[m - 1] == pytest.approx(box, rel=1e-3)

    def test_robin_bound_state(self):
        s = HalfLineSystem(L=40.0, n=2048, beta=-1.0)
        evals, vecs = halfline_eigensystem(s)
        assert evals[0] == pytest.approx(-0.5, abs=1e-3)
        assert evals[1] > 0.0                  # a single bound state
        profile = np.exp(-s.x)
        profile[0] /= np.sqrt(2.0)             # eigenvectors carry the half cell
        profile /= np.linalg.norm(profile)
        ground = np.abs(vecs[:, 0]) / np.linalg.norm(vecs[:, 0])
        assert abs(np.dot(ground, profile)) == pytest.approx(1.0, abs=1e-4)

    def test_neumann_ground_profile(self):
        s = HalfLineSystem(L=40.0, n=1024, beta=NEUMANN)
        evals, vecs = halfline_eigensystem(s)
        # zero-derivative wall, hard outer wall: ground is cos(πx/2L) at E>0
        assert 0.0 < evals[0] < 1.1 * 0.5 * (np.pi / (2 * s.L)) ** 2
        phi = np.cos(np.pi * s.x / (2 * s.L))
        phi[0] /= np.sqrt(2.0)                 # wall node carries a half cell
        phi /= np.linalg.norm(phi)
        ground = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
        assert abs(np.dot(ground, phi)) == pytest.approx(1.0, abs=1e-4)

    def test_negative_eigenvalue_count_tracks_beta_sign(self):
        for beta in (-2.5, -1.0, -0.3, 0.0, 0.4, 1.7, NEUMANN):
            s = HalfLineSystem(L=40.0, n=512, beta=beta)
            evals, _ = halfline_eigensystem(s)
            n_neg = int(np.sum(evals < -1e-12))
            expected = 1 if (not isinstance(beta, str) and beta < 0) else 0
            assert n_neg == expected, f"beta={beta}"

    def test_eigensystem_cached_and_frozen(self):
        s = HalfLineSystem(L=10.0, n=64, beta=0.3)
        e1, v1 = halfline_eigensystem(s)
        e2, v2 = halfline_eigensystem(HalfLineSystem(L=10.0, n=64, beta=0.3))
        assert e1 is e2 and v1 is v2
        assert not e1.flags.writeable and not v1.flags.writeable


class TestRestrictedPropagate:
    def test_identity_at_t0(self):
        s = HalfLineSystem(L=40.0, n=512, beta=0.7)
        w = half_packet(s, 10.0, -1.0, 2.0)
        np.testing.assert_allclose(restricted_propagate(w, s, 0.0).samples,
                                   w.samples, atol=1e-12)

    def test_norm_conserved_all_beta(self):
        for beta in (0.0, 0.7, -1.0, 13.0, NEUMANN):
            s = HalfLineSystem(L=40.0, n=1024, beta=beta)
            w = half_packet(s, 6.0, -1.5, 2.0, pin_wall=(beta == 0.0))
            out = restricted_propagate(w, s, 4.0)
            drift = abs(halfline_norm(out.samples, s) - halfline_norm(w.samples, s))
            assert drift < 1e-8, f"beta={beta}"

    def test_argument_errors(self):
        s = HalfLineSystem(L=40.0, n=512, beta=0.0)
        w = half_packet(s, 10.0, -1.0, 2.0, pin_wall=True)
        with pytest.raises(ValueError):
            restricted_propagate(w, s, -1.0)
        other = HalfLineSystem(L=30.0, n=512, beta=0.0)
        with pytest.raises(ValueError):
            restricted_propagate(w, other, 1.0)
        with pytest.raises(ValueError):
            restricted_propagate(w, s, 1.0, method="chebyshev")

    def test_rejects_non_finite_time(self):
        for beta, method in ((0.0, "images"), (NEUMANN, "images"),
                             (0.7, "intertwine"), (-1.0, "intertwine")):
            s = HalfLineSystem(L=40.0, n=512, beta=beta)
            w = half_packet(s, 10.0, -1.0, 2.0, pin_wall=(beta == 0.0))
            for t in (np.nan, np.inf, -np.inf):
                for reverse in (False, True):
                    with pytest.raises(ValueError,
                                       match="t must be finite and >= 0"):
                        restricted_propagate(w, s, t, method=method,
                                             reverse=reverse)
        robin = HalfLineSystem(L=40.0, n=512, beta=0.7)
        wr = half_packet(robin, 10.0, -1.0, 2.0)
        with pytest.raises(ValueError):
            image_method_propagate(wr, robin, 1.0)

    def test_reverse_round_trip(self):
        s = HalfLineSystem(L=40.0, n=1024, beta=-0.6)
        w = half_packet(s, 8.0, -1.0, 2.0)
        fwd = restricted_propagate(w, s, 3.0)
        back = restricted_propagate(fwd, s, 3.0, reverse=True)
        np.testing.assert_allclose(back.samples, w.samples, atol=1e-12)

    def test_matches_images_dirichlet(self):
        # wall-hitting packet; FD dispersion is the error floor at n=2048
        s = HalfLineSystem(L=28.0, n=2048, beta=0.0)
        w = half_packet(s, 10.0, -0.75, 1.45, pin_wall=True)
        a = restricted_propagate(w, s, 9.0, method="eig")
        b = image_method_propagate(w, s, 9.0)
        assert np.max(np.abs(a.samples - b.samples)) < 1e-4

    def test_matches_images_neumann(self):
        s = HalfLineSystem(L=28.0, n=2048, beta=NEUMANN)
        w = half_packet(s, 10.0, -0.75, 1.45)
        a = restricted_propagate(w, s, 9.0, method="eig")
        b = restricted_propagate(w, s, 9.0, method="images")
        assert np.max(np.abs(a.samples - b.samples)) < 1e-4
        # the reflected wave is present: substantial wall amplitude by then
        assert np.max(np.abs(a.samples[:3])) > 0.3

    def test_bound_state_persists(self):
        s = HalfLineSystem(L=40.0, n=2048, beta=-1.0)
        evals, vecs = halfline_eigensystem(s)
        h = vecs[:, 0].astype(complex).copy()
        h[0] *= np.sqrt(2.0)                   # eigenvector is in wall-weighted form
        w = WaveFunction(s.half_grid(), h)
        out = restricted_propagate(w, s, 4.0)
        overlap = np.vdot(h, out.samples) / np.vdot(h, h)
        assert abs(overlap - np.exp(-1j * evals[0] * 4.0)) < 1e-12

    def test_wall_flux_vanishes(self):
        for beta in (0.0, 0.7, -1.0, NEUMANN):
            s = HalfLineSystem(L=40.0, n=1024, beta=beta)
            w = half_packet(s, 6.0, -1.5, 2.0, pin_wall=(beta == 0.0))
            out = restricted_propagate(w, s, 4.0)
            assert abs(wall_flux(out, s)) < 1e-8


class TestIntertwinedRoute:
    def test_linear_scan_matches_loop(self):
        rng = np.random.default_rng(2)
        u = rng.normal(size=300) + 1j * rng.normal(size=300)
        for c in (0.999, -0.97, 0.3, 1e-200):
            ref = np.empty_like(u)
            acc = 0.0
            for j, v in enumerate(u):
                acc = c * acc + v
                ref[j] = acc
            np.testing.assert_allclose(_linear_scan(u, c), ref,
                                       rtol=1e-12, atol=1e-12)

    def test_identity_at_t0_both_signs(self):
        for beta in (0.7, -1.0):
            s = HalfLineSystem(L=40.0, n=1024, beta=beta)
            w = half_packet(s, 6.0, -1.5, 2.0)
            out = restricted_propagate(w, s, 0.0, method="intertwine")
            assert np.max(np.abs(out.samples - w.samples)) <= 1e-12, beta

    def test_reverse_round_trip_both_signs(self):
        for beta in (0.7, -0.6):
            s = HalfLineSystem(L=40.0, n=1024, beta=beta)
            w = half_packet(s, 8.0, -1.0, 2.0)
            fwd = restricted_propagate(w, s, 3.0, method="intertwine")
            back = restricted_propagate(fwd, s, 3.0, method="intertwine",
                                        reverse=True)
            assert np.max(np.abs(back.samples - w.samples)) <= 1e-12, beta

    def test_bound_state_overlap_keeps_its_modulus(self):
        s = HalfLineSystem(L=40.0, n=2048, beta=-1.0)
        bound = np.exp(-s.x)
        bound /= halfline_norm(bound, s)
        w = half_packet(s, 6.0, -1.5, 2.0)
        mixed = WaveFunction(s.half_grid(), w.samples + 0.5 * bound)
        weight = np.full(s.n, s.dx)
        weight[0] *= 0.5

        def overlap(h):
            return np.sum(weight * bound * h)

        for t in (0.0, 1.3, 4.0):
            out = restricted_propagate(mixed, s, t, method="intertwine")
            assert abs(abs(overlap(out.samples)) - abs(overlap(mixed.samples))) \
                <= 1e-12
        # the bound state alone only turns its phase, e^{-iE₀t}, E₀ = -1/2
        alone = restricted_propagate(WaveFunction(s.half_grid(), bound), s,
                                     4.0, method="intertwine")
        np.testing.assert_allclose(alone.samples, np.exp(2j) * bound,
                                   atol=1e-12)

    def test_wall_data_matches_per_node_propagation(self):
        # the probe's rows give [a; b] = coef @ e^{-iħk²s/2m} + null·phase,
        # with the bound state's phase e^{iħs/2mβ²} for β < 0
        s_nodes = np.linspace(0.0, 4.0, 9)
        for beta in (0.7, -1.3, 0.0, NEUMANN):
            s = HalfLineSystem(L=40.0, n=1024, beta=beta)
            w = half_packet(s, 5.0, -1.5, 1.2, pin_wall=s.is_dirichlet)
            k = s.full_grid().k
            coef, null = _wall_probe(w.samples, s)
            phase = 1.0 if s.is_neumann or beta >= 0 \
                else np.exp(1j * s_nodes / (2 * beta ** 2))
            a, b = (coef @ np.exp(-0.5j * np.outer(k ** 2, s_nodes))
                    + np.outer(null, phase))

            def at_wall(method):
                return np.array([
                    restricted_propagate(w, s, float(t),
                                         method=method).samples[0]
                    for t in s_nodes])

            if s.is_dirichlet:
                # spectral derivative at x = 0 of each node's odd image
                odd = np.zeros(2 * s.n, dtype=complex)
                odd[s.n:] = w.samples
                odd[1:s.n] = -w.samples[1:][::-1]
                full = WaveFunction(s.full_grid(), odd)
                ref = np.array([
                    np.fft.ifft(1j * k * np.fft.fft(
                        spectral_evolve_line(full, float(t)).samples))[s.n]
                    for t in s_nodes])
                np.testing.assert_array_equal(a, 0.0)
                got = b
            elif s.is_neumann:
                ref, got = at_wall("images"), a
                np.testing.assert_array_equal(b, 0.0)
            else:
                ref, got = at_wall("intertwine"), a
                np.testing.assert_allclose(a, beta * b, atol=1e-14)
            assert np.max(np.abs(ref)) > 0.05           # the wall is reached
            assert np.max(np.abs(got - ref)) <= 1e-12, beta

    def test_tiny_beta_approaches_the_hard_wall(self):
        # dx/|β| ~ 4e5: the cell factors must neither overflow nor divide
        # by zero, and D → 1 leaves the hard-wall evolution
        hard = HalfLineSystem(L=40.0, n=1024, beta=0.0)
        w = half_packet(hard, 6.0, -1.5, 2.0, pin_wall=True)
        ref = restricted_propagate(w, hard, 4.0, method="images").samples
        for beta in (1e-7, -1e-7):
            s = HalfLineSystem(L=40.0, n=1024, beta=beta)
            out = restricted_propagate(w, s, 4.0, method="intertwine")
            assert np.max(np.abs(out.samples - ref)) <= 1e-6, beta

    def test_production_route_and_parity_walls(self):
        assert production_route(HalfLineSystem(10.0, 64, 0.0)) == "images"
        assert production_route(HalfLineSystem(10.0, 64, NEUMANN)) == "images"
        assert production_route(HalfLineSystem(10.0, 64, -0.3)) == "intertwine"
        for beta in (0.0, NEUMANN):
            s = HalfLineSystem(L=40.0, n=512, beta=beta)
            w = half_packet(s, 10.0, -1.0, 2.0, pin_wall=True)
            with pytest.raises(ValueError, match="intertwine"):
                restricted_propagate(w, s, 1.0, method="intertwine")


class TestGridZeno:
    def test_drifts_toward_dirichlet(self):
        sys0 = HalfLineSystem(L=40.0, n=1024, beta=0.0)
        psi = right_packet(sys0, 8.0, -1.0, 1.5)
        half = WaveFunction(sys0.half_grid(), psi.samples[sys0.n:])
        target = image_method_propagate(half, sys0, 2.0).samples
        dists = []
        for n in (8, 32, 128, 512):
            zp = grid_zeno_product(psi, sys0, 2.0, n)
            dists.append(np.sqrt(np.sum(np.abs(zp.samples[sys0.n:] - target) ** 2)
                                 * sys0.dx))
        assert all(b < a for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 5e-3

    def test_projection_never_gains_norm(self):
        sys0 = HalfLineSystem(L=40.0, n=512, beta=0.0)
        psi = right_packet(sys0, 5.0, -2.0, 1.5)
        zp = grid_zeno_product(psi, sys0, 3.0, 64)
        assert zp.norm() <= psi.norm() + 1e-12
        assert np.max(np.abs(zp.samples[:sys0.n])) == 0.0

    def test_argument_errors(self):
        sys0 = HalfLineSystem(L=40.0, n=512, beta=0.0)
        psi = right_packet(sys0, 5.0, -2.0, 1.5)
        with pytest.raises(ValueError):
            grid_zeno_product(psi, sys0, 1.0, 0)
        half = WaveFunction(sys0.half_grid(), psi.samples[sys0.n:])
        with pytest.raises(ValueError):
            grid_zeno_product(half, sys0, 1.0, 4)


class TestLinePdx:
    def test_dirichlet_ladder_and_residual(self):
        s = HalfLineSystem(L=40.0, n=2048, beta=0.0)
        psi = right_packet(s, 6.0, -1.0, 1.0)
        ladder = [line_pdx_residual(psi, s, 3.0, n_quad=nq)
                  for nq in (100, 200, 400)]
        assert all(b < a for a, b in zip(ladder, ladder[1:]))
        assert ladder[-1] < 5e-3

    def test_no_boundary_contact_is_trivial(self):
        s = HalfLineSystem(L=40.0, n=2048, beta=0.0)
        psi = right_packet(s, 20.0, 0.5, 1.5)
        parts = line_pdx_terms(psi, s, 0.5, n_quad=100)
        assert np.sqrt(np.sum(np.abs(parts.crossing) ** 2) * s.dx) < 1e-6
        assert parts.residual_norm(s.dx) < 1e-6

    def test_beta_dependence_of_crossing(self):
        s0 = HalfLineSystem(L=40.0, n=2048, beta=0.0)
        sN = HalfLineSystem(L=40.0, n=2048, beta=NEUMANN)
        psi = right_packet(s0, 6.0, -1.0, 1.0)
        c0 = line_pdx_terms(psi, s0, 3.0).crossing
        cN = line_pdx_terms(psi, sN, 3.0).crossing
        diff = np.sqrt(np.sum(np.abs(c0 - cN) ** 2) * s0.dx)
        assert diff > 1e-3

    def test_crossing_against_parity_oracle_dirichlet(self):
        # for an odd state, U_r of the right half is exactly the restricted
        # full evolution, so the crossing term is computable with two FFTs
        s = HalfLineSystem(L=40.0, n=2048, beta=0.0)
        g = s.full_grid()
        odd = gaussian_packet(g, 6.0, -1.0, 1.3, parity="odd")
        theta_odd = WaveFunction(g, np.where(g.x >= 0, odd.samples, 0.0))
        chi_true = spectral_evolve_line(theta_odd, 3.0).samples.copy()
        full = spectral_evolve_line(odd, 3.0).samples
        chi_true[s.n:] -= full[s.n:]
        chi = line_pdx_terms(theta_odd, s, 3.0, n_quad=400).crossing
        err = np.sqrt(np.sum(np.abs(chi - chi_true) ** 2) * s.dx)
        assert err < 5e-3

    def test_crossing_against_parity_oracle_neumann(self):
        s = HalfLineSystem(L=40.0, n=2048, beta=NEUMANN)
        g = s.full_grid()
        ev = gaussian_packet(g, 6.0, -1.0, 1.3, parity="even")
        theta_ev = WaveFunction(g, np.where(g.x >= 0, ev.samples, 0.0))
        chi_true = spectral_evolve_line(theta_ev, 3.0).samples.copy()
        full = spectral_evolve_line(ev, 3.0).samples
        chi_true[s.n:] -= full[s.n:]
        chi = line_pdx_terms(theta_ev, s, 3.0, n_quad=400).crossing
        err = np.sqrt(np.sum(np.abs(chi - chi_true) ** 2) * s.dx)
        # the crossing term carries an O(1) jump at x=0 here; the asymptotic
        # tail handles it but the next order is larger than at beta=0
        assert err < 5e-2

    def test_robin_residual_reported_finite(self):
        psi = right_packet(HalfLineSystem(L=40.0, n=2048, beta=0.0), 6.0, -1.0, 1.0)
        for beta in (0.7, -1.3):
            s = HalfLineSystem(L=40.0, n=2048, beta=beta)
            r = line_pdx_residual(psi, s, 3.0)
            assert np.isfinite(r) and r < 0.2

    def test_argument_errors(self):
        s = HalfLineSystem(L=40.0, n=2048, beta=0.0)
        psi = right_packet(s, 6.0, -1.0, 1.0)
        for t in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="t must be"):
                line_pdx_terms(psi, s, t)
        with pytest.raises(ValueError):
            line_pdx_terms(psi, s, 1.0, n_quad=101)
        g = s.full_grid()
        both_sides = gaussian_packet(g, 0.0, 0.0, 2.0)
        with pytest.raises(DomainError):
            line_pdx_terms(both_sides, s, 1.0)
        half = WaveFunction(s.half_grid(), psi.samples[s.n:])
        with pytest.raises(ValueError):
            line_pdx_terms(half, s, 1.0)


def per_rung_line_split(psi, s, t, n_quad, k_cut=None):
    """One rung of the line split with its own full 2n-column phase table
    e^{-iħk²u²/2m}: (crossing, residual)."""
    n, dx = s.n, s.dx
    k = s.full_grid().k
    k_nyq = np.pi / dx
    if k_cut is None:
        k_cut = np.sqrt(0.4 * (4 / np.pi) * n_quad / t)
    k_cut = min(k_cut, 0.9 * k_nyq)

    def window(k_pass, k_stop):
        ramp = np.clip((np.abs(k) - k_pass) / (k_stop - k_pass), 0.0, 1.0)
        return 0.5 * (1 + np.cos(np.pi * ramp))

    theta = np.linspace(0.0, np.pi / 2, n_quad + 1)
    u = np.sqrt(t) * np.sin(theta)
    wj = simpson_weights(n_quad + 1, theta[1] - theta[0]) * t * np.sin(2 * theta)
    disp = np.exp(-0.5j * np.outer(u ** 2, k ** 2))
    mu = k ** 2 / 2
    tail = np.exp(-1j * mu * t)
    coef, null = _wall_probe(psi.samples[n:], s)
    phase = 1.0 if s.is_neumann or s.beta >= 0 \
        else np.exp(1j * (t - u ** 2) / (2 * s.beta ** 2))
    a, b = (np.conj(np.conj(tail * coef) @ disp.T)
            + np.outer(null, np.broadcast_to(phase, u.shape)))
    src_quad = (wj * b) @ disp + 1j * k * ((wj * a) @ disp)
    inv = np.divide(1.0, mu, out=np.zeros_like(mu), where=mu > 0)
    src_asym = ((b[0] - b[-1] * tail) + 1j * k * (a[0] - a[-1] * tail)) \
        * inv / 1j
    w_q = window(0.7 * k_cut, k_cut)
    source = w_q * src_quad + (1.0 - w_q) * src_asym
    delta = np.zeros(2 * n)
    delta[n] = 1.0 / dx
    crossing = np.fft.ifft(0.5j * window(0.85 * k_nyq, 0.95 * k_nyq)
                           * np.fft.fft(delta) * source)
    restricted = np.zeros(2 * n, dtype=complex)
    half = WaveFunction(s.half_grid(), psi.samples[n:])
    restricted[n:] = restricted_propagate(half, s, t,
                                          method=production_route(s)).samples
    r = spectral_evolve_line(psi, t).samples - crossing - restricted
    return crossing, float(np.sqrt(np.sum(np.abs(r) ** 2) * dx))


class TestLinePdxLadder:
    @pytest.mark.parametrize("ladder", [[100, 200, 400], [100, 150, 400]],
                             ids=["nested", "not-nested"])
    @pytest.mark.parametrize("beta", [0.0, NEUMANN, 0.7, -0.7, 13.0])
    def test_matches_per_rung_full_table(self, beta, ladder):
        s = HalfLineSystem(L=40.0, n=1024, beta=beta)
        psi = right_packet(s, 6.0, -1.0, 1.0)
        self._check(psi, s, 1.5, ladder, None)

    def test_explicit_k_cut_applies_to_every_rung(self):
        s = HalfLineSystem(L=40.0, n=1024, beta=0.7)
        psi = right_packet(s, 6.0, -1.0, 1.0)
        parts = self._check(psi, s, 1.5, [100, 200, 400], 8.0)
        assert [p.k_cut for p in parts] == [8.0] * 3

    @staticmethod
    def _check(psi, s, t, ladder, k_cut):
        residuals = line_pdx_ladder(psi, s, t, ladder, k_cut=k_cut)
        parts = _line_pdx_parts(psi, s, t, ladder, k_cut)
        assert [p.n_quad for p in parts] == ladder
        for nq, r, p in zip(ladder, residuals, parts):
            chi, ref = per_rung_line_split(psi, s, t, nq, k_cut)
            assert abs(r - ref) <= 1e-12 * ref, (nq, r, ref)
            assert np.max(np.abs(p.crossing - chi)) \
                <= 1e-12 * np.max(np.abs(chi)), nq
        return parts

    @pytest.mark.parametrize("ladder, tables", [([100, 200, 400], 1),
                                                ([100, 150, 400], 2)])
    def test_shared_work_per_ladder(self, monkeypatch, ladder, tables):
        s = HalfLineSystem(L=40.0, n=1024, beta=NEUMANN)
        psi = right_packet(s, 6.0, -1.0, 1.0)
        calls = {"evolve": 0, "restricted": 0, "table": 0}

        def counting(name, fn, of_psi=False):
            def wrapped(*args, **kwargs):
                if not of_psi or args[0] is psi:
                    calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        # U(t)ψ counts only the calls on ψ itself: the image route evolves
        # its own extension through the same function
        monkeypatch.setattr(halfline, "spectral_evolve_line",
                            counting("evolve", spectral_evolve_line, True))
        monkeypatch.setattr(halfline, "restricted_propagate",
                            counting("restricted", restricted_propagate))
        monkeypatch.setattr(halfline, "_quadrature_rows",
                            counting("table", halfline._quadrature_rows))
        line_pdx_ladder(psi, s, 1.5, ladder)
        assert calls == {"evolve": 1, "restricted": 1, "table": tables}

    def test_whole_ladder_checked_first(self, monkeypatch):
        s = HalfLineSystem(L=40.0, n=512, beta=0.0)
        psi = right_packet(s, 6.0, -1.0, 1.0)

        def refuse(*args, **kwargs):
            raise AssertionError("work started before the ladder was checked")

        monkeypatch.setattr(halfline, "spectral_evolve_line", refuse)
        for bad in ([100, 101], [100, 0], []):
            with pytest.raises(ValueError, match="n_quad"):
                line_pdx_ladder(psi, s, 1.5, bad)
