"""Tests for the line / half-line module.

Oracles used here:
  * closed-form freely spreading Gaussian (complex Gaussian integral done
    by hand, frozen below as gauss_exact)
  * discrete dispersion 2κ(1-cos kΔx) for the tridiagonal eigenvalues
  * continuum Robin results: box levels (mπ/L)²/2, bound state e^{x/β} at
    E=-ħ²/2mβ², Neumann cosine ground profile
  * the eigensystem route (method="eig") as the oracle for the images
    route at the two parity walls
  * the eigensystem route as the oracle for the intertwined route at
    finite β, with a plain loop as the reference for its linear scan
  * parity identities making the crossing term computable exactly from two
    full-line spectral evolutions (odd state at the hard wall, even state
    at the reflecting wall)
  * a per-rung line split with the full 2n-column phase table as the
    oracle for the one-pass ladder (half spectrum, strided nested rungs),
    and the direct cos/sin build as the reference for the cached phase table
  * the direct np.exp(-1j·k²·t/2) over all modes as the byte-for-byte
    reference for `free_phase`
  * the kinetic term moves amplitude across the cut, PHQ ≠ 0, with the
    norm growing like dx^(-3/2) (even ψ) and dx^(-1/2) (odd ψ); the check
    is `oracles.phq_nonzero_check`, outside the library
"""

from dataclasses import replace

import numpy as np
import pytest

from zenopath.halfline import (
    NEUMANN,
    GaussianPacket,
    HalfLineSystem,
    LinePdxParts,
    SpatialGrid,
    WaveFunction,
    free_phase,
    gaussian_packet,
    grid_zeno_product,
    half_spectrum,
    halfline_eigensystem,
    halfline_norm,
    line_pdx_ladder,
    production_route,
    restricted_propagate,
    spectral_evolve_line,
)
from zenopath import halfline
from zenopath.halfline import (
    _linear_scan,
    _phase_table,
    _propagate_half_samples,
)
from zenopath.qcore import DomainError, simpson_weights

from oracles import phq_nonzero_check


def gauss_exact(x, t, x0, p0, sigma, m=1.0, hbar=1.0):
    """Exact free evolution of (2πσ²)^(-1/4) exp(-(x-x₀)²/4σ² + ip₀(x-x₀)/ħ)."""
    a = sigma ** 2 + 1j * hbar * t / (2 * m)
    b = 1j * (x - x0 - p0 * t / m)
    return ((2 * np.pi) ** -0.5) * ((2 * sigma ** 2 / np.pi) ** 0.25) \
        * np.sqrt(np.pi / a) \
        * np.exp(b ** 2 / (4 * a) + 1j * p0 * (x - x0) / hbar
                 - 1j * p0 ** 2 * t / (2 * m * hbar))


def ladder_residuals(psi, sys, t, ladder):
    """Each rung's ‖U(t)ψ - [crossing + U_r^β(t)ψ]‖ from `line_pdx_ladder`."""
    return [parts.residual_norm(sys.dx)
            for parts in line_pdx_ladder(psi, sys, t, ladder)]


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


class TestFreePhase:
    """`free_phase` is the direct exponential byte for byte, read-only and
    cached per (grid, float(t))."""

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        free_phase.cache_clear()
        yield
        free_phase.cache_clear()

    @pytest.mark.parametrize("t", [0.0, -3.0, 12.0])
    @pytest.mark.parametrize("L", [12.5, 80.0])
    @pytest.mark.parametrize("n", [8, 9, 1023, 4096])
    def test_bytes_of_the_direct_exponential(self, n, L, t):
        grid = SpatialGrid(-L, L, n)
        direct = np.exp(-1j * grid.k ** 2 * t / 2)
        assert free_phase(grid, t).tobytes() == direct.tobytes()

    def test_read_only_and_cached(self):
        grid = SpatialGrid(-40.0, 40.0, 256)
        phase = free_phase(grid, 1.5)
        assert not phase.flags.writeable
        with pytest.raises(ValueError):
            phase[0] = 0.0
        assert free_phase(grid, 1.5) is phase
        assert free_phase(SpatialGrid(-40.0, 40.0, 256), np.float64(1.5)) is phase
        info = free_phase.cache_info()
        assert (info.misses, info.hits, info.maxsize) == (1, 2, 2)

    def test_spectral_evolve_line_takes_numpy_times(self):
        g = SpatialGrid(-30.0, 30.0, 512)
        w = gaussian_packet(g, 2.0, -1.0, 1.5)
        for t in (2.5, np.float64(2.5), np.array(2.5)):
            free_phase.cache_clear()
            direct = np.fft.ifft(np.fft.fft(w.samples)
                                 * np.exp(-1j * g.k ** 2 * t / 2))
            assert spectral_evolve_line(w, t).samples.tobytes() \
                == direct.tobytes(), type(t)


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

    def test_rejects_non_finite_time(self):
        g = SpatialGrid(-40, 40, 256)
        w = gaussian_packet(g, 2.0, -1.0, 1.2)
        for t in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="t must be finite"):
                spectral_evolve_line(w, t)

    def test_backward_time_inverts(self):
        g = SpatialGrid(-40, 40, 2048)
        w = gaussian_packet(g, 2.0, -1.0, 1.2)
        back = spectral_evolve_line(spectral_evolve_line(w, 3.0), -3.0)
        np.testing.assert_allclose(back.samples, w.samples, atol=1e-12)


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

    def test_flags_and_grids(self):
        s = HalfLineSystem(L=10.0, n=64, beta=NEUMANN)
        assert s.is_neumann and not s.is_dirichlet
        d = HalfLineSystem(L=10.0, n=64, beta=0.0)
        assert d.is_dirichlet and not d.is_neumann
        assert d.half_grid().dx == pytest.approx(d.dx)
        assert d.full_grid().n == 128
        assert d.full_grid().is_symmetric()


class TestHamiltonianBuild:
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
        def drift(n, beta, method=None):
            s = HalfLineSystem(L=40.0, n=n, beta=beta)
            w = half_packet(s, 6.0, -1.5, 2.0, pin_wall=(beta == 0.0))
            out = restricted_propagate(w, s, 4.0, method=method)
            return abs(halfline_norm(out.samples, s)
                       - halfline_norm(w.samples, s))

        for beta in (0.0, 0.7, -1.0, 13.0, NEUMANN):
            # the eig oracle conserves the half-cell-weighted norm exactly
            assert drift(1024, beta, "eig") < 1e-8, f"beta={beta}"
        for beta in (0.0, NEUMANN):
            assert drift(1024, beta) < 1e-8, f"beta={beta}"
        for beta in (0.7, -1.0, 13.0):
            # the intertwined route drifts by the O(dx²) error of D_h
            drifts = [drift(n, beta) for n in (1024, 2048, 4096)]
            assert drifts[1] <= 2e-5, (beta, drifts)
            assert drifts[0] > drifts[1] > drifts[2], (beta, drifts)

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
                with pytest.raises(ValueError,
                                   match="t must be finite and >= 0"):
                    restricted_propagate(w, s, t, method=method)
        robin = HalfLineSystem(L=40.0, n=512, beta=0.7)
        wr = half_packet(robin, 10.0, -1.0, 2.0)
        with pytest.raises(ValueError, match="intertwine"):
            restricted_propagate(wr, robin, 1.0, method="images")

    def test_default_follows_production_route(self):
        # β picks the route; naming it gives the same samples bit for bit
        for beta in (0.0, NEUMANN, 0.7, -1.0):
            s = HalfLineSystem(L=40.0, n=512, beta=beta)
            w = half_packet(s, 10.0, -1.0, 2.0, pin_wall=(beta == 0.0))
            named = restricted_propagate(w, s, 2.0,
                                         method=production_route(s))
            assert np.array_equal(restricted_propagate(w, s, 2.0).samples,
                                  named.samples), beta

    def test_reverse_round_trip(self):
        # the route kernels take -t: eig at a Robin wall, and images at the
        # hard wall, whose odd extension pins both x = 0 and x = -L
        s = HalfLineSystem(L=40.0, n=1024, beta=-0.6)
        w = half_packet(s, 8.0, -1.0, 2.0)
        fwd = restricted_propagate(w, s, 3.0, method="eig")
        back = _propagate_half_samples(fwd.samples, s, -3.0)
        np.testing.assert_allclose(back, w.samples, atol=1e-12)
        s = HalfLineSystem(L=40.0, n=1024, beta=0.0)
        w = half_packet(s, 8.0, -1.0, 2.0, pin_wall=True)
        back = half_spectrum(half_spectrum(w.samples, s).at(3.0), s).at(-3.0)
        np.testing.assert_allclose(back, w.samples, atol=1e-12)

    def test_matches_images_dirichlet(self):
        # wall-hitting packet; FD dispersion is the error floor at n=2048
        s = HalfLineSystem(L=28.0, n=2048, beta=0.0)
        w = half_packet(s, 10.0, -0.75, 1.45, pin_wall=True)
        a = restricted_propagate(w, s, 9.0, method="eig")
        b = restricted_propagate(w, s, 9.0)
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
        out = restricted_propagate(w, s, 4.0, method="eig")
        overlap = np.vdot(h, out.samples) / np.vdot(h, h)
        assert abs(overlap - np.exp(-1j * evals[0] * 4.0)) < 1e-12


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
            back = half_spectrum(fwd.samples, s).at(-3.0)
            assert np.max(np.abs(back - w.samples)) <= 1e-12, beta

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
            coef, null = half_spectrum(w.samples, s).wall_probe()
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
        target = restricted_propagate(half, sys0, 2.0).samples
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
        for t in (np.nan, np.inf, -1.0):
            with pytest.raises(ValueError, match="t must be finite"):
                grid_zeno_product(psi, sys0, t, 4)
        half = WaveFunction(sys0.half_grid(), psi.samples[sys0.n:])
        with pytest.raises(ValueError):
            grid_zeno_product(half, sys0, 1.0, 4)


class TestLinePdx:
    def test_dirichlet_ladder_and_residual(self):
        s = HalfLineSystem(L=40.0, n=2048, beta=0.0)
        psi = right_packet(s, 6.0, -1.0, 1.0)
        ladder = ladder_residuals(psi, s, 3.0, [100, 200, 400])
        assert all(b < a for a, b in zip(ladder, ladder[1:]))
        assert ladder[-1] < 5e-3

    def test_no_boundary_contact_is_trivial(self):
        s = HalfLineSystem(L=40.0, n=2048, beta=0.0)
        psi = right_packet(s, 20.0, 0.5, 1.5)
        parts, = line_pdx_ladder(psi, s, 0.5, [100])
        assert np.sqrt(np.sum(np.abs(parts.crossing) ** 2) * s.dx) < 1e-6
        assert parts.residual_norm(s.dx) < 1e-6

    def test_beta_dependence_of_crossing(self):
        s0 = HalfLineSystem(L=40.0, n=2048, beta=0.0)
        sN = HalfLineSystem(L=40.0, n=2048, beta=NEUMANN)
        psi = right_packet(s0, 6.0, -1.0, 1.0)
        c0 = line_pdx_ladder(psi, s0, 3.0, [400])[0].crossing
        cN = line_pdx_ladder(psi, sN, 3.0, [400])[0].crossing
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
        chi = line_pdx_ladder(theta_odd, s, 3.0, [400])[0].crossing
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
        chi = line_pdx_ladder(theta_ev, s, 3.0, [400])[0].crossing
        err = np.sqrt(np.sum(np.abs(chi - chi_true) ** 2) * s.dx)
        # the crossing term carries an O(1) jump at x=0 here; the asymptotic
        # tail handles it but the next order is larger than at beta=0
        assert err < 5e-2

    def test_robin_residual_reported_finite(self):
        psi = right_packet(HalfLineSystem(L=40.0, n=2048, beta=0.0), 6.0, -1.0, 1.0)
        for beta in (0.7, -1.3):
            s = HalfLineSystem(L=40.0, n=2048, beta=beta)
            r, = ladder_residuals(psi, s, 3.0, [400])
            assert np.isfinite(r) and r < 0.2

    def test_argument_errors(self):
        s = HalfLineSystem(L=40.0, n=2048, beta=0.0)
        psi = right_packet(s, 6.0, -1.0, 1.0)
        for t in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="t must be"):
                line_pdx_ladder(psi, s, t, [400])
        with pytest.raises(ValueError):
            line_pdx_ladder(psi, s, 1.0, [101])
        g = s.full_grid()
        both_sides = gaussian_packet(g, 0.0, 0.0, 2.0)
        with pytest.raises(DomainError):
            line_pdx_ladder(both_sides, s, 1.0, [400])
        half = WaveFunction(s.half_grid(), psi.samples[s.n:])
        with pytest.raises(ValueError):
            line_pdx_ladder(half, s, 1.0, [400])


def per_rung_line_split(psi, s, t, n_quad):
    """One rung of the line split with its own full 2n-column phase table
    e^{-iħk²u²/2m}: (crossing, residual)."""
    n, dx = s.n, s.dx
    k = s.full_grid().k
    k_nyq = np.pi / dx
    k_cut = min(np.sqrt(0.4 * (4 / np.pi) * n_quad / t), 0.9 * k_nyq)

    def window(k_pass, k_stop):
        ramp = np.clip((np.abs(k) - k_pass) / (k_stop - k_pass), 0.0, 1.0)
        return 0.5 * (1 + np.cos(np.pi * ramp))

    theta = np.linspace(0.0, np.pi / 2, n_quad + 1)
    u = np.sqrt(t) * np.sin(theta)
    wj = simpson_weights(n_quad + 1, theta[1] - theta[0]) * t * np.sin(2 * theta)
    disp = np.exp(-0.5j * np.outer(u ** 2, k ** 2))
    mu = k ** 2 / 2
    tail = np.exp(-1j * mu * t)
    coef, null = half_spectrum(psi.samples[n:], s).wall_probe()
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
        t = 1.5
        parts = line_pdx_ladder(psi, s, t, ladder)
        assert [p.n_quad for p in parts] == ladder
        for nq, p in zip(ladder, parts):
            chi, ref = per_rung_line_split(psi, s, t, nq)
            r = p.residual_norm(s.dx)
            assert abs(r - ref) <= 1e-12 * ref, (nq, r, ref)
            assert np.max(np.abs(p.crossing - chi)) \
                <= 1e-12 * np.max(np.abs(chi)), nq

    @pytest.mark.parametrize("ladder, tables", [([100, 200, 400], 1),
                                                ([100, 150, 400], 2)])
    def test_shared_work_per_ladder(self, monkeypatch, ladder, tables):
        calls = {"evolve": 0, "spectrum": 0, "to_dirichlet": 0, "table": 0}

        def counting(name, fn, of_psi=None):
            def wrapped(*args, **kwargs):
                if of_psi is None or args[0] is of_psi:
                    calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(halfline, "half_spectrum",
                            counting("spectrum", half_spectrum))
        monkeypatch.setattr(halfline, "_to_dirichlet",
                            counting("to_dirichlet", halfline._to_dirichlet))
        monkeypatch.setattr(halfline, "_quadrature_rows",
                            counting("table", halfline._quadrature_rows))
        for beta in (NEUMANN, 0.0, 0.7, -0.7):
            s = HalfLineSystem(L=40.0, n=1024, beta=beta)
            psi = right_packet(s, 6.0, -1.0, 1.0)
            # U(t)ψ counts only the calls on ψ itself
            monkeypatch.setattr(halfline, "spectral_evolve_line",
                                counting("evolve", spectral_evolve_line, psi))
            for name in calls:
                calls[name] = 0
            line_pdx_ladder(psi, s, 1.5, ladder)
            # one spectrum serves U_r^β(t)ψ and the wall probe, so a finite
            # β forms D_h ψ once
            assert calls == {"evolve": 1, "spectrum": 1,
                             "to_dirichlet": 0 if s.is_neumann
                             or s.is_dirichlet else 1,
                             "table": tables}, beta

    @pytest.mark.parametrize("beta", [0.0, NEUMANN, 0.7, -0.7])
    def test_one_free_phase_per_ladder(self, beta):
        # U(t)ψ, U_r^β(t)ψ and the crossing's e^{-iħk²t/2m} share one array
        s = HalfLineSystem(L=40.0, n=512, beta=beta)
        psi = right_packet(s, 6.0, -1.0, 1.0)
        free_phase.cache_clear()
        line_pdx_ladder(psi, s, 1.5, [100, 200])
        assert free_phase.cache_info().misses == 1
        free_phase.cache_clear()

    def test_whole_ladder_checked_first(self, monkeypatch):
        s = HalfLineSystem(L=40.0, n=512, beta=0.0)
        psi = right_packet(s, 6.0, -1.0, 1.0)

        def refuse(*args, **kwargs):
            raise AssertionError("work started before the ladder was checked")

        monkeypatch.setattr(halfline, "spectral_evolve_line", refuse)
        for bad in ([100, 101], [100, 0], []):
            with pytest.raises(ValueError, match="n_quad"):
                line_pdx_ladder(psi, s, 1.5, bad)


class TestPhaseTableCache:
    """The crossing quadrature's phase table is kept per (t, L, n, n_quad)."""

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        _phase_table.cache_clear()
        yield
        _phase_table.cache_clear()

    def test_hit_repeats_the_miss(self):
        s = HalfLineSystem(L=40.0, n=1024, beta=NEUMANN)
        psi = right_packet(s, 6.0, -1.0, 1.0)
        first = ladder_residuals(psi, s, 1.5, [100, 200, 400])
        second = ladder_residuals(psi, s, 1.5, [100, 200, 400])
        assert first == second
        info = _phase_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("n", [1024, 2048])
    def test_table_is_the_direct_build(self, n):
        t, L, n_quad = np.pi / 2, 40.0, 200
        u = np.sqrt(t) * np.sin(np.linspace(0.0, np.pi / 2, n_quad + 1))
        k = HalfLineSystem(L=L, n=n, beta=0.0).full_grid().k[:n + 1]
        phase = np.outer(u ** 2, k ** 2) * -0.5
        table = _phase_table(t, L, n, n_quad)
        assert np.array_equal(table.real, np.cos(phase))
        assert np.array_equal(table.imag, np.sin(phase))

    def test_table_is_read_only(self):
        table = _phase_table(1.5, 40.0, 512, 100)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0

    @pytest.mark.parametrize("other", [(2.0, 40.0, 512, 100),
                                       (1.5, 30.0, 512, 100),
                                       (1.5, 40.0, 1024, 100),
                                       (1.5, 40.0, 512, 200)],
                             ids=["t", "L", "n_grid", "n_quad"])
    def test_every_argument_is_in_the_key(self, other):
        _phase_table(1.5, 40.0, 512, 100)
        _phase_table(*other)
        info = _phase_table.cache_info()
        assert (info.misses, info.hits) == (2, 0)

    def test_at_most_two_tables(self):
        for n in (512, 1024, 2048):
            s = HalfLineSystem(L=40.0, n=n, beta=0.0)
            line_pdx_ladder(right_packet(s, 6.0, -1.0, 1.0), s, 1.5,
                            [100, 200])
            assert _phase_table.cache_info().currsize <= 2
        assert _phase_table.cache_info().currsize == 2

    @pytest.mark.parametrize("beta", [0.7, -0.8])
    def test_hit_at_finite_beta_equals_fresh_build(self, beta):
        s = HalfLineSystem(L=40.0, n=1024, beta=beta)
        psi = right_packet(s, 6.0, -1.0, 1.0)
        fresh = ladder_residuals(psi, s, 3.0, [100, 200, 400])
        # a table warmed by another wall and another state
        _phase_table.cache_clear()
        other = replace(s, beta=NEUMANN)
        line_pdx_ladder(right_packet(other, 7.0, -0.8, 1.2), other, 3.0,
                        [400])
        assert ladder_residuals(psi, s, 3.0, [100, 200, 400]) == fresh
        assert _phase_table.cache_info().hits == 1
