import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

from kreinx import (
    BranchCut,
    EvaluationAtSingularity,
    GridTooCoarse,
    InvariantError,
    LaplacianPointEvaluator,
    NonpositiveRadius,
    OutsideResolventSet,
    PointSet,
    UnsupportedAction,
    eigenfunction_l2_norm,
    g0,
    gamma_matrix,
    gz,
    renormalized_diagonal,
)
from kreinx.greens import (
    LaplacianGrid1DEvaluator,
    _product_matrix,
    gbreve_g_quadrature_1d,
    gbreve_g_radial_3d,
    point_source_sum,
)

from conftest import complex_gamma_matrix, rel_err

FOUR_PI = 4.0 * np.pi


class TestG0:
    def test_dim3_inverse_distance(self):
        # 1/((n-2) sigma_n r) with n = 3, sigma_3 = 4 pi
        assert g0(3, 1.0) == pytest.approx(1.0 / FOUR_PI, abs=1e-15)
        assert g0(3, 2.0) == pytest.approx(1.0 / (2.0 * FOUR_PI), abs=1e-15)

    def test_dim1_tent(self):
        assert g0(1, 2.0) == pytest.approx(-1.0)

    def test_dim2_log(self):
        assert g0(2, 1.0) == pytest.approx(0.0, abs=0.0)

    def test_nonpositive_radius(self):
        for dim in (1, 2, 3):
            with pytest.raises(NonpositiveRadius):
                g0(dim, 0.0)

    @pytest.mark.parametrize("dim, area", [(1, 2.0), (2, 2.0 * np.pi), (3, FOUR_PI)])
    def test_unit_flux(self, dim, area):
        # -|S^{dim-1}| r^{dim-1} g0'(r) = 1: the flux of a unit source
        r, h = np.array([0.5, 1.0, 3.0]), 1e-5
        slope = (g0(dim, r + h) - g0(dim, r - h)) / (2.0 * h)
        assert np.allclose(-area * r ** (dim - 1) * slope, 1.0, rtol=1e-8)


class TestGz:
    def test_dim1_at_origin(self):
        # Fourier inversion of (4 + xi^2)^{-1} at x = 0
        assert gz(1, 0.0, 4.0) == pytest.approx(0.25)

    def test_dim3_closed_form(self):
        assert gz(3, 1.0, 1.0) == pytest.approx(np.exp(-1.0) / FOUR_PI, rel=1e-14)

    def test_dim3_against_fourier_quadrature(self):
        # radial inverse transform of (1 + |xi|^2)^{-1}:
        # (1/(2 pi^2 r)) * int_0^inf xi sin(xi r) / (1 + xi^2) dxi
        r = 1.0
        val, _ = quad(
            lambda t: t / (1.0 + t * t), 0.0, np.inf, weight="sin", wvar=r,
            limlst=200,
        )
        ref = val / (2.0 * np.pi**2 * r)
        assert abs(gz(3, r, 1.0) - ref) <= 1e-9 * abs(ref)

    def test_dim2_far_field_decay(self):
        assert abs(gz(2, 50.0, 1.0)) < 1e-20

    def test_branch_cut(self):
        for z in (0.0, -1.0, -0.5 + 0.0j):
            with pytest.raises(BranchCut):
                gz(1, 1.0, z)

    def test_dim2_beyond_amos_argument_range(self):
        # |sqrt(z) r| > 1e9, where scipy's K0 routine gives up: the
        # asymptotic fallback against a 40-digit reference
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        for r, z in ((1.5e9, -1.0 + 4e-7j), (1.2e9, -4.0 + 1e-6j)):
            ref = complex(mp.besselk(0, mp.mpc(np.sqrt(complex(z)) * r))) / (2.0 * np.pi)
            assert abs(gz(2, r, z) - ref) <= 1e-14 * abs(ref)

    def test_dim1_kernel_solves_defining_equation(self):
        # away from the origin the kernel solves u'' = z u to O(h^2)
        z = 2.0 + 0.5j
        h = 1e-3
        xs = np.arange(0.2, 1.0, h)
        u = np.array([gz(1, x, z) for x in xs])
        second = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2
        err = np.max(np.abs(second - z * u[1:-1]))
        assert err <= abs(z) ** 2 * h**2 * np.max(np.abs(u))

    def test_dim1_kernel_unit_derivative_jump(self):
        # the derivative jump at the origin is -1, recovered to O(h)
        z = 2.0 + 0.5j

        def jump_estimate(h):
            um, u0, up = (gz(1, abs(x), z) for x in (-h, 0.0, h))
            return (up - 2.0 * u0 + um) / h

        errs = [abs(jump_estimate(h) + 1.0) for h in (1e-2, 5e-3)]
        assert errs[0] <= 2.0 * abs(z) * abs(gz(1, 0.0, z)) * 1e-2
        assert 0.3 <= errs[1] / errs[0] <= 0.7  # first-order decay

    def test_radius_domain(self):
        for dim in (2, 3):
            with pytest.raises(NonpositiveRadius):
                gz(dim, 0.0, 1.0)


class TestPublicKernels:
    """``g0``, ``gz`` and ``renormalized_diagonal`` are the checked faces
    of the array kernels the trace matrix runs."""

    @pytest.mark.parametrize("dim", [0, 4, 2.5])
    def test_dim_outside_1_to_3(self, dim):
        for call in (
            lambda: g0(dim, 1.0),
            lambda: gz(dim, 1.0, 1.0),
            lambda: renormalized_diagonal(dim, 1.0),
            lambda: PointSet(dim, [[0.0] * 4]),
        ):
            with pytest.raises(InvariantError, match="dim must be 1, 2, or 3"):
                call()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("z", [0.3, 4.0, 1.0 + 0.5j, 0.3 - 2.0j])
    def test_array_radii_match_one_radius_at_a_time(self, dim, z):
        r = np.geomspace(1e-3, 30.0, 17).reshape(1, 17)
        got_g0, got_gz = g0(dim, r), gz(dim, r, z)
        assert got_g0.shape == got_gz.shape == r.shape
        assert np.isscalar(g0(dim, 1.0)) and np.isscalar(gz(dim, 1.0, z))
        assert np.array_equal(got_g0[0], [g0(dim, x) for x in r[0]])
        assert np.array_equal(got_gz[0], [gz(dim, x, z) for x in r[0]])

    @pytest.mark.parametrize("z", [1.0, 1.0 + 0.5j])
    def test_real_z_is_float64(self, z):
        for dim in (1, 2, 3):
            assert gz(dim, np.ones(3), z).dtype == (np.float64 if z.imag == 0 else np.complex128)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_first_bad_radius_is_named(self, dim):
        with pytest.raises(NonpositiveRadius, match=r"g0 requires r > 0, got -2\.0"):
            g0(dim, [1.0, -2.0, 0.0])
        bad = [1.0, np.nan, -1.0]
        word = ">=" if dim == 1 else ">"
        with pytest.raises(NonpositiveRadius, match=f"gz requires r {word} 0 in dim {dim}, got nan"):
            gz(dim, bad, 1.0)

    def test_branch_cut_before_radius(self):
        with pytest.raises(BranchCut):
            gz(3, [-1.0], -1.0)


class TestRenormalizedDiagonal:
    def test_dim3(self):
        assert renormalized_diagonal(3, 1.0) == pytest.approx(1.0 / FOUR_PI, rel=1e-14)

    def test_dim2_euler_constant(self):
        # K0(x) = -log(x/2) - gamma + O(x^2 log x): at z = 4 the log term cancels
        want = np.euler_gamma / (2.0 * np.pi)
        assert abs(renormalized_diagonal(2, 4.0) - want) <= 1e-12

    def test_dim1(self):
        assert renormalized_diagonal(1, 1.0) == pytest.approx(-0.5)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("z", [1.0, 4.0, 2.0 + 1.0j])
    def test_matches_small_radius_limit(self, dim, z):
        # extrapolated from the sampled differences at r = 1e-3, 1e-4, 1e-5
        rs = np.array([1e-3, 1e-4, 1e-5])
        vals = np.array([g0(dim, r) - gz(dim, r, z) for r in rs])
        if dim == 3:
            # error is O(r): eliminate it linearly from the two smallest radii
            extrap = vals[2] + (vals[2] - vals[1]) * (rs[2] / (rs[1] - rs[2]))
        elif dim == 1:
            # error is O(r^2)
            extrap = vals[2] + (vals[2] - vals[1]) * (rs[2] ** 2 / (rs[1] ** 2 - rs[2] ** 2))
        else:
            # error is O(r^2 log r): already below 1e-9 at the smallest radius
            extrap = vals[2]
        assert abs(extrap - renormalized_diagonal(dim, z)) <= 1e-7


class TestPointSet:
    def test_rejects_coincident_points(self):
        with pytest.raises(InvariantError):
            PointSet(3, [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

    def test_rejects_empty(self):
        with pytest.raises(InvariantError):
            PointSet(1, [])

    def test_flat_coordinates_are_dim1(self):
        ps = PointSet(1, [0.0, 1.5])
        assert ps.n_points == 2
        with pytest.raises(InvariantError):
            PointSet(2, [0.0, 1.5])

    @pytest.mark.parametrize("dim, points, violation", [
        (2, [[0.0, 0.0, 0.0]], "points must have shape (N, 2), got (1, 3)"),
        (1, [0.0, float("nan")], "point coordinates must be finite"),
    ], ids=["shape", "nan"])
    def test_rejects_with_its_message(self, dim, points, violation):
        with pytest.raises(InvariantError) as err:
            PointSet(dim, points)
        assert err.value.violations == (violation,)

    @pytest.mark.parametrize("dim, points", [
        (1, [0.0, 1e200]),
        (1, [-1e308, 1e308]),
        (3, [[0.0, 0.0, 0.0], [1e200, 0.0, 0.0]]),
    ])
    def test_rejects_overflowing_distances(self, dim, points):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantError, match="too far apart"):
                PointSet(dim, points)

    @pytest.mark.parametrize("dim, points, violations", [
        (3, [[0.0, 0.0, 0.0], [1e-300, 0.0, 0.0]],
         ("points are too close: a squared pairwise distance underflows to 0",)),
        (1, [0.0, 1e-170, 0.0],
         ("coincident points are not allowed",
          "points are too close: a squared pairwise distance underflows to 0")),
        (2, [[1.0, 2.0], [1.0, 2.0]], ("coincident points are not allowed",)),
    ], ids=["underflow-3d", "both-1d", "coincident-2d"])
    def test_underflow_is_not_coincidence(self, dim, points, violations):
        with pytest.raises(InvariantError) as err:
            PointSet(dim, points)
        assert err.value.violations == violations


class TestGammaMatrix:
    def test_single_point_3d(self):
        ps = PointSet(3, [[0.0, 0.0, 0.0]])
        assert gamma_matrix(ps, 1.0)[0, 0] == pytest.approx(1.0 / FOUR_PI, rel=1e-14)

    def test_two_point_3d_offdiagonal(self):
        ps = PointSet(3, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        want = (1.0 - np.exp(-1.0)) / FOUR_PI
        m = gamma_matrix(ps, 1.0)
        assert m[0, 1] == pytest.approx(want, rel=1e-14)
        assert m[1, 0] == pytest.approx(want, rel=1e-14)

    @settings(max_examples=20, deadline=None)
    @given(
        dim=st.sampled_from([1, 2, 3]),
        re=st.floats(-3.0, 3.0),
        im=st.floats(0.1, 3.0),
        spread=st.floats(0.3, 2.0),
    )
    def test_conjugate_symmetry(self, dim, re, im, spread):
        z = complex(re, im)
        pts = np.array([[0.0] * dim, [spread] + [0.0] * (dim - 1)])
        ps = PointSet(dim, pts)
        lhs = gamma_matrix(ps, np.conj(z))
        rhs = gamma_matrix(ps, z).conj().T
        assert rel_err(lhs, rhs) <= 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_branch_cut(self, dim):
        ps = PointSet(dim, np.eye(2, dim) if dim > 1 else [0.0, 1.0])
        for z in (0.0, -1.0, -2.5 + 0.0j):
            with pytest.raises(BranchCut):
                gamma_matrix(ps, z)

    @settings(max_examples=20, deadline=None)
    @given(shift=st.floats(-50.0, 50.0))
    def test_translation_invariance(self, shift):
        base = np.array([[0.0, 0.0, 0.0], [0.7, -0.2, 0.4]])
        ps = PointSet(3, base)
        ps_shifted = PointSet(3, base + shift)
        assert rel_err(gamma_matrix(ps_shifted, 2.0), gamma_matrix(ps, 2.0)) <= 1e-12


class TestGammaMatrixAgainstReferences:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 8, 16])
    @pytest.mark.parametrize("z", [0.3, 4.0, 2.0 + 1.5j, -1.0 + 0.5j, 0.7 - 3.0j])
    def test_matches_complex_arithmetic_and_public_kernels(self, dim, n, z):
        rng = np.random.default_rng([dim, n])
        ps = PointSet(dim, rng.uniform(0.0, 4.0, size=(n, dim)))
        got = gamma_matrix(ps, z)
        assert rel_err(got, complex_gamma_matrix(ps, z)) <= 1e-12
        # the public kernels run the same array code: equal bit for bit
        r = ps.distances + np.eye(n)
        want = g0(dim, r) - gz(dim, r, z)
        np.fill_diagonal(want, renormalized_diagonal(dim, z))
        assert np.array_equal(got, want)
        if complex(z).imag == 0.0:
            assert np.array_equal(got, got.T)

    def test_far_apart_points_in_the_plane(self):
        # kappa r beyond the argument range of scipy's K0 routine: the far
        # entry reduces to g0 alone, as K0 has underflowed to zero there
        ps = PointSet(2, [[0.0, 0.0], [2e9, 0.0]])
        got = gamma_matrix(ps, 1.0)
        assert np.all(np.isfinite(got))
        assert got[0, 1] == pytest.approx(g0(2, 2e9), rel=1e-15)


class TestRealAxis:
    """On the positive real axis sqrt(z) is real, so the trace matrix is
    computed in real arithmetic; off it, in complex arithmetic."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("z", [1e-4, 0.3, 4.0, 250.0])
    def test_real_z_is_float64_and_matches_complex_arithmetic(self, dim, z):
        rng = np.random.default_rng([dim, 7])
        ps = PointSet(dim, rng.uniform(0.0, 4.0, size=(8, dim)))
        got = gamma_matrix(ps, z)
        assert got.dtype == np.float64
        assert np.array_equal(got, got.T)
        want = complex_gamma_matrix(ps, z)
        assert np.all(want.imag == 0.0)
        want = want.real
        # in ulps of the operands g0 and gz of each entry (the diagonal is
        # one term); in 2-d the entries also carry the disagreement of
        # Cephes k0 and AMOS kv, a few ulps of K0
        g0r = g0(dim, ps.distances + np.eye(8))
        scale = np.where(np.eye(8, dtype=bool), np.abs(want), np.abs(g0r) + np.abs(g0r - want))
        ulps = 8 if dim == 2 else 2
        assert np.all(np.abs(got - want) <= ulps * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("z", [2.0 + 1.5j, -1.0 + 0.5j, 2.0 - 1e-300j, -3.0 + 0.0j])
    def test_complex_z_stays_complex(self, dim, z):
        ps = PointSet(dim, np.eye(2, dim) if dim > 1 else [0.0, 1.0])
        if z.imag == 0.0:
            with pytest.raises(BranchCut):
                gamma_matrix(ps, z)
            return
        got = gamma_matrix(ps, z)
        assert got.dtype == np.complex128
        assert rel_err(got, complex_gamma_matrix(ps, z)) <= 1e-14

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_complex_typed_real_z_is_the_real_point(self, dim):
        ps = PointSet(dim, np.eye(3, dim) if dim > 1 else [0.0, 1.0, 2.5])
        assert np.array_equal(gamma_matrix(ps, 2.5 + 0j), gamma_matrix(ps, 2.5))
        assert gamma_matrix(ps, np.complex128(2.5)).dtype == np.float64


def _trace(ps, z, grid, fs):
    """The grid backend's trace map at z on the grid ``(lo, hi, n)``
    applied to the samples fs."""
    return LaplacianGrid1DEvaluator(ps, *grid).at(z).actions()[1](fs)


class TestGridTraceMap:
    def test_zero_input(self):
        ps = PointSet(1, [0.0])
        out = _trace(ps, 1.0, (-5.0, 5.0, 2001), np.zeros(2001))
        assert np.all(out == 0)

    def test_delta_sequence_limit(self):
        # unit-mass hats of shrinking width (kept on grid nodes); Richardson
        # in the width removes the O(w) kink term and the O(w^2) tail
        z = 2.0
        ps = PointSet(1, [0.0])
        grid = (-30.0, 30.0, 60_001)
        xs = np.linspace(*grid)

        def trace_of_hat(width):
            hat = np.where(np.abs(xs) <= width, (1.0 - np.abs(xs) / width) / width, 0.0)
            return _trace(ps, z, grid, hat)[0]

        v1, v2, v3 = trace_of_hat(0.08), trace_of_hat(0.04), trace_of_hat(0.02)
        extrap = (4.0 * (2.0 * v3 - v2) - (2.0 * v2 - v1)) / 3.0
        want = gz(1, 0.0, z)
        assert abs(extrap - want) <= 2e-4 * abs(want)

    def test_translation_covariance(self):
        z = 1.5
        xs = np.linspace(-20.0, 20.0, 4001)
        f = np.exp(-((xs - 0.3) ** 2))
        out = _trace(PointSet(1, [0.4, -1.0]), z, (-20.0, 20.0, 4001), f)
        shift = 3.0
        out_shifted = _trace(
            PointSet(1, [0.4 + shift, -1.0 + shift]), z, (-20.0 + shift, 20.0 + shift, 4001), f
        )
        assert np.max(np.abs(out - out_shifted)) <= 1e-12

    def test_grid_too_coarse(self):
        # step 1.0 > 1/(4 sqrt(z))
        with pytest.raises(GridTooCoarse):
            LaplacianGrid1DEvaluator(PointSet(1, [0.0]), -10.0, 10.0, 21).at(1.0).actions()

    def test_rejects_point_set_outside_dim_1_when_built(self):
        # before, this was accepted and the first resolvent apply died
        # with a raw numpy reshape error
        ps = PointSet(2, [[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(InvariantError, match="dim-1 point set"):
            LaplacianGrid1DEvaluator(ps, -5.0, 5.0, 201)

    @pytest.mark.parametrize("shape", [(10,), (12,), (11, 1)])
    def test_rejects_mismatched_samples(self, shape):
        with pytest.raises(InvariantError, match="does not match the grid"):
            _trace(PointSet(1, [0.0]), 1.0, (-1.0, 1.0, 11), np.zeros(shape))


class TestGridSourceMap:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 400),
        n_points=st.integers(1, 4),
        z=st.sampled_from([1.0, 2.5, 0.8 + 0.6j, -0.5 + 1.0j]),
    )
    def test_is_point_source_sum_bit_for_bit(self, seed, n, n_points, z):
        # the source map reuses the trace kernel the actions built
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-4.0, 0.0)
        hi = lo + 0.05 * (n - 1)
        ps = PointSet(1, np.sort(rng.uniform(lo, hi, n_points)))
        ell = rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points)
        got = LaplacianGrid1DEvaluator(ps, lo, hi, n).at(z).actions()[2](ell)
        assert np.array_equal(got, point_source_sum(ps, z, ell, np.linspace(lo, hi, n)))


def _dense_r_apply(xs, z, f):
    """Reference: the trapezoid convolution as a dense n x n kernel from
    the public ``gz``."""
    h = float(xs[1] - xs[0])
    w = np.full(xs.size, h)
    w[0] = w[-1] = h / 2.0
    return gz(1, np.abs(xs[:, None] - xs[None, :]), z) @ (w * f)


def _gaussian_resolvent(xs, z, width):
    """Closed form of ``int gz(|x - y|) exp(-y^2 / (2 s^2)) dy`` in dim 1.

    The half-line ``y < x`` contributes
    ``s sqrt(pi/2) e^{kappa^2 s^2 / 2 - kappa x} erfc((kappa s^2 - x) / (s sqrt 2))``
    and ``y > x`` the same with x -> -x.  With ``erfc = e^{-w^2} erfcx`` the
    exponentials combine to ``e^{-x^2 / (2 s^2)}``; that form is used where
    Re w >= 0, since erfcx overflows for Re w << 0.
    """
    kappa = np.sqrt(complex(z))
    s = float(width)

    def half(u):
        w = (kappa * s * s - u) / (s * np.sqrt(2.0))
        out = np.empty(u.shape, dtype=complex)
        big = w.real >= 0.0
        out[big] = np.exp(-(u[big] ** 2) / (2.0 * s * s)) * special.erfcx(w[big])
        out[~big] = np.exp(kappa**2 * s * s / 2.0 - kappa * u[~big]) * special.erfc(w[~big])
        return s * np.sqrt(np.pi / 2.0) * out

    return (half(xs) + half(-xs)) / (2.0 * kappa)


class TestGridResolvent1D:
    @pytest.mark.parametrize("n", [2, 3, 50, 400])
    @pytest.mark.parametrize("z", [2.0, 1.3 + 0.8j, -1.0 + 0.5j])
    def test_recurrence_matches_dense_kernel(self, n, z):
        rng = np.random.default_rng(n)
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ev = LaplacianGrid1DEvaluator(PointSet(1, [0.0]), -2.0, -2.0 + 0.05 * (n - 1), n)
        assert rel_err(ev.r_apply(z, f), _dense_r_apply(ev.xs, z, f)) <= 1e-12

    def test_gaussian_on_1e5_nodes_within_h_squared(self):
        ev = LaplacianGrid1DEvaluator(PointSet(1, [0.0]), -20.0, 20.0, 100_000)
        xs, h = ev.xs, ev.h
        z = 1.5 + 0.7j
        f = np.exp(-(xs**2) / (2.0 * 0.7**2))
        err = np.max(np.abs(ev.r_apply(z, f) - _gaussian_resolvent(xs, z, 0.7)))
        assert err <= h * h

    def test_grid_too_coarse(self):
        ev = LaplacianGrid1DEvaluator(PointSet(1, [0.0]), -10.0, 10.0, 21)
        with pytest.raises(GridTooCoarse, match="exceeds"):  # step 1.0 > 1/(4 sqrt(z))
            ev.r_apply(1.0, np.zeros(21))

    def test_step_is_kept_from_the_constructor(self):
        xs = np.linspace(-1.0, 2.0, 31)
        assert LaplacianGrid1DEvaluator(PointSet(1, [0.0]), -1.0, 2.0, 31).h == float(xs[1] - xs[0])

    @pytest.mark.parametrize("lo, hi, n", [
        (-1.0, 2.0, 31), (-14.0, 14.0, 3000), (0.1, 0.3, 2), (-8.0, 8.0, 1000), (-1e-300, 1e300, 7),
    ])
    def test_nodes_are_linspace(self, lo, hi, n):
        ev = LaplacianGrid1DEvaluator(PointSet(1, [0.0]), lo, hi, n)
        assert ev.xs.tobytes() == np.linspace(lo, hi, n).tobytes()

    def test_one_node_grid_is_invariant_error(self):
        with pytest.raises(InvariantError, match="n >= 2"):
            LaplacianGrid1DEvaluator(PointSet(1, [0.0]), 0.0, 1.0, 1)

    @pytest.mark.parametrize("lo, hi, n", [(1.0, -1.0, 11), (0.0, 0.0, 5)],
                             ids=["decreasing", "zero-width"])
    def test_nonuniform_or_decreasing_grid_is_invariant_error(self, lo, hi, n):
        with pytest.raises(InvariantError, match="finite lo < hi"):
            LaplacianGrid1DEvaluator(PointSet(1, [0.0]), lo, hi, n)

    @pytest.mark.parametrize("lo, hi, n", [
        (-np.inf, 1.0, 5), (-1.0, np.inf, 5), (np.nan, 1.0, 5), (-1.0, np.nan, 5),
        (-1.0, 1.0, 0), (-1.0, 1.0, -3),
    ])
    def test_non_finite_or_degenerate_grid_is_invariant_error(self, lo, hi, n):
        with pytest.raises(InvariantError) as err:
            LaplacianGrid1DEvaluator(PointSet(1, [0.0]), lo, hi, n)
        assert str(err.value) == f"grid needs finite lo < hi and n >= 2, got ({lo}, {hi}, {n})"


_PLANE = PointSet(2, [[0.0, 0.0], [1.0, 0.0]])
_LINE = PointSet(1, [-0.4, 0.7])
_SPACE = PointSet(3, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


class TestWrongFace:
    """A face called outside its dimension, point or grid raises its own
    typed error."""

    @pytest.mark.parametrize("call, error, message", [
        (lambda: _PLANE.displacements_1d(), InvariantError,
         "signed displacements only exist in dim 1"),
        (lambda: gbreve_g_radial_3d(_LINE, 4.0, 1.0), InvariantError,
         "radial product matrix requires dim 3"),
        (lambda: gbreve_g_quadrature_1d(_SPACE, 4.0, 1.0), InvariantError,
         "line product matrix requires dim 1"),
        (lambda: eigenfunction_l2_norm(_PLANE, [1.0, 0.0], 1.0), UnsupportedAction,
         "no product-matrix quadrature in dim 2"),
        (lambda: eigenfunction_l2_norm(_LINE, [1.0, 0.0], 1.0 + 0.5j), InvariantError,
         "l2 norm implemented for real z0 > 0 only"),
        (lambda: LaplacianGrid1DEvaluator(PointSet(1, [0.0]), -1.0, 1.0, 11)
         .r_apply(1.0, np.zeros(10)), InvariantError, "sample vector does not match the grid"),
    ], ids=["displacements-2d", "radial-1d", "line-3d", "l2-norm-2d", "l2-norm-complex",
            "r-apply-off-grid"])
    def test_raises_its_message(self, call, error, message):
        with pytest.raises(error) as err:
            call()
        assert str(err.value) == message


class TestProductMatrices:
    def test_radial_3d_matches_difference_identity(self):
        ps = PointSet(3, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        z, w = 1.0, 4.0
        prod = gbreve_g_radial_3d(ps, w, z)
        closed = (gamma_matrix(ps, z) - gamma_matrix(ps, w)) / (z - w)
        assert rel_err(prod, closed) <= 1e-8

    def test_grid_1d_matches_difference_identity(self):
        ps = PointSet(1, [-0.4, 0.7])
        z, w = 1.0, 4.0
        prod = gbreve_g_quadrature_1d(ps, w, z)
        closed = (gamma_matrix(ps, z) - gamma_matrix(ps, w)) / (z - w)
        assert rel_err(prod, closed) <= 1e-6


class TestProductMatrixComplex:
    # three and four points spaced exactly evenly repeat distances, so entries
    # come from the per-distance cache as well as fresh integrals
    @pytest.mark.parametrize(
        "ps",
        [
            PointSet(1, [-1.0, 0.0, 1.0]),
            PointSet(1, [-0.75, 0.0, 0.75, 1.5]),
            PointSet(3, [[0.0, 0.0, 0.0], [0.9, 0.0, 0.0], [1.8, 0.0, 0.0]]),
            PointSet(3, [[0.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 1.5, 0.0]]),
        ],
        ids=["1d-n3", "1d-n4", "3d-n3", "3d-n4"],
    )
    def test_matches_difference_identity(self, ps):
        w, z = 1.3 - 0.4j, 0.7 + 2.0j
        prod = (gbreve_g_quadrature_1d if ps.dim == 1 else gbreve_g_radial_3d)(ps, w, z)
        closed = (gamma_matrix(ps, z) - gamma_matrix(ps, w)) / (z - w)
        assert rel_err(prod, closed) <= 1e-12
        # equal distances give the one cached value
        assert prod[0, 1] == prod[1, 2] == prod[1, 0]
        assert np.all(np.diag(prod) == prod[0, 0])


class TestPointSourceSum:
    def test_linear_in_coefficients(self):
        ps = PointSet(1, [0.0, 1.0])
        xs = np.array([0.3, 2.0])
        a = point_source_sum(ps, 1.0, [1.0, 0.0], xs)
        b = point_source_sum(ps, 1.0, [0.0, 1j], xs)
        both = point_source_sum(ps, 1.0, [1.0, 1j], xs)
        assert np.allclose(a + b, both, atol=1e-15)

    def test_singularity_guard(self):
        ps = PointSet(3, [[0.0, 0.0, 0.0]])
        with pytest.raises(EvaluationAtSingularity):
            point_source_sum(ps, 1.0, [1.0], [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("z", [1.3, 1.3 + 0.7j])
    def test_dim2_matches_scalar_kernel_sum(self, z):
        ps = PointSet(2, [[0.0, 0.0], [1.0, 0.5], [-0.3, 1.2]])
        coeffs = np.array([1.0, -0.5 + 0.25j, 2.0j])
        xs = np.array([[0.4, -0.2], [2.0, 1.0], [-1.0, 3.0], [0.0, 1e-3]])
        got = point_source_sum(ps, z, coeffs, xs)
        want = [
            sum(c * gz(2, float(np.hypot(*(x - y))), z) for c, y in zip(coeffs, ps.points))
            for x in xs
        ]
        assert rel_err(got, want) <= 1e-13
        assert point_source_sum(ps, z, coeffs, xs[1]) == pytest.approx(want[1], rel=1e-13)

    def test_dim2_singularity_guard(self):
        ps = PointSet(2, [[0.0, 0.0], [1.0, 0.5]])
        with pytest.raises(EvaluationAtSingularity):
            point_source_sum(ps, 1.0, [1.0, 1.0], [[0.4, -0.2], [1.0, 0.5]])

    @pytest.mark.parametrize("coeffs", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]])
    def test_rejects_coefficient_shape(self, coeffs):
        with pytest.raises(InvariantError, match="expected 2 coefficients"):
            point_source_sum(PointSet(1, [0.0, 1.0]), 1.0, coeffs, [0.5])


# next to the cut, where Re sqrt(z) underflows to 0: sqrt(-4 + 5e-324j) is 2j
UNDERFLOW_Z = (-4.0 + 5e-324j, -4.0 - 5e-324j, -1e10 + 5e-324j)


def _point_set(dim):
    return PointSet(dim, np.eye(2, dim) if dim > 1 else [0.0, 1.0])


class TestUnderflowNextToBranchCut:
    """A z whose principal square root has real part 0 by underflow is on
    the essential spectrum as far as the kernels can tell: every path
    rejects it on the one ``Re sqrt(z) > 0`` test."""

    @pytest.mark.parametrize("z", UNDERFLOW_Z)
    def test_square_root_underflows(self, z):
        assert np.sqrt(z).real == 0.0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("z", UNDERFLOW_Z)
    def test_kernels_raise_branch_cut(self, dim, z):
        ps = _point_set(dim)
        calls = [
            lambda: gz(dim, 1.0, z),
            lambda: renormalized_diagonal(dim, z),
            lambda: gamma_matrix(ps, z),
            lambda: point_source_sum(ps, z, [1.0, 1.0], np.full(dim, 0.5)),
        ]
        if dim != 2:
            calls.append(lambda: _product_matrix(ps, z, 1.0))
        for call in calls:
            with pytest.raises(BranchCut, match="next to the branch cut"):
                call()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("z", UNDERFLOW_Z)
    def test_evaluators_reject_the_point(self, dim, z):
        with pytest.raises(OutsideResolventSet, match="is outside the resolvent set"):
            LaplacianPointEvaluator(_point_set(dim)).at(z)

    @pytest.mark.parametrize("z", UNDERFLOW_Z)
    def test_grid_backend_rejects_the_point(self, z):
        ev = LaplacianGrid1DEvaluator(_point_set(1), -4.0, 4.0, 9)
        with pytest.raises(OutsideResolventSet, match="is outside the resolvent set"):
            ev.at(z)
        with pytest.raises(BranchCut):
            ev.r_apply(z, np.ones(9))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_subnormal_real_part_is_accepted(self, dim):
        # sqrt(-4 + 1e-320j) keeps the subnormal real part 2.5e-321
        z = -4.0 + 1e-320j
        assert np.sqrt(z).real > 0.0
        got = LaplacianPointEvaluator(_point_set(dim)).at(z).gamma
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, gamma_matrix(_point_set(dim), z))
