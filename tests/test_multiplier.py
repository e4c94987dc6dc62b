import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinx import (
    InvariantError,
    Multiplier1D,
    MultiplierAnchoredEvaluator,
    PointSet,
    SymbolRangeHit,
    anchored_gamma_1d,
    gz,
    multiplier_gz_1d,
)
from kreinx.greens import _product_matrix, _sqrt_principal, _two_center_integral
from kreinx.multiplier import _inverse_transform, _pairwise_fourier_matrix, product_matrix_1d

from conftest import rel_err


@pytest.fixture(scope="module")
def second_order():
    return Multiplier1D(poly=(0.0, 0.0, -1.0))


@pytest.fixture(scope="module")
def differential_difference():
    # -xi^2 - (2 - 2 cos xi)
    return Multiplier1D(poly=(-2.0, 0.0, -1.0), cos_terms=((1.0, 2.0),))


class TestSymbolValidation:
    def test_rejects_odd_degree(self):
        with pytest.raises(InvariantError):
            Multiplier1D(poly=(0.0, 0.0, 0.0, -1.0))

    def test_rejects_positive_leading(self):
        with pytest.raises(InvariantError):
            Multiplier1D(poly=(0.0, 0.0, 1.0))

    def test_rejects_low_degree(self):
        with pytest.raises(InvariantError):
            Multiplier1D(poly=(1.0, -1.0))

    def test_rejects_bad_cosine_frequency(self):
        with pytest.raises(InvariantError):
            Multiplier1D(poly=(0.0, 0.0, -1.0), cos_terms=((0.0, 1.0),))

    def test_evenness_detection(self, second_order):
        assert second_order.is_even
        assert not Multiplier1D(poly=(0.0, 0.5, -1.0)).is_even


_coef = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def _symbols(draw):
    half = draw(st.integers(1, 4))
    lower = draw(st.lists(_coef, min_size=2 * half, max_size=2 * half))
    lead = -draw(st.floats(1e-3, 1e3))
    return Multiplier1D(poly=(*lower, lead))


class TestSymbolEvaluation:
    @settings(max_examples=200, deadline=None)
    @given(sym=_symbols(), xs=st.lists(_coef, min_size=1, max_size=6))
    def test_call_is_polyval_bit_for_bit(self, sym, xs):
        from numpy.polynomial.polynomial import polyval

        arr = np.array(xs)
        assert sym(arr).tobytes() == polyval(arr, sym.poly).tobytes()
        for x in xs:
            assert np.float64(sym(x)).tobytes() == np.float64(polyval(x, sym.poly)).tobytes()

    @pytest.mark.parametrize("x", [0.0, 1.3])
    def test_even_symbol_calls_func_once_per_node(self, second_order, x):
        nodes = []

        def func(xi):
            nodes.append(xi)
            return 1.0 / (2.0 - complex(second_order(xi)))

        val = _inverse_transform(func, x, "test", even=True)
        assert val == pytest.approx(gz(1, x, 2.0), rel=1e-8)
        assert nodes and all(a != b for a, b in zip(nodes, nodes[1:]))


class TestRangeMax:
    def test_pure_square(self, second_order):
        assert abs(second_order.range_max) < 1e-12

    def test_with_cosine_bump(self):
        # -xi^2 + 2 cos(xi) peaks at the origin with value 2
        sym = Multiplier1D(poly=(0.0, 0.0, -1.0), cos_terms=((1.0, 2.0),))
        assert sym.range_max == pytest.approx(2.0, abs=1e-9)

    def test_odd_symbol(self):
        # -xi^2 + xi/2 has maximum 1/16 at xi = 1/4
        sym = Multiplier1D(poly=(0.0, 0.5, -1.0))
        assert sym.range_max == pytest.approx(1.0 / 16.0, abs=1e-9)

    def test_differential_difference(self, differential_difference):
        assert differential_difference.range_max == pytest.approx(0.0, abs=1e-9)

    def test_double_well(self):
        # -(xi^2 - 1)^2 = -1 + 2 xi^2 - xi^4 peaks at xi = +-1 with value 0
        sym = Multiplier1D(poly=(-1.0, 0.0, 2.0, 0.0, -1.0))
        assert sym.range_max == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(
        coeffs=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=6),
        lead=st.floats(0.1, 5.0),
    )
    def test_closed_form_matches_the_numeric_sup(self, coeffs, lead):
        poly = tuple(coeffs[: 2 * (len(coeffs) // 2)]) + (-lead,)
        sym = Multiplier1D(poly=poly)
        # a zero cosine term leaves the symbol as it is but takes the
        # numeric route (grid plus bounded local maximization)
        numeric = Multiplier1D(poly=poly, cos_terms=((1.0, 0.0),)).range_max
        radius = max(1.0, 2.0 * (sum(abs(c) for c in poly[:-1]) + 1.0) / lead)
        grid_max = float(np.max(sym(np.linspace(-radius, radius, 20001))))
        assert sym.range_max >= grid_max
        assert abs(sym.range_max - numeric) <= 1e-12 * max(abs(numeric), 1.0)


class TestMultiplierGz:
    def test_matches_laplacian_at_origin(self, second_order):
        assert multiplier_gz_1d(second_order, 4.0, 0.0) == pytest.approx(0.25, rel=1e-9)

    def test_matches_laplacian_off_origin(self, second_order):
        want = np.exp(-2.0) / 4.0
        assert multiplier_gz_1d(second_order, 4.0, 1.0) == pytest.approx(want, rel=1e-9)

    def test_closed_form_grid(self, second_order):
        worst = 0.0
        for z in (0.5, 1.0, 2.0, 4.0, 8.0):
            for x in (0.0, 0.3, 1.0, 2.0, 3.5):
                got = multiplier_gz_1d(second_order, z, x)
                ref = gz(1, abs(x), z)
                worst = max(worst, abs(got - ref) / abs(ref))
        assert worst <= 1e-8

    def test_negative_offset_symmetry(self, second_order):
        a = multiplier_gz_1d(second_order, 2.0, 1.3)
        b = multiplier_gz_1d(second_order, 2.0, -1.3)
        assert abs(a - b) <= 1e-12 * abs(a)

    def test_range_hit(self, second_order):
        with pytest.raises(SymbolRangeHit):
            multiplier_gz_1d(second_order, -0.5, 0.0)
        with pytest.raises(SymbolRangeHit):
            multiplier_gz_1d(second_order, 0.0, 0.0)

    def test_mpmath_reference_without_closed_form(self, differential_difference):
        # gz(0) at z = 1 is (1/pi) int_0^inf dxi / (3 + xi^2 - 2 cos xi).
        # mpmath integrates it one period [2 pi k, 2 pi (k + 1)] at a time
        # up to L = 128 pi; the tail int_L^inf is 1/L - 1/L^3 + O(L^-5),
        # from 1/xi^2 - (3 - 2 cos xi)/xi^4 (the cosine part is O(L^-5)
        # because sin L = 0)
        mp = pytest.importorskip("mpmath")
        with mp.workdps(20):
            two_pi = 2 * mp.pi
            periods = mp.fsum(
                mp.quad(lambda t: 1 / (3 + t**2 - 2 * mp.cos(t)),
                        [two_pi * k, two_pi * (k + 1)])
                for k in range(64)
            )
            tail = 1 / (64 * two_pi) - 1 / (64 * two_pi) ** 3
            want = float((periods + tail) / mp.pi)
        got = multiplier_gz_1d(differential_difference, 1.0, 0.0)
        assert abs(got - want) <= 1e-8 * want

    def test_complex_z(self, second_order):
        z = 1.0 + 1.0j
        got = multiplier_gz_1d(second_order, z, 0.7)
        ref = gz(1, 0.7, z)
        assert abs(got - ref) <= 1e-8 * abs(ref)

    def test_quartic_symbol_against_direct_quadrature(self):
        from scipy.integrate import quad

        quartic = Multiplier1D(poly=(0.0, 0.0, -0.3, 0.0, -0.5))
        got = multiplier_gz_1d(quartic, 1.0, 0.0)
        ref, _ = quad(
            lambda t: 2.0 / (1.0 + 0.3 * t * t + 0.5 * t**4), 0.0, np.inf,
            limit=400,
        )
        ref /= 2.0 * np.pi
        assert abs(got - ref) <= 1e-10 * abs(ref)


class TestAnchoredGamma:
    def test_diagonal_closed_form(self, second_order):
        ps = PointSet(1, [0.0])
        out = anchored_gamma_1d(second_order, ps, 4.0, 1.0)
        # g_1(0) - g_4(0) = 1/2 - 1/4
        assert out[0, 0] == pytest.approx(0.25, abs=1e-8)

    def test_zero_at_anchor(self, second_order):
        ps = PointSet(1, [0.0, 1.0])
        assert np.all(anchored_gamma_1d(second_order, ps, 4.0, 4.0) == 0)

    def test_hermitian_for_real_parameters(self):
        sym = Multiplier1D(poly=(0.0, 0.5, -1.0))  # odd part present
        ps = PointSet(1, [0.0, 0.7])
        m = anchored_gamma_1d(sym, ps, 2.0, 1.0)
        assert np.max(np.abs(m - m.conj().T)) <= 1e-10

    def test_difference_identity_against_product(self, second_order):
        ps = PointSet(1, [0.0, 0.7])
        ev = MultiplierAnchoredEvaluator(second_order, ps, 1.0)
        z, w = 3.0, 1.5
        lhs = ev.at(z).gamma - ev.at(w).gamma
        rhs = (z - w) * product_matrix_1d(second_order, ps, w, z)
        assert rel_err(lhs, rhs) <= 1e-7

    def test_matches_laplacian_backend(self, second_order):
        from kreinx import gamma_matrix

        ps = PointSet(1, [-0.3, 0.5])
        z, w0 = 2.5, 1.0
        got = anchored_gamma_1d(second_order, ps, z, w0)
        want = gamma_matrix(ps, z) - gamma_matrix(ps, w0)
        assert rel_err(got, want) <= 1e-8


class TestAnchoredEvaluator:
    def test_anchor_must_be_admissible(self, second_order):
        ps = PointSet(1, [0.0])
        with pytest.raises(SymbolRangeHit):
            MultiplierAnchoredEvaluator(second_order, ps, -1.0)

    def test_interval_check(self, second_order):
        ps = PointSet(1, [0.0])
        ev = MultiplierAnchoredEvaluator(second_order, ps, 1.0)
        assert ev.interval_in_resolvent_set(0.5, 2.0)
        assert not ev.interval_in_resolvent_set(-1.0, 2.0)

    @pytest.mark.parametrize("symbol", [
        Multiplier1D(poly=(0.0, 0.0, -1.0)),
        Multiplier1D(poly=(0.0, 0.5, -1.0)),
        Multiplier1D(poly=(-2.0, 0.0, -1.0), cos_terms=((1.0, 2.0),)),
    ], ids=["even", "odd", "cosine"])
    @pytest.mark.parametrize("lam", [0.5, 2.5])
    def test_gamma_exactly_hermitian_at_real_lambda(self, symbol, lam):
        # the scan checks hermiticity at its window ends only and reads the
        # pencil in between as it is: entries (j, k) and (k, j) are the
        # transforms at +d and -d, each QUADPACK run on |d| with the same
        # integrand, so the cosine parts agree bit for bit and the sine
        # part (odd symbols) only flips sign
        ev = MultiplierAnchoredEvaluator(symbol, PointSet(1, [-0.4, 0.3, 1.1]), 1.0)
        g = ev.at(lam).gamma
        assert np.array_equal(g, g.conj().T)
        assert symbol.is_even == (not g.imag.any())


def _bits(m):
    return np.ascontiguousarray(m).view(np.uint64)


class TestPerKeyMatrix:
    """The one-integral-per-key helper behind the Laplacian product matrix
    and the multiplier matrices, against the per-entry loops it replaced,
    kept here as the reference; the products are compared bit for bit."""

    @pytest.mark.parametrize("dim, points", [
        (1, [0.0, 0.5, 1.0, 1.5, 2.7]),
        (3, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.3, 0.4, 1.2]]),
    ])
    def test_laplacian_product_matrix(self, dim, points):
        ps = PointSet(dim, points)
        w, z = 1.5 + 0.5j, 2.0 - 0.25j
        kw, kz = _sqrt_principal(w), _sqrt_principal(z)
        denom = 4.0 * abs(kw * kz) if ps.dim == 1 else 8.0 * np.pi
        bound = 1.0 / (denom * np.sqrt(kw.real * kz.real))
        cache = {}
        want = np.empty((ps.n_points, ps.n_points), dtype=complex)
        for (k, j), d in np.ndenumerate(ps.distances):
            d = float(d)
            if d not in cache:
                cache[d] = _two_center_integral(ps.dim, d, kw, kz, bound)
            want[k, j] = cache[d]
        assert np.array_equal(_bits(_product_matrix(ps, w, z)), _bits(want))

    def test_multiplier_matrix(self, differential_difference):
        m = differential_difference
        ps = PointSet(1, [0.0, 0.6, 1.2, 2.0])
        z = 3.0 + 0.5j

        def func(xi):
            return 1.0 / (z - complex(m(xi)))

        disp = ps.displacements_1d()
        n = ps.n_points
        want = np.zeros((n, n), dtype=complex)
        cache = {}
        for j in range(n):
            for k in range(n):
                r = float(disp[j, k])
                if r not in cache:
                    cache[r] = _inverse_transform(
                        func, r, f"displacement {r!r}", even=m.is_even
                    )
                want[j, k] = cache[r]
        got = _pairwise_fourier_matrix(m, ps, func)
        assert np.array_equal(_bits(got), _bits(want))
