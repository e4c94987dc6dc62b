import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kreinx import (
    InvariantError,
    Multiplier1D,
    MultiplierAnchoredEvaluator,
    PointSet,
    SymbolRangeHit,
    TailEstimateFailed,
    anchored_gamma_1d,
    gz,
    multiplier_gz_1d,
)
import kreinx.greens
import kreinx.multiplier
from kreinx.greens import _product_matrix, _sqrt_principal, _two_center_integral
from kreinx.multiplier import _inverse_transform, _pairwise_fourier_matrix, _parameters

from conftest import rel_err


def _product_matrix_1d(m, ps, w, z):
    """(trace map at w) o (source map at z) for a symbol: the pairwise
    transform of ``1 / ((w - m)(z - m))``, at checked w and z."""
    z, w = _parameters(m, z, w)
    return _pairwise_fourier_matrix(m, ps, 1.0, w, z)


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

    def test_trailing_zero_coefficients_are_stripped(self):
        m = Multiplier1D(poly=(0, 0, -1, 0))
        assert m.poly == (0.0, 0.0, -1.0)
        assert m(2.0) == -4.0

    def test_rejects_a_nan_coefficient(self):
        with pytest.raises(InvariantError) as err:
            Multiplier1D(poly=(float("nan"), 0.0, -1.0))
        assert err.value.violations == ("polynomial coefficients must be finite",)

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
            return 1.0 / (2.0 - second_order(xi))

        val = _inverse_transform(func, x, "test", even=True, real=True)
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
    # the correctly rounded sup 1.474442044636429 is one double below the
    # symbol as computed on the grid
    @example(coeffs=[0.0, 4.0], lead=2.712890625)
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
        rhs = (z - w) * _product_matrix_1d(second_order, ps, w, z)
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

    @pytest.mark.parametrize("build", [
        lambda m, ps: anchored_gamma_1d(m, ps, 2.5, 1.0),
        lambda m, ps: MultiplierAnchoredEvaluator(m, ps, 1.0),
    ], ids=["anchored_gamma_1d", "evaluator"])
    def test_rejects_a_dim_2_point_set(self, second_order, build):
        ps = PointSet(2, [[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(InvariantError) as err:
            build(second_order, ps)
        assert err.value.violations == ("multiplier backend requires a dim-1 point set",)

    def test_interval_check(self, second_order):
        ps = PointSet(1, [0.0])
        ev = MultiplierAnchoredEvaluator(second_order, ps, 1.0)
        assert ev.interval_in_resolvent_set(0.5, 2.0)
        assert not ev.interval_in_resolvent_set(-1.0, 2.0)

    @pytest.mark.parametrize("z, w0", [(2.5, 1.0), (1.0 + 0.5j, 1.0), (1.0, 1.0), (2.0, 1.0 + 0.5j)])
    def test_one_range_check_per_point(self, second_order, monkeypatch, z, w0):
        # at checks z once; the constructor checked the anchor
        ps = PointSet(1, [-0.4, 0.3])
        ev = MultiplierAnchoredEvaluator(second_order, ps, w0)
        calls, check = [], Multiplier1D.in_resolvent_set
        monkeypatch.setattr(
            Multiplier1D, "in_resolvent_set", lambda m, v: calls.append(v) or check(m, v)
        )
        got = ev.at(z).gamma
        assert calls == [z]
        want = anchored_gamma_1d(second_order, ps, z, w0)
        assert np.array_equal(_bits(got), _bits(want))
        assert (z == w0) == (not got.any())

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
        w, z = 2.5 - 0.25j, 3.0 + 0.5j

        def func(xi):
            mx = complex(m(xi))
            return 1.0 / ((w - mx) * (z - mx))

        disp = ps.displacements_1d()
        n = ps.n_points
        want = np.zeros((n, n), dtype=complex)
        cache = {}
        for j in range(n):
            for k in range(n):
                r = float(disp[j, k])
                if r not in cache:
                    cache[r] = _inverse_transform(
                        func, r, f"displacement {r!r}", even=m.is_even, real=False
                    )
                want[j, k] = cache[r]
        got = _pairwise_fourier_matrix(m, ps, 1.0, w, z)
        assert np.array_equal(_bits(got), _bits(want))


_SYMBOLS = [
    Multiplier1D(poly=(0.0, 0.0, -1.0)),
    Multiplier1D(poly=(0.0, 0.5, -1.0)),
    Multiplier1D(poly=(-2.0, 0.0, -1.0), cos_terms=((1.0, 2.0),)),
]
_SYMBOL_IDS = ["even", "odd", "cosine"]


def _complex_route(func, x, even):
    """(1/2pi) integral of e^{i xi x} func(xi) for a complex integrand,
    through ``quad(complex_func=True)`` with the QUADPACK settings of
    ``_inverse_transform`` and no error gate: the path every real point
    took before real integrands were integrated in float arithmetic."""
    from scipy.integrate import IntegrationWarning, quad

    def s_plus(t):
        return func(t) + func(t if even else -t)

    def s_minus(t):
        return func(t) - func(-t)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        if x == 0.0:
            val = quad(s_plus, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400,
                       complex_func=True)[0]
        else:
            kw = dict(wvar=abs(x), epsabs=1e-13, limit=400, limlst=150, complex_func=True)
            val = quad(s_plus, 0.0, np.inf, weight="cos", **kw)[0]
            if not even:
                sin_val = quad(s_minus, 0.0, np.inf, weight="sin", **kw)[0]
                val += 1j * (1.0 if x > 0 else -1.0) * sin_val
    return val / (2.0 * np.pi)


def _complex_route_matrix(m, ps, func):
    return np.array([
        [_complex_route(func, float(r), m.is_even) for r in row]
        for row in ps.displacements_1d()
    ])


class TestRealAxisQuadrature:
    """At real parameters the integrands are built in float arithmetic and
    integrated in one QUADPACK pass; the values must be the real parts of
    the complex route bit for bit (multiplier) or within 2 ulps of it
    (two-center integrals, where ``math.exp`` replaces ``np.exp``)."""

    @pytest.mark.parametrize("m", _SYMBOLS, ids=_SYMBOL_IDS)
    @pytest.mark.parametrize("z", [1.5, 4.0])
    def test_kernel_is_the_complex_route_bit_for_bit(self, m, z):
        zc = complex(z + m.range_max)
        for x in (0.0, 0.8, -1.3):
            got = multiplier_gz_1d(m, zc.real, x)
            want = _complex_route(lambda xi: 1.0 / (zc - complex(m(xi))), x, m.is_even)
            assert type(got) is complex
            assert np.complex128(got).tobytes() == np.complex128(want).tobytes()

    @pytest.mark.parametrize("m", _SYMBOLS, ids=_SYMBOL_IDS)
    def test_matrices_are_the_complex_route_bit_for_bit(self, m):
        ps = PointSet(1, [-0.4, 0.3, 1.1])
        z, w = complex(m.range_max + 2.5), complex(m.range_max + 1.0)

        def anchored(xi):
            mx = complex(m(xi))
            return (z - w) / ((w - mx) * (z - mx))

        def product(xi):
            mx = complex(m(xi))
            return 1.0 / ((w - mx) * (z - mx))

        got = anchored_gamma_1d(m, ps, z.real, w.real)
        assert np.array_equal(_bits(got), _bits(_complex_route_matrix(m, ps, anchored)))
        got = _product_matrix_1d(m, ps, w.real, z.real)
        assert np.array_equal(_bits(got), _bits(_complex_route_matrix(m, ps, product)))

    @pytest.mark.parametrize("dim, points", [
        (1, [-0.4, 0.7]),
        (1, [0.0, 0.5, 1.0, 1.5, 2.7]),
        (3, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        (3, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.3, 0.4, 1.2]]),
    ])
    @pytest.mark.parametrize("w, z", [(4.0, 1.0), (1.5, 2.0)])
    def test_product_matrix_within_two_ulps_of_the_complex_route(self, dim, points, w, z):
        ps = PointSet(dim, points)
        kw, kz = _sqrt_principal(w), _sqrt_principal(z)
        assert isinstance(kw, float) and isinstance(kz, float)
        denom = 4.0 * abs(kw * kz) if dim == 1 else 8.0 * np.pi
        bound = 1.0 / (denom * np.sqrt(kw * kz))
        # complex square roots take the complex route: np.exp and complex_func
        want = np.array([
            [_two_center_integral(dim, float(d), complex(kw), complex(kz), bound) for d in row]
            for row in ps.distances
        ])
        got = _product_matrix(ps, w, z)
        assert not want.imag.any() and not got.imag.any()
        assert np.all(np.abs(got.real - want.real) <= 2.0 * np.spacing(np.abs(want.real)))

    @pytest.mark.parametrize("m, z, x, message", [
        (Multiplier1D(poly=(0.0, 0.0, -1.0), cos_terms=((3.0, 0.5),)), 3.5, 0.0,
         "error estimate 2.978e-09 exceeds target at z=(3.5+0j), x=0.0"),
        (Multiplier1D(poly=(-2.0, 0.0, -1.0), cos_terms=((1.0, 2.0),)), 30.0, 1.0,
         "error estimate 1.058e-07 exceeds target at z=(30+0j), x=1.0"),
    ])
    def test_tail_estimate_failure_is_unchanged(self, m, z, x, message):
        # the messages the complex route raised at these points
        with pytest.raises(TailEstimateFailed, match=f"^{re.escape(message)}$"):
            multiplier_gz_1d(m, z, x)

    def test_complex_func_only_off_the_real_axis(self, monkeypatch):
        calls = []

        def spy(real_quad):
            def quad(*args, **kwargs):
                calls.append(kwargs.get("complex_func", False))
                return real_quad(*args, **kwargs)
            return quad

        monkeypatch.setattr(kreinx.multiplier, "quad", spy(kreinx.multiplier.quad))
        monkeypatch.setattr(kreinx.greens, "quad", spy(kreinx.greens.quad))
        odd = Multiplier1D(poly=(0.0, 0.5, -1.0))
        ps1, ps3 = PointSet(1, [-0.4, 0.7]), PointSet(3, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])

        multiplier_gz_1d(odd, 2.0, 0.8)
        anchored_gamma_1d(odd, ps1, 2.5, 1.0)
        _product_matrix_1d(odd, ps1, 1.0, 2.5)
        _product_matrix(ps1, 4.0, 1.0)
        _product_matrix(ps3, 4.0, 1.0)
        assert calls and not any(calls)

        for run in (
            lambda: multiplier_gz_1d(odd, 2.0 + 0.5j, 0.8),
            lambda: anchored_gamma_1d(odd, ps1, 2.5 + 0.5j, 1.0),
            lambda: _product_matrix_1d(odd, ps1, 1.0, 2.5 - 0.5j),
            lambda: _product_matrix(ps1, 4.0, 1.0 + 1.0j),
            lambda: _product_matrix(ps3, 4.0 - 1.0j, 1.0),
        ):
            calls.clear()
            run()
            assert calls and all(calls)
