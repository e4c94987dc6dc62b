import json
import sys
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinx import (
    InvariantError,
    LaplacianGrid1DEvaluator,
    LaplacianPointEvaluator,
    MatrixEvaluator,
    MultiplierAnchoredEvaluator,
    SchemaError,
    scan_spectrum,
)
from kreinx.config import (
    ProblemConfig,
    ScanWindow,
    _complex_array,
    _complex_entry,
    build_problem,
    parse_config,
)

from conftest import count_eighs

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

MINIMAL_3D = {
    "backend": "laplacian3d",
    "points": [[0.0, 0.0, 0.0]],
    "theta": [[-0.0795774715]],
    "scan": {"a": 0.5, "b": 2.0, "grid": 64},
}


class TestParse:
    def test_minimal_laplacian3d_parses_and_solves(self):
        cfg = parse_config(json.dumps(MINIMAL_3D))
        rep = scan_spectrum(build_problem(cfg), (cfg.scan.a, cfg.scan.b))
        # the coupling is the truncated-decimal -1/(4 pi), so the root sits
        # next to 1 rather than on it
        assert abs(rep.roots[0].z0 - 1.0) < 1e-6

    def test_nonhermitian_theta_rejected(self):
        bad = dict(MINIMAL_3D, theta=[[0.0, 1.0], [0.0, 0.0]],
                   points=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        cfg = parse_config(json.dumps(bad))
        with pytest.raises(InvariantError, match="hermitian"):
            build_problem(cfg)

    def test_laplacian_scan_must_avoid_cut(self):
        bad = dict(MINIMAL_3D, scan={"a": -1.0, "b": 2.0})
        cfg = parse_config(json.dumps(bad))
        with pytest.raises(InvariantError, match="essential spectrum"):
            build_problem(cfg)

    def test_unknown_key_listed(self):
        bad = dict(MINIMAL_3D, bogus=1, also_bogus=2)
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(bad))
        text = str(err.value)
        assert "bogus" in text and "also_bogus" in text

    def test_every_schema_violation_reported(self):
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps({"backend": "laplacian1d"}))
        assert len(err.value.violations) >= 2  # missing theta and points

    def test_coincident_points_rejected(self):
        bad = dict(
            MINIMAL_3D,
            points=[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            theta=[[1.0, 0.0], [0.0, 1.0]],
        )
        cfg = parse_config(json.dumps(bad))
        with pytest.raises(InvariantError, match="coincident"):
            build_problem(cfg)

    def test_theta_size_must_match_points(self):
        bad = dict(MINIMAL_3D, points=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        cfg = parse_config(json.dumps(bad))
        with pytest.raises(InvariantError, match="1x1 but the backend has 2 charges"):
            build_problem(cfg)

    def test_invalid_json(self):
        with pytest.raises(SchemaError, match="JSON"):
            parse_config("{nope")

    def test_complex_entries_both_forms(self):
        cfg = parse_config(json.dumps({
            "backend": "matrix",
            "matrix": {"a": [[1.0, 0.0], [0.0, -1.0]], "tau": [[1.0, 1.0]]},
            "theta": [[[2.0, 0.0]]],
            "z": [0.0, 2.0],
        }))
        assert cfg.theta[0][0] == 2.0 + 0.0j
        assert cfg.z == 2.0j


MATRIX_2 = {
    "backend": "matrix",
    "matrix": {"a": [[1.0, 0.0], [0.0, -1.0]], "tau": [[1.0, 1.0]]},
    "theta": [[1.0]],
}


MATRIX_1 = {"backend": "matrix", "matrix": {"a": [[1.0]], "tau": [[1.0]]}, "theta": [[1.0]]}
MULTIPLIER = {
    "backend": "multiplier1d",
    "points": [0.0],
    "symbol": {"poly": [0.0, 0.0, -1.0], "anchor": 1.0},
    "theta": [[0.0]],
}
LAPLACIAN_1D = {"backend": "laplacian1d", "points": [0.0], "theta": [[1.0]]}
GRID_1D = {"lo": -4.0, "hi": 4.0, "n": 3}


class TestSchemaMessages:
    """Every message of the schema phase, pinned exactly."""

    @pytest.mark.parametrize("raw, violations", [
        ([1, 2], ("top level must be a JSON object",)),
        (dict(MINIMAL_3D, backend="laplacian4d"), (
            "backend must be one of ('matrix', 'laplacian1d', 'laplacian2d', 'laplacian3d', "
            "'multiplier1d'), got 'laplacian4d'",
            "backend 'matrix' requires a 'matrix' object with 'a' and 'tau'",
            "'points' is invalid for backend 'matrix'",
        )),
        (dict(MATRIX_1, matrix=[[1.0]]),
         ("backend 'matrix' requires a 'matrix' object with 'a' and 'tau'",)),
        (dict(MATRIX_1, matrix={"a": [[1.0]], "tau": [[1.0]], "b": [[1.0]]}),
         ("matrix.b: unknown key",)),
        (dict(MINIMAL_3D, matrix=MATRIX_1["matrix"]),
         ("'matrix' payload is invalid for backend 'laplacian3d'",)),
        (dict(MATRIX_1, points=[0.0]), ("'points' is invalid for backend 'matrix'",)),
        (dict(MINIMAL_3D, symbol=MULTIPLIER["symbol"]),
         ("'symbol' is invalid for backend 'laplacian3d'",)),
        (dict(MULTIPLIER, symbol=[0.0, 0.0, -1.0]),
         ("backend 'multiplier1d' requires a 'symbol' object",)),
        (dict(MULTIPLIER, symbol=dict(MULTIPLIER["symbol"], degree=2)),
         ("symbol.degree: unknown key",)),
        (dict(MULTIPLIER, symbol={"poly": [], "anchor": 1.0}),
         ("symbol.poly: expected a list of numbers",)),
        (dict(MULTIPLIER, symbol=dict(MULTIPLIER["symbol"], cos=[[1.0, 0.5, 2.0]])),
         ("symbol.cos: expected a list of [frequency, coefficient] pairs",)),
        (dict(MULTIPLIER, symbol={"poly": [0.0, 0.0, -1.0]}),
         ("symbol.anchor: required (the reference point of the anchored difference)",)),
        (dict(MINIMAL_3D, scan=[0.5, 2.0]),
         ("scan: expected an object with 'a', 'b', optional 'grid'",)),
        (dict(MINIMAL_3D, scan={"a": 0.5, "b": 2.0, "step": 0.1}), ("scan.step: unknown key",)),
        (dict(MINIMAL_3D, tolerances=1e-10), ("tolerances: expected an object",)),
        (dict(MINIMAL_3D, tolerances={"tol_root": 1e-10, "tol_abs": 1e-12}),
         ("tolerances.tol_abs: unknown key",)),
        (dict(MATRIX_1, z=1.0, f=[]), ("f: expected a nonempty list",)),
        (dict(LAPLACIAN_1D, grid1d=[-4.0, 4.0, 101]),
         ("grid1d: expected an object with 'lo', 'hi', 'n'",)),
        (dict(LAPLACIAN_1D, grid1d={"lo": -4.0, "hi": 4.0, "n": 101, "step": 0.08}),
         ("grid1d.step: unknown key",)),
        (dict(MATRIX_1, grid1d=GRID_1D), ("'grid1d' is invalid for backend 'matrix'",)),
        (dict(LAPLACIAN_1D, backend="laplacian2d", points=[[0.0, 0.0]], grid1d=GRID_1D),
         ("'grid1d' is invalid for backend 'laplacian2d'",)),
        (dict(MINIMAL_3D, grid1d=GRID_1D), ("'grid1d' is invalid for backend 'laplacian3d'",)),
        (dict(MULTIPLIER, grid1d=GRID_1D), ("'grid1d' is invalid for backend 'multiplier1d'",)),
        (dict(MATRIX_1, matrix={"a": [[2.0]]}), ("missing required key 'matrix.tau'",)),
        (dict(MATRIX_1, matrix={"tau": [[1.0]], "b": [[1.0]]}),
         ("matrix.b: unknown key", "missing required key 'matrix.a'")),
        (dict(MINIMAL_3D, scan={"b": 1.5}), ("missing required key 'scan.a'",)),
        (dict(MINIMAL_3D, scan={"grid": 64}),
         ("missing required key 'scan.a'", "missing required key 'scan.b'")),
        (dict(LAPLACIAN_1D, grid1d={"hi": 4.0, "n": 3}), ("missing required key 'grid1d.lo'",)),
        (dict(LAPLACIAN_1D, grid1d={"lo": -4.0, "hi": 4.0}), ("missing required key 'grid1d.n'",)),
        (dict(MATRIX_1, theta=[[1.0, 0.0], [0.0]]), ("theta: rows have unequal lengths [1, 2]",)),
        (dict(MATRIX_1, theta=[1.0]), ("theta: expected a nested list of rows, got [1.0]",)),
        (dict(MINIMAL_3D, points=[]), ("points: expected a nonempty list of points",)),
        (dict(MINIMAL_3D, points=[0.0]), ("points[0]: flat coordinates only valid in dim 1",)),
        (dict(MINIMAL_3D, points=[[0.0, 0.0]]),
         ("points[0]: expected 3 coordinates, got [0.0, 0.0]",)),
    ], ids=[
        "top-level-list", "unknown-backend", "matrix-not-object", "matrix-unknown-key",
        "matrix-wrong-backend", "points-wrong-backend", "symbol-wrong-backend",
        "symbol-not-object", "symbol-unknown-key", "symbol-empty-poly", "symbol-bad-cos",
        "symbol-no-anchor", "scan-not-object", "scan-unknown-key", "tolerances-not-object",
        "tolerances-unknown-key", "f-empty", "grid1d-not-object", "grid1d-unknown-key",
        "grid1d-on-matrix", "grid1d-on-laplacian2d", "grid1d-on-laplacian3d",
        "grid1d-on-multiplier1d",
        "matrix-no-tau", "matrix-unknown-and-missing", "scan-no-a", "scan-no-ends",
        "grid1d-no-lo", "grid1d-no-n",
        "ragged-rows", "rows-not-lists", "points-empty", "points-flat-in-3d",
        "points-short-row",
    ])
    def test_violations(self, raw, violations):
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(raw))
        assert err.value.violations == violations


class TestMatrixEntries:
    def test_bad_entry_message_names_its_path(self):
        a = [[1.0, 0.0, 0.0], [0.0, 2.0, "x"], [0.0, 0.0, 3.0]]
        bad = dict(MATRIX_2, matrix={"a": a, "tau": [[1.0, 0.0, 0.0]]})
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(bad))
        assert err.value.violations == (
            "matrix.a[1][2]: expected a number or [re, im] pair, got 'x'",
        )

    def test_json_true_entry_rejected(self):
        bad = dict(MATRIX_2, matrix={"a": [[1.0, 0.0], [0.0, True]], "tau": [[1.0, 1.0]]})
        with pytest.raises(SchemaError, match=r"matrix\.a\[1\]\[1\]: .* got True"):
            parse_config(json.dumps(bad))

    def test_bad_f_entry_message(self):
        bad = dict(MATRIX_2, f=[1.0, None])
        with pytest.raises(SchemaError, match=r"f\[1\]: expected a number"):
            parse_config(json.dumps(bad))

    def test_integer_and_float_entries_parse_alike(self):
        cfg = parse_config(json.dumps(dict(MATRIX_2, f=[1, [2, -3]])))
        same = parse_config(json.dumps(dict(MATRIX_2, f=[1.0, [2.0, -3.0]])))
        assert _bits(cfg) == _bits(same)
        assert _bits(cfg.f) == _bits(np.array([1.0 + 0j, 2.0 - 3.0j]))
        assert _bits(cfg.matrix_a) == _bits(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_plain_float_matrix_is_float64(self):
        cfg = parse_config(json.dumps(dict(MATRIX_2, f=[1.0, -0.0])))
        for arr in (cfg.theta, cfg.matrix_a, cfg.matrix_tau, cfg.f):
            assert arr.dtype == np.float64
        assert _bits(cfg.f) == _bits(np.array([1.0, -0.0]))

    @pytest.mark.parametrize("entry", [[2.0, 0.0], 2], ids=["pair", "integer"])
    def test_one_pair_or_integer_makes_the_matrix_complex128(self, entry):
        a = [[1.0, 0.0, 0.0], [0.0, entry, 0.0], [0.0, 0.0, -1.0]]
        cfg = parse_config(json.dumps(dict(
            MATRIX_2, matrix={"a": a, "tau": [[1.0, 1.0, 0.0]]}, f=[1.0, entry, 0.5],
        )))
        want = np.diag([1.0, 2.0, -1.0]).astype(complex)
        assert _bits(cfg.matrix_a) == _bits(want)
        assert _bits(cfg.f) == _bits(np.array([1.0, 2.0, 0.5], dtype=complex))
        assert cfg.matrix_tau.dtype == np.float64

    def test_all_four_arrays_are_read_only(self):
        cfg = parse_config(json.dumps(dict(MATRIX_2, f=[1, [2, -3]])))
        for arr in (cfg.theta, cfg.matrix_a, cfg.matrix_tau, cfg.f):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 5.0


# JSON values a matrix row may hold: finite floats (the fast branch takes
# rows of nothing else), ints including one beyond float range, booleans,
# [re, im] pairs, strings, null and nested lists
_json_float = st.floats(allow_nan=False, allow_infinity=False)
_json_entry = st.one_of(
    _json_float,
    st.integers(-10**6, 10**6),
    st.just(10**400),
    st.booleans(),
    st.lists(_json_float, min_size=2, max_size=2),
    st.text(max_size=3),
    st.none(),
    st.lists(st.lists(_json_float, max_size=2), max_size=2),
)


class TestRowFastBranch:
    """``_complex_array`` against the per-entry path it short-cuts: a row
    of plain floats is float64 with the entry path's values, any other
    row complex128."""

    @settings(max_examples=200, deadline=None)
    @given(row=st.one_of(
        st.lists(_json_float, max_size=8),
        st.lists(st.one_of(_json_float, _json_entry), max_size=8),
    ))
    def test_fast_branch_matches_entry_path(self, row):
        row = json.loads(json.dumps(row))
        errs, want_errs = [], []
        got = _complex_array([row], ["matrix.a[3]"], errs)[0]
        want = np.array(
            [_complex_entry(c, f"matrix.a[3][{j}]", want_errs) for j, c in enumerate(row)],
            dtype=complex,
        )
        plain = all(type(c) is float for c in row)
        assert got.dtype == (np.float64 if plain else np.complex128)
        assert _bits(got.astype(complex)) == _bits(want)
        assert errs == want_errs

    @settings(max_examples=50, deadline=None)
    @given(row=st.lists(_json_entry, min_size=1, max_size=4), at=st.integers(0, 3))
    def test_parse_reports_the_entry_path_violations(self, row, at):
        f = [0.5, -1.0, 2.0, 0.25]
        f[at:at + 1] = row
        want_errs = []
        want = tuple(
            _complex_entry(c, f"f[{j}]", want_errs)
            for j, c in enumerate(json.loads(json.dumps(f)))
        )
        payload = json.dumps(dict(MATRIX_2, f=f))
        if want_errs:
            with pytest.raises(SchemaError) as err:
                parse_config(payload)
            assert list(err.value.violations) == want_errs
        else:
            got = parse_config(payload).f
            plain = all(type(c) is float for c in json.loads(json.dumps(f)))
            assert got.dtype == (np.float64 if plain else np.complex128)
            assert _bits(got.astype(complex)) == _bits(np.array(want))


class TestNumberRange:
    HUGE = 10**400

    @pytest.mark.parametrize("payload, path", [
        (dict(MATRIX_2, theta=[[HUGE]]), r"theta\[0\]\[0\]"),
        (dict(MINIMAL_3D, scan={"a": HUGE, "b": 2.0}), r"scan\.a"),
    ])
    def test_integer_beyond_float_range_is_schema_error(self, payload, path):
        with pytest.raises(SchemaError, match=path):
            parse_config(json.dumps(payload))

    def test_integer_over_the_digit_limit_is_schema_error(self):
        text = json.dumps(MATRIX_2).replace("[[1.0]]", "[[1" + "0" * 5000 + "]]")
        with pytest.raises(SchemaError, match="JSON"):
            parse_config(text)


# doubles at the edges of the format and of decimal rounding
_edge_float = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    sys.float_info.max, -sys.float_info.max, 0.1, 1e22, 1e23, 2.0**53 + 2, 2.0**63, 2.0**64,
])
_edge_int = st.sampled_from([2**53 + 1, -2**63 - 1, -2**63, 2**63, 2**64 - 1, 2**64, 10**20])
_number = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), _edge_float,
    st.integers(-2**70, 2**70), _edge_int,
)
_json_value = st.recursive(
    st.one_of(_number, st.text(max_size=4), st.booleans(), st.none()),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids, max_size=4),
    max_leaves=16,
)


def _as_orjson_reads(v):
    """``v`` as orjson reads its JSON text: an integer outside the 64-bit
    range becomes its correctly rounded double."""
    if type(v) is int and not -2**63 <= v < 2**64:
        return float(v)
    if isinstance(v, list):
        return [_as_orjson_reads(c) for c in v]
    if isinstance(v, dict):
        return {k: _as_orjson_reads(c) for k, c in v.items()}
    return v


def _refuse(text):
    raise orjson.JSONDecodeError("refused", "", 0)


def _stdlib_route(text):
    """``parse_config`` with orjson refusing every text."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orjson, "loads", _refuse)
        return parse_config(text)


def _parsers_called(monkeypatch, text):
    """The config and the parsers ``parse_config`` called, in order."""
    calls = []
    for module, name in ((orjson, "orjson"), (json, "json")):
        def spy(text, _loads=module.loads, _name=name):
            calls.append(_name)
            return _loads(text)
        monkeypatch.setattr(module, "loads", spy)
    return parse_config(text), calls


def _bits(x, dtype=None):
    """A config (by fields) or a value, every number exactly: a scalar as
    the hex of its complex value, an array as its dtype, shape and bytes
    (cast to ``dtype`` first, if given), so -0.0 and 0.0 differ."""
    if isinstance(x, ProblemConfig):
        x = astuple(x)
    if isinstance(x, tuple):
        return tuple(_bits(v, dtype) for v in x)
    if isinstance(x, np.ndarray):
        x = x if dtype is None else x.astype(dtype)
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (float, complex)):
        return (complex(x).real.hex(), complex(x).imag.hex())
    return x


_entry = _number | st.lists(_number, min_size=2, max_size=2)


def _rows(k, m):
    return st.lists(st.lists(_entry, min_size=m, max_size=m), min_size=k, max_size=k)


@st.composite
def _valid_configs(draw):
    """Configs the schema phase accepts, numbers of every JSON form."""
    n = draw(st.integers(1, 4))
    cfg = {"backend": draw(st.sampled_from(["matrix", "laplacian1d"])), "theta": draw(_rows(1, 1))}
    if cfg["backend"] == "matrix":
        cfg["matrix"] = {"a": draw(_rows(n, n)), "tau": draw(_rows(1, n))}
    else:
        cfg["points"] = draw(st.lists(_number, min_size=1, max_size=3))
        cfg["grid1d"] = {"lo": draw(_number), "hi": draw(_number),
                         "n": draw(st.integers(-5, 10**20) | _edge_int)}
    if draw(st.booleans()):
        cfg["scan"] = {"a": draw(_number), "b": draw(_number),
                       "grid": draw(st.integers(3, 10**20) | _edge_int.filter(lambda v: v >= 3))}
    if draw(st.booleans()):
        cfg["z"] = draw(_entry)
        cfg["f"] = draw(st.lists(_entry, min_size=1, max_size=n))
    if draw(st.booleans()):
        cfg["tolerances"] = {"tol_linear": draw(_number), "tol_root": draw(_number)}
    return cfg


class TestParsers:
    """orjson reads a config first, ``json.loads`` when orjson or the schema
    rejects what it read: the two routes give the same config, and every
    error is the stdlib route's."""

    @settings(max_examples=300, deadline=None)
    @given(value=_json_value, ascii=st.booleans())
    def test_orjson_reads_what_json_reads(self, value, ascii):
        text = json.dumps(value, ensure_ascii=ascii)
        # repr tells an int from a float and -0.0 from 0.0
        assert repr(orjson.loads(text)) == repr(_as_orjson_reads(json.loads(text)))

    @settings(max_examples=150, deadline=None)
    @given(cfg=_valid_configs())
    def test_both_routes_give_the_same_config(self, cfg):
        text = json.dumps(cfg)
        # orjson reads an integer beyond 64 bits as its double, so an array
        # holding one may be float64 on that route and complex128 on the
        # stdlib's, with the same values
        exact = repr(_as_orjson_reads(cfg)) == repr(cfg)
        dtype = None if exact else complex
        assert _bits(parse_config(text), dtype) == _bits(_stdlib_route(text), dtype)

    @pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.json")), ids=lambda p: p.name)
    def test_committed_configs_read_alike_on_the_orjson_route(self, monkeypatch, path):
        text = path.read_text(encoding="utf-8")
        cfg, calls = _parsers_called(monkeypatch, text)
        assert calls == ["orjson"]  # no silent fallback
        assert _bits(cfg) == _bits(_stdlib_route(text))

    def test_integer_scan_grid_beyond_64_bits_is_accepted(self, monkeypatch):
        text = json.dumps(dict(MINIMAL_3D, scan={"a": 0.5, "b": 2.0, "grid": 10**20}))
        cfg, calls = _parsers_called(monkeypatch, text)
        # orjson reads 1e20, a float, which the integer field rejects
        assert calls == ["orjson", "json"]
        want = parse_config(json.dumps(dict(MINIMAL_3D, scan={"a": 0.5, "b": 2.0})))
        assert _bits(cfg) == _bits(want)

    def test_integer_grid1d_n_beyond_64_bits_reaches_the_memory_check(self, monkeypatch):
        text = json.dumps({
            "backend": "laplacian1d", "points": [0.0], "theta": [[0.5]],
            "grid1d": {"lo": -4.0, "hi": 4.0, "n": 10**20},
        })
        cfg, calls = _parsers_called(monkeypatch, text)
        assert calls == ["orjson", "json"]
        assert cfg.grid1d.n == 10**20
        with pytest.raises(InvariantError) as err:
            build_problem(cfg)
        assert err.value.violations == ("grid1d.n: 100000000000000000000 nodes do not fit in memory",)

    @pytest.mark.parametrize("change, message", [
        ('"z": [0.3, NaN]', "z must be finite"),
        ('"z": Infinity', "z must be finite"),
        ('"f": [1.0, NaN]', "f entries must be finite"),
        ('"f": [1.0, -1e400]', "f entries must be finite"),
    ])
    def test_non_finite_literals_take_the_stdlib_route(self, monkeypatch, change, message):
        text = json.dumps(MATRIX_2)[:-1] + ", " + change + "}"
        cfg, calls = _parsers_called(monkeypatch, text)
        assert calls == ["orjson", "json"]
        with pytest.raises(InvariantError, match=message):
            build_problem(cfg)

    @pytest.mark.parametrize("text", [
        "{nope",
        json.dumps(dict(MATRIX_2, z="\ud800")),
        json.dumps(MATRIX_2).replace("[[1.0]]", "[[1" + "0" * 5000 + "]]"),
        "\ufeff" + json.dumps(MATRIX_2),
    ], ids=["syntax", "lone-surrogate", "digit-limit", "bom"])
    def test_errors_are_the_stdlib_routes(self, text):
        with pytest.raises(SchemaError) as err:
            parse_config(text)
        with pytest.raises(SchemaError) as want:
            _stdlib_route(text)
        assert err.value.violations == want.value.violations

    @settings(max_examples=300, deadline=None)
    @given(
        value=_valid_configs() | _json_value,
        ascii=st.booleans(),
        cut=st.integers(0, 2**16),
        insert=st.sampled_from([
            b"", b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xef\xbb\xbf", b"\x80",
            "\u00e9".encode(), "\u2028".encode(), "\U0001f600".encode(),
        ]),
    )
    def test_bytes_read_as_their_utf8_text(self, value, ascii, cut, insert):
        data = json.dumps(value, ensure_ascii=ascii).encode("utf-8")
        cut %= len(data) + 1
        data = data[:cut] + insert + data[cut:]

        def outcome(parse):
            try:
                return _bits(parse(data))
            except (SchemaError, UnicodeDecodeError) as exc:
                return type(exc).__name__, str(exc)

        assert outcome(parse_config) == outcome(lambda d: parse_config(d.decode("utf-8")))

    @pytest.mark.parametrize("data, error, message", [
        (b"\xef\xbb\xbf" + json.dumps(MATRIX_2).encode(), SchemaError,
         "not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        (b'{"backend": "\xff"}', UnicodeDecodeError,
         "'utf-8' codec can't decode byte 0xff in position 13: invalid start byte"),
    ], ids=["bom", "0xff"])
    def test_bytes_errors(self, data, error, message):
        with pytest.raises(error) as err:
            parse_config(data)
        assert str(err.value) == message

    @pytest.mark.parametrize("depth", [sys.getrecursionlimit(), 5000, 100_000])
    def test_deep_nesting_is_a_schema_error(self, depth):
        # orjson may read the text, but formatting the bad entry would
        # overflow; the stdlib decoder refuses the text itself
        text = json.dumps(MATRIX_2).replace("[[1.0]]", "[[" + "[" * depth + "]" * depth + "]]")
        with pytest.raises(SchemaError) as err:
            parse_config(text)
        assert err.value.violations == ("not valid JSON: nested deeper than the recursion limit",)


class TestMatrixModelReuse:
    def test_build_problem_diagonalizes_once(self, monkeypatch):
        cfg = parse_config(json.dumps(dict(MATRIX_2, f=[1.0, 2.0])))
        calls = count_eighs(monkeypatch, 2)
        problem = build_problem(cfg)
        assert len(calls) == 1
        assert isinstance(problem.evaluator, MatrixEvaluator)

    def test_replaced_config_builds_the_same_model(self):
        cfg = parse_config(json.dumps(MATRIX_2))
        problem = build_problem(cfg.with_scan(a=0.5, b=2.0))
        assert list(problem.evaluator.model.eigs) == list(
            build_problem(cfg).evaluator.model.eigs
        )

    @pytest.mark.parametrize("matrix, message", [
        ({"a": [[1.0, 1.0], [0.0, -1.0]], "tau": [[1.0, 1.0]]}, "not hermitian"),
        ({"a": [[1.0, 0.0], [0.0, 0.0]], "tau": [[1.0, 1.0]]}, "injective"),
        ({"a": [[1.0, 0.0], [0.0, -1.0]], "tau": [[1.0, 1.0], [2.0, 2.0]]}, "full row rank"),
    ])
    def test_model_violations_still_raised(self, matrix, message):
        theta = [[1.0, 0.0], [0.0, 1.0]] if len(matrix["tau"]) == 2 else [[1.0]]
        cfg = parse_config(json.dumps(dict(MATRIX_2, matrix=matrix, theta=theta)))
        with pytest.raises(InvariantError, match=message):
            build_problem(cfg)

    def test_laplacian_config_has_no_model(self):
        evaluator = build_problem(parse_config(json.dumps(MINIMAL_3D))).evaluator
        assert isinstance(evaluator, LaplacianPointEvaluator)
        assert not hasattr(evaluator, "model")


class TestSemanticPhase:
    """``parse_config`` checks the schema only; ``build_problem`` raises
    one InvariantError for every semantic fault."""

    def test_every_fault_in_one_error(self):
        bad = dict(
            MINIMAL_3D,
            points=[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            theta=[[1.0, 2.0], [0.0, 1.0]],
            scan={"a": 0.0, "b": 2.0},
        )
        cfg = parse_config(json.dumps(bad))
        with pytest.raises(InvariantError) as err:
            build_problem(cfg)
        text = "\n".join(err.value.violations)
        assert len(err.value.violations) == 3
        for part in ("hermitian", "coincident", "essential spectrum"):
            assert part in text

    def test_window_from_with_scan_checked_like_the_file(self):
        cfg = parse_config(json.dumps(MINIMAL_3D))
        with pytest.raises(InvariantError, match="essential spectrum"):
            build_problem(cfg.with_scan(a=0.0))
        with pytest.raises(InvariantError, match="a < b"):
            build_problem(cfg.with_scan(a=3.0))

    def test_scan_grid_checked_once(self):
        # old configs carry a sampling grid: a schema check, then dropped
        cfg = parse_config(json.dumps(dict(MINIMAL_3D, scan={"a": 0.5, "b": 2.0, "grid": 3})))
        want = parse_config(json.dumps(dict(MINIMAL_3D, scan={"a": 0.5, "b": 2.0})))
        assert _bits(cfg) == _bits(want)
        for grid in (2, 64.0, True, "64"):
            bad = dict(MINIMAL_3D, scan={"a": 0.5, "b": 2.0, "grid": grid})
            with pytest.raises(SchemaError, match="scan.grid: expected an integer >= 3"):
                parse_config(json.dumps(bad))

    def test_seed_is_an_unknown_key(self):
        # no request draws at random, so a config seed would be dropped
        with pytest.raises(SchemaError) as exc:
            parse_config(json.dumps(dict(MINIMAL_3D, seed=7)))
        assert exc.value.violations == ("unknown key 'seed'",)

    @pytest.mark.parametrize("change, message", [
        ({"z": float("inf")}, "z must be finite"),
        ({"z": [0.3, float("nan")]}, "z must be finite"),
        ({"f": [1.0, float("nan")]}, "f entries must be finite"),
        ({"f": [1.0, [0.0, float("-inf")]]}, "f entries must be finite"),
        ({"scan": {"a": -0.5, "b": float("inf")}}, "scan window ends must be finite"),
        ({"scan": {"a": float("nan"), "b": 0.5}}, "scan window ends must be finite"),
    ])
    def test_non_finite_inputs(self, change, message):
        cfg = parse_config(json.dumps(dict(MATRIX_2, **change)))
        with pytest.raises(InvariantError, match=message) as err:
            build_problem(cfg)
        assert len(err.value.violations) == 1

    def test_non_finite_window_from_with_scan(self):
        cfg = parse_config(json.dumps(MINIMAL_3D))
        with pytest.raises(InvariantError, match="scan window ends must be finite"):
            build_problem(cfg.with_scan(b=float("inf")))

    def test_size_and_tolerance_faults_together(self):
        bad = dict(MINIMAL_3D, points=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                   tolerances={"tol_root": 0.0})
        with pytest.raises(InvariantError) as err:
            build_problem(parse_config(json.dumps(bad)))
        assert len(err.value.violations) == 2
        assert "tolerances must be positive" in err.value.violations

    def test_f_length_against_the_base_matrix(self):
        cfg = parse_config(json.dumps(dict(MATRIX_2, f=[1.0, 2.0, 3.0])))
        with pytest.raises(InvariantError, match="f has length 3, the base matrix is 2x2"):
            build_problem(cfg)

    def test_f_length_checked_before_the_grid_is_allocated(self):
        cfg = parse_config(json.dumps({
            "backend": "laplacian1d",
            "points": [0.0],
            "theta": [[0.5]],
            "grid1d": {"lo": -1.0, "hi": 1.0, "n": 10**7},
            "f": [1.0],
        }))
        tracemalloc.start()
        try:
            with pytest.raises(InvariantError, match="f has length 1, grid1d has 10000000"):
                build_problem(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # the grid alone would be 80 MB

    @pytest.mark.parametrize("grid1d", [
        {"lo": 1.0, "hi": -1.0, "n": 5},
        {"lo": -1.0, "hi": 1.0, "n": 1},
        {"lo": -1.0, "hi": 1.0, "n": -5},
    ])
    def test_bad_grid1d(self, grid1d):
        cfg = parse_config(json.dumps({
            "backend": "laplacian1d", "points": [0.0], "theta": [[0.5]],
            "grid1d": grid1d,
        }))
        with pytest.raises(InvariantError, match="grid1d needs lo < hi and n >= 2"):
            build_problem(cfg)

    def test_infinite_grid1d_end(self):
        # -1e309 overflows to -inf when the JSON is read
        cfg = parse_config(
            '{"backend": "laplacian1d", "points": [0.0], "theta": [[0.5]], '
            '"grid1d": {"lo": -1e309, "hi": 1.0, "n": 5}}'
        )
        assert cfg.grid1d.lo == float("-inf")
        with pytest.raises(InvariantError, match=r"grid1d ends must be finite, got \(-inf, 1.0\)"):
            build_problem(cfg)

    # every size here is past the 128 TiB a 64-bit process can address, so
    # its allocation fails at once whatever the memory overcommit policy
    @pytest.mark.parametrize("n", [10**15, 2**59, 2**60, 2**63 - 1, 10**20])
    def test_unallocatable_grid1d(self, n):
        cfg = parse_config(json.dumps({
            "backend": "laplacian1d", "points": [0.0], "theta": [[0.5]],
            "scan": {"a": 0.5, "b": 2.0}, "grid1d": {"lo": -4.0, "hi": 4.0, "n": n},
        }))
        with pytest.raises(InvariantError) as err:
            build_problem(cfg)
        assert err.value.violations == (f"grid1d.n: {n} nodes do not fit in memory",)

    def test_a_scan_builds_no_grid_nodes(self):
        cfg = parse_config(json.dumps({
            "backend": "laplacian1d", "points": [0.0], "theta": [[0.5]],
            "scan": {"a": 0.5, "b": 2.0}, "grid1d": {"lo": -1.0, "hi": 1.0, "n": 10**7},
        }))
        tracemalloc.start()
        try:
            problem = build_problem(cfg, nodes=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # the grid alone would be 80 MB
        assert type(problem.evaluator) is LaplacianPointEvaluator

    @pytest.mark.parametrize("grid1d, f, message", [
        ({"lo": 1.0, "hi": -1.0, "n": 5}, None, "grid1d needs lo < hi and n >= 2"),
        ({"lo": -1.0, "hi": 1.0, "n": 1}, None, "grid1d needs lo < hi and n >= 2"),
        ({"lo": float("-inf"), "hi": 1.0, "n": 5}, None,
         "grid1d ends must be finite, got (-inf, 1.0)"),
        ({"lo": -1.0, "hi": 1.0, "n": 10**7}, [1.0], "f has length 1, grid1d has 10000000 nodes"),
        ({"lo": -4.0, "hi": 4.0, "n": 10**20}, None,
         "grid1d.n: 100000000000000000000 nodes do not fit in memory"),
    ])
    def test_a_scan_keeps_the_grid1d_checks_that_need_no_nodes(self, grid1d, f, message):
        raw = {"backend": "laplacian1d", "points": [0.0], "theta": [[0.5]],
               "scan": {"a": 0.5, "b": 2.0}, "grid1d": grid1d}
        cfg = parse_config(json.dumps(raw if f is None else dict(raw, f=f)))
        with pytest.raises(InvariantError) as err:
            build_problem(cfg, nodes=False)
        assert err.value.violations == (message,)

    def test_grid_config_builds_the_grid_evaluator(self):
        cfg = parse_config(json.dumps({
            "backend": "laplacian1d", "points": [0.0], "theta": [[0.5]],
            "grid1d": {"lo": -1.0, "hi": 1.0, "n": 5}, "f": [1.0] * 5,
        }))
        evaluator = build_problem(cfg).evaluator
        assert isinstance(evaluator, LaplacianGrid1DEvaluator)
        assert evaluator.xs.tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]


class TestBuild:
    def test_all_backends_dispatch(self):
        evaluators = {
            "matrix": MatrixEvaluator,
            "laplacian1d": LaplacianPointEvaluator,
            "laplacian2d": LaplacianPointEvaluator,
            "laplacian3d": LaplacianPointEvaluator,
            "multiplier1d": MultiplierAnchoredEvaluator,
        }
        configs = [
            ProblemConfig(backend="matrix", theta=((1.0 + 0j,),),
                          matrix_a=((1.0 + 0j, 0j), (0j, -1.0 + 0j)),
                          matrix_tau=((1.0 + 0j, 1.0 + 0j),)),
            ProblemConfig(backend="laplacian1d", theta=((0.5 + 0j,),),
                          points=((0.0,),)),
            ProblemConfig(backend="laplacian2d", theta=((0.5 + 0j,),),
                          points=((0.0, 0.0),)),
            ProblemConfig(backend="laplacian3d", theta=((0.5 + 0j,),),
                          points=((0.0, 0.0, 0.0),)),
            ProblemConfig(backend="multiplier1d", theta=((0.5 + 0j,),),
                          points=((0.0,),), symbol_poly=(0.0, 0.0, -1.0),
                          symbol_anchor=1.0),
        ]
        for cfg in configs:
            problem = build_problem(cfg)
            assert problem.theta.n == 1
            assert type(problem.evaluator) is evaluators[cfg.backend]

    def test_bad_anchor_is_invariant_error(self):
        cfg = ProblemConfig(
            backend="multiplier1d", theta=((0.5 + 0j,),), points=((0.0,),),
            symbol_poly=(0.0, 0.0, -1.0), symbol_anchor=-2.0,
        )
        with pytest.raises(InvariantError, match="anchor"):
            build_problem(cfg)

    def test_scan_override(self):
        cfg = parse_config(json.dumps(MINIMAL_3D))
        cfg2 = cfg.with_scan(b=3.0)
        assert cfg2.scan == ScanWindow(a=0.5, b=3.0)
        assert cfg.scan.b == 2.0
