import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinx import CsvWriteError, PointSet, gamma_matrix
from kreinx.cli import main
from kreinx.csvio import emit_csv, format_value, render_csv

from conftest import count_eighs

CFG_3D = {
    "backend": "laplacian3d",
    "points": [[0.0, 0.0, 0.0]],
    "theta": [[-0.0795774715]],
    "scan": {"a": 0.5, "b": 2.0, "grid": 64},
}


def read_csv(path):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:-1]]
    return header, rows


class TestEmitCsv:
    def test_header_only_for_empty_columns(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit_csv([[], np.empty(0)], ["a", "b"], out)
        assert out.read_bytes() == b"a,b\n"

    def test_17_digit_round_trip(self):
        x = 0.1 + 0.2
        text = render_csv([[x]], ["v"])
        assert float(text.splitlines()[1]) == x

    def test_refuses_non_finite(self):
        with pytest.raises(CsvWriteError):
            render_csv([[float("nan")]], ["v"])
        with pytest.raises(CsvWriteError):
            render_csv([[float("inf")]], ["v"])

    def test_refuses_a_column_count_off_the_schema(self):
        with pytest.raises(CsvWriteError, match="table has 1 columns, schema has 2"):
            render_csv([[1.0]], ["a", "b"])

    def test_refuses_unequal_column_lengths(self):
        with pytest.raises(CsvWriteError, match=r"columns have unequal lengths \[1, 2\]"):
            render_csv([[1.0, 2.0], np.array([3.0])], ["a", "b"])

    def test_unix_line_endings(self):
        text = render_csv([[1.0, 2.0]], ["v"])
        assert "\r" not in text and text.endswith("\n")

    def test_negative_zero_normalized(self):
        assert format_value(-0.0) == "0"

    @pytest.mark.parametrize("v, text", [
        (np.int64(7), "7"),
        (np.int32(-3), "-3"),
        (np.float32(0.5), "0.5"),
    ])
    def test_numpy_scalar_goes_through_float(self, v, text):
        assert format_value(v) == text

    @pytest.mark.parametrize("v, message", [
        (1.0 + 2.0j, "split complex values into _re/_im columns"),
        (object, "cannot format <class 'object'> for CSV"),
        ([1.0], "cannot format [1.0] for CSV"),
    ], ids=["complex", "class", "list"])
    def test_refuses_a_cell_it_cannot_format(self, v, message):
        with pytest.raises(CsvWriteError) as err:
            format_value(v)
        assert str(err.value) == message


def _per_value_csv(columns, schema):
    # the reference: every cell through format_value, in row order, joined
    # here; an array's cells are read as Python floats, as errors name them
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    lines = [",".join(schema)] + [",".join(format_value(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _outcome(render, columns, schema):
    """The text ``render`` gives, or the message of the CsvWriteError it raises."""
    try:
        return render(columns, schema)
    except CsvWriteError as exc:
        return ("error", str(exc))


_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
    1.7976931348623157e308, -1.7976931348623157e308, 2.0**53, 2.0**53 + 2.0,
    -3.0, 0.1 + 0.2, 1e16, 1e17,
]
_finite = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
_ints = st.one_of(st.integers(-10**20, 10**20), st.sampled_from([0, -1, 2**53 + 1, 10**400]))
_strings = st.sampled_from(["a,b", 'say "x"', "plain", "x\ny", "cr\r", "", "50%", "%d"])
# one strategy per column kind, for a column of n cells
_columns = {
    "floats": lambda n: st.lists(_finite, min_size=n, max_size=n),
    "float64": lambda n: st.lists(_finite, min_size=n, max_size=n).map(np.array),
    "ints": lambda n: st.lists(_ints, min_size=n, max_size=n),
    "bools": lambda n: st.lists(st.booleans(), min_size=n, max_size=n),
    "strings": lambda n: st.lists(_strings, min_size=n, max_size=n),
    "mixed": lambda n: st.lists(
        st.one_of(_finite, _ints, st.booleans(), _strings), min_size=n, max_size=n
    ),
}


@st.composite
def _table(draw, bad=None):
    """Schema and columns of the kinds above; given ``bad``, each cell may
    be replaced by a draw from it (a float64 array takes only floats)."""
    n = draw(st.integers(0, 10))
    kinds = draw(st.lists(st.sampled_from(sorted(_columns)), min_size=1, max_size=7))
    columns = []
    for kind in kinds:
        col = list(draw(_columns[kind](n)))
        for i in range(n):
            if bad is not None and draw(st.integers(0, 9)) == 0:
                v = draw(bad)
                if kind != "float64" or isinstance(v, float):
                    col[i] = v
        columns.append(np.array(col, dtype=float) if kind == "float64" else col)
    return [f"c{j}" for j in range(len(kinds))], columns


class TestColumnWriter:
    """``render_csv`` against a per-cell ``format_value`` join in row order."""

    @settings(max_examples=300, deadline=None)
    @given(table=_table())
    def test_tables_match_per_cell_bytes(self, table):
        schema, columns = table
        assert render_csv(columns, schema) == _per_value_csv(columns, schema)

    @settings(max_examples=300, deadline=None)
    @given(table=_table(bad=st.sampled_from(
        [float("nan"), float("inf"), float("-inf"), 1.0 + 2.0j, object(), [1.0]]
    )))
    def test_refusals_name_the_first_bad_cell_in_row_order(self, table):
        schema, columns = table
        assert _outcome(render_csv, columns, schema) == _outcome(_per_value_csv, columns, schema)

    def test_negative_zero_and_subnormals(self):
        columns = [range(2), np.array([-0.0, 0.0]), [5e-324, -5e-324]]
        assert render_csv(columns, ["i", "x", "y"]) == (
            "i,x,y\n0,0,4.9406564584124654e-324\n1,0,-4.9406564584124654e-324\n"
        )

    @pytest.mark.parametrize("array", [False, True], ids=["lists", "arrays"])
    def test_non_finite_refusal_names_the_first_in_row_order(self, array):
        # inf in row 2 of the first float column, nan in row 1 of the second
        x, y = [1.0, 2.0, float("inf")], [3.0, float("nan"), 4.0]
        if array:
            x, y = np.array(x), np.array(y)
        with pytest.raises(CsvWriteError) as err:
            render_csv([range(3), x, y], ["i", "x", "y"])
        assert str(err.value) == "non-finite value nan refused"

    def test_iterables_are_accepted_as_columns(self):
        columns = [range(3), (v for v in [0.5, -0.0, 0.1])]
        assert render_csv(columns, ["i", "v"]) == "i,v\n0,0.5\n1,0\n2,0.10000000000000001\n"


class TestGreenCommand:
    def test_values_at_unit_radius(self, tmp_path, capsys):
        out = tmp_path / "green.csv"
        assert main(["green", "--dim", "3", "--z", "1", "-o", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["r", "g0", "gz_re", "gz_im", "renorm_re", "renorm_im"]
        row = next(r for r in rows if float(r["r"]) == 1.0)
        assert float(row["g0"]) == pytest.approx(1.0 / (4.0 * np.pi), rel=1e-12)
        assert float(row["gz_re"]) == pytest.approx(np.exp(-1.0) / (4.0 * np.pi), rel=1e-12)
        assert float(row["renorm_re"]) == pytest.approx(1.0 / (4.0 * np.pi), rel=1e-12)

    def test_branch_cut_is_validation_failure(self, tmp_path):
        assert main(["green", "--dim", "2", "--z", "-1", "-o", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("dim", ["1", "2", "3"])
    def test_underflowing_square_root_is_validation_failure(self, tmp_path, capsys, dim):
        # Re sqrt(-4 + 5e-324j) underflows to 0: the kernels would not decay
        out = tmp_path / "x.csv"
        assert main(["green", "--dim", dim, "--z=-4+5e-324j", "-o", str(out)]) == 2
        assert "next to the branch cut" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--dim", "3", "--z", "inf"], "--z must be finite"),
        (["--dim", "1", "--z", "nan"], "--z must be finite"),
        (["--dim", "2", "--z", "1", "--radii", "1,inf"], "--radii entries must be finite"),
        (["--dim", "3", "--z", "1", "--radii", "1,x"], "cannot parse --radii"),
    ], ids=["3d-z-inf", "1d-z-nan", "radius-inf", "radius-text"])
    def test_bad_input_exits_2_without_warnings(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["green", *argv, "-o", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dim", ["1", "2", "3"])
    @pytest.mark.parametrize("radii", ["0.5,0", "-1", "1,-1,2"])
    def test_nonpositive_radius_exits_2(self, tmp_path, capsys, dim, radii):
        # checked with the other inputs: one InvariantError, no CSV
        out = tmp_path / "x.csv"
        argv = ["green", "--dim", dim, "--z", "1", "--radii", radii, "-o", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        assert capsys.readouterr().err == "error: --radii entries must be > 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("z", ["4", "0.3", "1+0.5j", "0.3-2j", "-1+0.5j"])
    def test_columns_are_gamma_matrix_entries(self, tmp_path, dim, z):
        # green and the trace matrix run the same array kernels (a scalar
        # K0 / (2 pi) in complex arithmetic was 1 ulp off at this distance)
        ps = PointSet(dim, [[0.0] * dim, [1.2] + [0.0] * (dim - 1)])
        d = float(ps.distances[0, 1])
        out = tmp_path / "g.csv"
        assert main(["green", "--dim", str(dim), f"--z={z}", "--radii", repr(d), "-o", str(out)]) == 0
        _, (row,) = read_csv(out)
        assert float(row["r"]) == d
        gzv = np.complex128(complex(float(row["gz_re"]), float(row["gz_im"])))
        renorm = complex(float(row["renorm_re"]), float(row["renorm_im"]))
        gamma = gamma_matrix(ps, complex(z))
        assert np.float64(row["g0"]) - gzv == gamma[0, 1]
        assert renorm == gamma[0, 0] == gamma[1, 1]


class TestSpectrumCommand:
    def test_minimal_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(CFG_3D))
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", str(cfg), "-o", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == [
            "root_index", "z0", "energy", "multiplicity", "residual", "Q_re_1", "Q_im_1",
        ]
        assert len(rows) == 1
        assert float(rows[0]["z0"]) == pytest.approx(1.0, abs=1e-6)
        assert float(rows[0]["energy"]) == pytest.approx(-1.0, abs=1e-6)

    def test_no_roots_exits_3(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(CFG_3D, theta=[[1.0]])))
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", str(cfg), "-o", str(out)]) == 3
        assert out.read_text().count("\n") == 1  # header-only

    def test_root_above_tol_root_exits_0(self, tmp_path, capsys):
        # the best double leaves 1.507e-10 > tol_root: one row and one warning
        from kreinx.matrixmodel import random_model, random_theta

        model, theta = random_model(13, 6, 1), random_theta(14, 1).entries

        def pairs(m):
            return [[[float(v.real), float(v.imag)] for v in row] for row in np.atleast_2d(m)]

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "backend": "matrix",
            "matrix": {"a": pairs(model.a), "tau": pairs(model.tau)},
            "theta": pairs(theta),
            "scan": {"a": 5.119143372626481, "b": 5.124013191433564},
        }))
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", str(cfg), "-o", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["z0"]) == pytest.approx(5.119957515, abs=1e-9)
        assert capsys.readouterr().err == "spectrum: 1 roots in [5.11914, 5.12401], 1 warnings\n"

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(CFG_3D, theta=[[0.0, 1.0], [0.0, 0.0]])))
        assert main(["spectrum", "--config", str(cfg), "-o", str(tmp_path / "s.csv")]) == 2

    def test_integer_beyond_float_range_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(CFG_3D, theta=[[10**400]])))
        assert main(["spectrum", "--config", str(cfg), "-o", str(tmp_path / "s.csv")]) == 2

    @pytest.mark.parametrize("command", ["spectrum", "resolvent"])
    def test_nesting_beyond_the_recursion_limit_exits_2(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(CFG_3D).replace("[[-0.0795774715]]", "[[" + "[" * 5000 + "]" * 5000 + "]]"))
        out = tmp_path / "s.csv"
        assert main([command, "--config", str(cfg), "-o", str(out)]) == 2
        assert capsys.readouterr().err == "error: not valid JSON: nested deeper than the recursion limit\n"
        assert not out.exists()

    def test_scan_grid_accepted_and_ignored(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(CFG_3D))
        outs = [tmp_path / f"s{i}.csv" for i in range(2)]
        assert main(["spectrum", "--config", str(cfg), "-o", str(outs[0])]) == 0
        cfg.write_text(json.dumps(dict(CFG_3D, scan={"a": 0.5, "b": 2.0, "grid": 4096})))
        assert main(["spectrum", "--config", str(cfg), "-o", str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_config_seed_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(CFG_3D, seed=7)))
        assert main(["spectrum", "--config", str(cfg), "-o", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err == "error: unknown key 'seed'\n"

    @pytest.mark.parametrize("command, flag", [
        ("spectrum", "--grid"), ("spectrum", "--seed"), ("resolvent", "--seed"),
    ])
    def test_dropped_flags_exit_2(self, tmp_path, capsys, command, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(CFG_3D))
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), flag, "64", "-o", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 64" in capsys.readouterr().err
        assert not out.exists()

    def test_flag_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(CFG_3D, scan={"a": 5.0, "b": 9.0})))
        out = tmp_path / "spec.csv"
        # default window misses the root; overriding brackets it again
        assert main(["spectrum", "--config", str(cfg), "-o", str(out)]) == 3
        assert main([
            "spectrum", "--config", str(cfg), "--a", "0.5", "--b", "2.0",
            "-o", str(out),
        ]) == 0

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(CFG_3D))
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        main(["spectrum", "--config", str(cfg), "-o", str(out1)])
        main(["spectrum", "--config", str(cfg), "-o", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_multiplier_backend_end_to_end(self, tmp_path):
        # anchored coupling 0 at w0 = 1 is the absolute coupling 1/2 for the
        # pure second-order symbol: pole at z0 = 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "backend": "multiplier1d",
            "points": [0.0],
            "symbol": {"poly": [0.0, 0.0, -1.0], "anchor": 1.0},
            "theta": [[0.0]],
            "scan": {"a": 0.5, "b": 2.0, "grid": 24},
        }))
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", str(cfg), "-o", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["z0"]) == pytest.approx(1.0, abs=1e-6)


class TestVerifyCommand:
    def test_passes_and_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
        assert main(["verify", "--seed", "42", "--models", "4", "-o", str(out1)]) == 0
        assert main(["verify", "--seed", "42", "--models", "4", "-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header, rows = read_csv(out1)
        assert header == ["check", "residual", "tolerance", "pass"]
        assert all(r["pass"] == "1" for r in rows)

    def test_seed_defaults_to_0(self, tmp_path):
        out1, out2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
        assert main(["verify", "--models", "3", "-o", str(out1)]) == 0
        assert main(["verify", "--seed", "0", "--models", "3", "-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_tolerance_breach_exits_3(self, tmp_path, monkeypatch, capsys):
        import kreinx.verify

        monkeypatch.setattr(kreinx.verify, "TOL_MATRIX", 1e-18)
        out = tmp_path / "v.csv"
        assert main(["verify", "--seed", "42", "--models", "3", "-o", str(out)]) == 3
        _, rows = read_csv(out)
        assert any(r["pass"] == "0" for r in rows)
        assert "verify: 14 checks" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [(["--models", "-2"], "models must be >= 0"), (["--seed", "-1"], "seed must be >= 0")],
        ids=["negative-models", "negative-seed"],
    )
    def test_bad_arguments_exit_2(self, tmp_path, capsys, flags, message):
        out = tmp_path / "v.csv"
        assert main(["verify", "--seed", "42", "--models", "1", *flags, "-o", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_zero_models_runs_kernel_checks_only(self, tmp_path):
        out = tmp_path / "v.csv"
        assert main(["verify", "--seed", "42", "--models", "0", "-o", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows and all(r["check"].startswith(("kernel", "multiplier")) for r in rows)
        assert all(r["pass"] == "1" for r in rows)


class TestResolventCommand:
    def test_matrix_backend_matches_library(self, tmp_path):
        from kreinx import (
            ExtensionProblem, MatrixEvaluator, MatrixModel, ThetaMatrix, krein_apply,
        )

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "backend": "matrix",
            "matrix": {"a": [[1.0, 0.0], [0.0, -1.0]], "tau": [[1.0, 1.0]]},
            "theta": [[1.0]],
            "z": [0.0, 2.0],
            "f": [1.0, [0.5, -0.25]],
        }))
        out = tmp_path / "res.csv"
        assert main(["resolvent", "--config", str(cfg), "-o", str(out)]) == 0
        _, rows = read_csv(out)
        model = MatrixModel(np.diag([1.0, -1.0]), [[1.0, 1.0]])
        problem = ExtensionProblem(MatrixEvaluator(model), ThetaMatrix([[1.0]]))
        want = krein_apply(problem, 2.0j, np.array([1.0, 0.5 - 0.25j]))
        got = np.array(
            [float(r["rf_re"]) + 1j * float(r["rf_im"]) for r in rows]
        )
        assert np.allclose(got, want, rtol=0, atol=1e-15)

    def test_pole_exits_3(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "backend": "matrix",
            "matrix": {"a": [[1.0, 0.0], [0.0, -1.0]], "tau": [[1.0, 1.0]]},
            "theta": [[1.0]],
            "z": 1.0 + float(np.sqrt(2.0)),
            "f": [1.0, 0.0],
        }))
        assert main(["resolvent", "--config", str(cfg), "-o", str(tmp_path / "r.csv")]) == 3

    def test_laplacian1d_grid(self, tmp_path):
        n = 801
        xs = np.linspace(-10.0, 10.0, n)
        f = np.exp(-xs**2).tolist()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "backend": "laplacian1d",
            "points": [0.0],
            "theta": [[0.5]],
            "grid1d": {"lo": -10.0, "hi": 10.0, "n": n},
            "f": f,
            "z": [0.0, 1.0],
        }))
        out = tmp_path / "res.csv"
        assert main(["resolvent", "--config", str(cfg), "-o", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["x", "f_re", "f_im", "rf_re", "rf_im"]
        assert len(rows) == n

    @pytest.mark.parametrize("raw, message", [
        ({"backend": "matrix", "matrix": {"a": [[1.0, 0.0], [0.0, -1.0]], "tau": [[1.0, 1.0]]},
          "theta": [[1.0]], "z": 1.0, "f": [1.0, 0.0]},
         "z=(1+0j) is outside the resolvent set"),  # an eigenvalue of a
        ({"backend": "laplacian1d", "points": [0.0], "theta": [[1.0]],
          "grid1d": {"lo": -4.0, "hi": 4.0, "n": 3}, "z": -1.0, "f": [0.0, 1.0, 0.0]},
         "z=(-1+0j) is outside the resolvent set"),  # on the branch cut
        ({"backend": "laplacian1d", "points": [0.0], "theta": [[1.0]],
          "grid1d": {"lo": -4.0, "hi": 4.0, "n": 3}, "z": [-4.0, 5e-324], "f": [0.0, 1.0, 0.0]},
         "z=(-4+5e-324j) is outside the resolvent set"),  # Re sqrt(z) underflows to 0
    ], ids=["matrix-eigenvalue", "laplacian1d-branch-cut", "laplacian1d-underflow"])
    def test_z_on_the_spectrum_exits_3(self, tmp_path, capsys, raw, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "res.csv"
        assert main(["resolvent", "--config", str(cfg), "-o", str(out)]) == 3
        assert capsys.readouterr().err == f"numeric failure: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("raw, message", [
        (dict(CFG_3D, z=[1.0, 0.5], f=[1.0]),
         "resolvent supports the matrix and laplacian1d backends, not 'laplacian3d'"),
        ({"backend": "laplacian1d", "points": [0.0], "theta": [[0.5]],
          "z": [1.0, 0.5], "f": [1.0, 0.0]},
         "laplacian1d resolvent needs 'grid1d' in the config"),
        ({"backend": "multiplier1d", "points": [0.0],
          "symbol": {"poly": [0.0, 0.0, -1.0], "anchor": 1.0}, "theta": [[0.0]],
          "z": [1.0, 0.5], "f": [1.0]},
         "resolvent supports the matrix and laplacian1d backends, not 'multiplier1d'"),
    ], ids=["laplacian3d", "laplacian1d-without-grid", "multiplier1d"])
    def test_unsupported_backend_exits_2(self, tmp_path, capsys, raw, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "res.csv"
        assert main(["resolvent", "--config", str(cfg), "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


class TestValidationMessages:
    """The CLI's own argument checks: exit 2, one exact ``error:`` line
    and no output file."""

    @pytest.mark.parametrize("argv, raw, message", [
        (["green", "--dim", "1", "--z", "abc"], None, "cannot parse complex number from 'abc'"),
        (["green", "--dim", "3", "--z", "1", "--radii", ","], None,
         "--radii must list at least one radius"),
        (["spectrum", "--a", "0.5"], {k: v for k, v in CFG_3D.items() if k != "scan"},
         "--a and --b are both required without a scan window"),
        (["spectrum"], {k: v for k, v in CFG_3D.items() if k != "scan"},
         "spectrum needs a scan window (config 'scan' or --a/--b)"),
        (["resolvent"], {"backend": "matrix", "matrix": {"a": [[1.0]], "tau": [[1.0]]},
                         "theta": [[1.0]], "f": [1.0]},
         "resolvent needs z (config 'z' or --z)"),
        (["resolvent"], {"backend": "matrix", "matrix": {"a": [[1.0]], "tau": [[1.0]]},
                         "theta": [[1.0]], "z": [0.5, 0.5]},
         "resolvent needs an input vector 'f' in the config"),
        (["spectrum", "--a", "0.5"], dict(CFG_3D, scan={"b": 1.5}),
         "missing required key 'scan.a'"),
        (["resolvent"], {"backend": "matrix", "matrix": {"a": [[2.0]]}, "theta": [[1.0]],
                         "z": [0.5, 0.5], "f": [1.0]},
         "missing required key 'matrix.tau'"),
        (["resolvent"], {"backend": "laplacian1d", "points": [0.0], "theta": [[1.0]],
                         "grid1d": {"hi": 4.0, "n": 3}, "z": [1.0, 0.5], "f": [0.0, 1.0, 0.0]},
         "missing required key 'grid1d.lo'"),
        (["spectrum"], {"backend": "laplacian1d", "points": [float("nan")], "theta": [[1.0]],
                        "scan": {"a": 0.5, "b": 2.0}},
         "point coordinates must be finite"),
        (["resolvent"], {"backend": "matrix",
                         "matrix": {"a": [[1.0, 0.0], [0.0, -1.0]], "tau": [[1.0, 1.0]]},
                         "theta": [[1.0]], "z": [0.3, 0.8], "f": [1.0, 0.0],
                         "grid1d": {"lo": 5, "hi": 1, "n": 1}},
         "'grid1d' is invalid for backend 'matrix'"),
        # distinct points whose squared distance underflows to 0
        (["spectrum"], {"backend": "laplacian3d", "points": [[0, 0, 0], [1e-300, 0, 0]],
                        "theta": [[1.0, 0.0], [0.0, 1.0]], "scan": {"a": 0.1, "b": 1.0}},
         "points are too close: a squared pairwise distance underflows to 0"),
        # a finite distance whose square overflows
        (["spectrum"], {"backend": "laplacian2d", "points": [[0, 0], [1e300, 0]],
                        "theta": [[1.0, 0.0], [0.0, 1.0]], "scan": {"a": 0.1, "b": 1.0}},
         "points are too far apart: a squared pairwise distance overflows"),
    ], ids=["z-text", "radii-empty", "a-without-window", "no-window", "resolvent-no-z",
            "resolvent-no-f", "scan-no-a", "matrix-no-tau", "grid1d-no-lo", "points-nan",
            "grid1d-on-matrix", "points-underflow-3d", "points-overflow-2d"])
    def test_exits_2_with_its_message(self, tmp_path, capsys, argv, raw, message):
        if raw is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(raw))
            argv = argv + ["--config", str(cfg)]
        out = tmp_path / "out.csv"
        assert main(argv + ["-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestHugeBaseMatrix:
    # symmetrizing a = diag(1e308, -1e308) as (a + a^H) / 2 gave inf, and
    # LAPACK then raised an uncaught LinAlgError
    @pytest.mark.parametrize("command, code", [("resolvent", 0), ("spectrum", 3)])
    def test_no_traceback(self, tmp_path, capsys, command, code):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "backend": "matrix",
            "matrix": {"a": [[1e308, 0.0], [0.0, -1e308]], "tau": [[1.0, 1.0]]},
            "theta": [[1.0]], "scan": {"a": -1.0, "b": 1.0},
            "z": [0.0, 1.0], "f": [1.0, 1.0],
        }))
        assert main([command, "--config", str(cfg), "-o", str(tmp_path / "o.csv")]) == code
        if code == 3:
            assert "does not increase" in capsys.readouterr().err

    def test_hermiticity_defect_does_not_overflow(self, tmp_path, capsys):
        # a - a^H overflowed to inf and a RuntimeWarning leaked to stderr
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "backend": "matrix",
            "matrix": {"a": [[1.0, 1e308], [-1e308, -1.0]], "tau": [[1.0, 0.0]]},
            "theta": [[1.0]], "scan": {"a": -0.5, "b": 0.5},
        }))
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["spectrum", "--config", str(cfg), "-o", str(out)]) == 2
        assert "base matrix is not hermitian" in capsys.readouterr().err
        assert not out.exists()


    def test_huge_coupling_reports_finite_branch_values(self, tmp_path, capsys):
        # theta + theta^H overflowed: numpy warned twice and the pencil
        # branches read inf at both window ends
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "backend": "laplacian3d", "points": [[0, 0, 0]], "theta": [[1e308]],
            "scan": {"a": 0.1, "b": 1.0},
        }))
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["spectrum", "--config", str(cfg), "-o", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numeric failure: pencil branch 0 does not increase over [0.1, 1.0]: "
            "1.000e+308 at a, 1.000e+308 at b\n"
        )
        assert not out.exists()


class TestCommittedResolventConfigs:
    """The configs the CI console step reruns and compares byte for byte."""

    @pytest.mark.parametrize("name", ["resolvent_matrix6", "resolvent_grid200"])
    def test_reruns_are_byte_identical(self, tmp_path, name):
        outs = [tmp_path / f"{name}{i}.csv" for i in range(2)]
        for out in outs:
            assert main(["resolvent", "--config", str(SCRIPTS / f"{name}.json"),
                         "-o", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_matrix_config_matches_the_woodbury_solve(self, tmp_path):
        from kreinx import MatrixModel, ThetaMatrix, woodbury_extension

        raw = json.loads((SCRIPTS / "resolvent_matrix6.json").read_text())
        out = tmp_path / "r.csv"
        assert main(["resolvent", "--config", str(SCRIPTS / "resolvent_matrix6.json"),
                     "-o", str(out)]) == 0
        _, rows = read_csv(out)
        got = np.array([float(r["rf_re"]) + 1j * float(r["rf_im"]) for r in rows])
        model = MatrixModel(raw["matrix"]["a"], raw["matrix"]["tau"])
        assert model.basis.dtype == np.float64
        b = woodbury_extension(model, ThetaMatrix(raw["theta"]))
        z = complex(*raw["z"])
        want = np.linalg.solve(z * np.eye(6) - b, np.array(raw["f"]))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


MATRIX_5 = json.loads((SCRIPTS / "spectrum_matrix5.json").read_text())


class TestCommittedSpectrumConfig:
    """The config the CI console step scans twice, then with --a/--b."""

    def test_reruns_and_flag_window_are_byte_identical(self, tmp_path):
        cfg = SCRIPTS / "spectrum_matrix5.json"
        scan = MATRIX_5["scan"]
        outs = [tmp_path / f"s{i}.csv" for i in range(3)]
        window = [[], [], ["--a", repr(scan["a"]), "--b", repr(scan["b"])]]
        for out, flags in zip(outs, window):
            assert main(["spectrum", "--config", str(cfg), *flags, "-o", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
        _, rows = read_csv(outs[0])
        assert len(rows) == 1


class TestOneDiagonalization:
    """A matrix request diagonalizes the base matrix once, wherever its
    scan window comes from."""

    @pytest.mark.parametrize("argv", [
        ["resolvent"],
        ["spectrum"],
        ["spectrum", "--a", "-1.4", "--b", "0.9"],
    ], ids=["resolvent", "spectrum", "spectrum-flags"])
    def test_one_eigh_of_a(self, tmp_path, monkeypatch, argv):
        cfg = tmp_path / "cfg.json"
        raw = dict(MATRIX_5, z=[0.3, 0.8], f=[1.0, -0.5, 0.25, 0.0, 2.0])
        cfg.write_text(json.dumps(raw))
        calls = count_eighs(monkeypatch, 5)
        assert main([argv[0], "--config", str(cfg), *argv[1:],
                     "-o", str(tmp_path / "out.csv")]) == 0
        assert len(calls) == 1


class TestSemanticErrorsExit2:
    @pytest.mark.parametrize("where", ["file", "flags"])
    def test_laplacian_window_at_zero(self, tmp_path, capsys, where):
        cfg = tmp_path / "cfg.json"
        scan = {"a": 0.0, "b": 2.0} if where == "file" else CFG_3D["scan"]
        cfg.write_text(json.dumps(dict(CFG_3D, scan=scan)))
        flags = ["--a", "0"] if where == "flags" else []
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--config", str(cfg), *flags, "-o", str(out)]) == 2
        assert "essential spectrum" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, change, message", [
        (["resolvent", "--z", "inf"], {}, "z must be finite"),
        (["resolvent", "--z", "nan"], {}, "z must be finite"),
        (["resolvent"], {"z": float("inf")}, "z must be finite"),
        (["resolvent"], {"f": [1.0, float("nan"), 0.25, 0.0, 2.0]}, "f entries must be finite"),
        (["spectrum", "--b", "inf"], {}, "scan window ends must be finite"),
    ], ids=["z-inf", "z-nan", "config-z-inf", "f-nan", "flag-b-inf"])
    def test_non_finite_matrix_request(self, tmp_path, capsys, argv, change, message):
        raw = dict(MATRIX_5, z=[0.3, 0.8], f=[1.0, -0.5, 0.25, 0.0, 2.0])
        raw.update(change)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out.csv"
        assert main([argv[0], "--config", str(cfg), *argv[1:], "-o", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_grid1d_end(self, tmp_path, capsys):
        # -1e309 parses as -inf
        text = (SCRIPTS / "resolvent_grid200.json").read_text()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text.replace('"lo": -8.0', '"lo": -1e309', 1))
        out = tmp_path / "r.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["resolvent", "--config", str(cfg), "-o", str(out)]) == 2
        assert "grid1d ends must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_unallocatable_grid1d(self, tmp_path, capsys):
        # 800 EB of nodes: past numpy's array size limit, which a scan
        # checks without building the nodes
        raw = {"backend": "laplacian1d", "points": [0.0], "theta": [[1.0]],
               "scan": {"a": 0.5, "b": 2.0}, "grid1d": {"lo": -4, "hi": 4, "n": 10**20}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--config", str(cfg), "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: grid1d.n: 100000000000000000000 nodes do not fit in memory\n"
        )
        assert not out.exists()

    # 80 MB and 8 PB of nodes: a scan reads no samples, so it builds none
    @pytest.mark.parametrize("n", [10**7, 10**15])
    def test_spectrum_builds_no_grid1d_nodes(self, tmp_path, n):
        raw = json.loads((SCRIPTS / "spectrum_laplacian1d_small.json").read_text())
        plain, grid = tmp_path / "plain.json", tmp_path / "grid.json"
        plain.write_text(json.dumps(raw))
        grid.write_text(json.dumps(dict(raw, grid1d={"lo": -1.0, "hi": 1.0, "n": n})))
        outs = [tmp_path / "plain.csv", tmp_path / "grid.csv"]
        # the first scan pays the imports
        assert main(["spectrum", "--config", str(plain), "-o", str(outs[0])]) == 0
        tracemalloc.start()
        try:
            assert main(["spectrum", "--config", str(grid), "-o", str(outs[1])]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_infinite_laplacian_window(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(CFG_3D, scan={"a": 0.5, "b": float("inf")})))
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--config", str(cfg), "-o", str(out)]) == 2
        assert "scan window ends must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [
        ("spectrum", "tol_root"), ("resolvent", "tol_linear"),
    ])
    def test_infinite_tolerance(self, tmp_path, capsys, command, key):
        if command == "spectrum":
            # one root in the window; an infinite tol_root counted both branches
            raw = dict(CFG_3D, points=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                       theta=[[-0.05, 0.0], [0.0, -0.05]], scan={"a": 0.1, "b": 1.0})
        else:
            raw = json.loads((SCRIPTS / "resolvent_matrix6.json").read_text())
        raw["tolerances"] = {key: "TOL"}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw).replace('"TOL"', "1e999"))  # parses as inf
        out = tmp_path / "o.csv"
        assert main([command, "--config", str(cfg), "-o", str(out)]) == 2
        assert "tolerances must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["resolvent", "spectrum"])
    @pytest.mark.parametrize("key", ["a", "tau"])
    def test_non_finite_matrix_input(self, tmp_path, capsys, command, key):
        raw = dict(MATRIX_5, z=[0.3, 0.8], f=[1.0] * 5)
        rows = [list(r) for r in raw["matrix"][key]]
        rows[0][0] = float("inf") if key == "a" else float("nan")
        raw["matrix"] = dict(raw["matrix"], **{key: rows})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert "Infinity" in cfg.read_text() or "NaN" in cfg.read_text()
        assert main([command, "--config", str(cfg), "-o", str(tmp_path / "o.csv")]) == 2
        assert "entries must be finite" in capsys.readouterr().err


class TestOracleCommand:
    def test_table_is_sorted_and_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
        assert main(["oracle", "--seed", "7", "--n", "6", "--ncharges", "2",
                     "-o", str(out1)]) == 0
        main(["oracle", "--seed", "7", "--n", "6", "--ncharges", "2", "-o", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        _, rows = read_csv(out1)
        eigs = [float(r["eigenvalue"]) for r in rows]
        assert eigs == sorted(eigs)
        assert len(eigs) == 6

    def test_bad_ncharges_exits_2(self, tmp_path):
        assert main(["oracle", "--seed", "1", "--n", "2", "--ncharges", "5",
                     "-o", str(tmp_path / "o.csv")]) == 2

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["oracle", "--seed", "-1", "-o", str(out)]) == 2
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestUnreadableConfigExits2:
    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_names_the_path(self, tmp_path, capsys, kind):
        cfg = tmp_path / "cfg.json"
        if kind == "directory":
            cfg.mkdir()
        elif kind == "not-utf8":
            cfg.write_bytes(b"\xff\xfe{}")
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--config", str(cfg), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot read config {cfg}: " in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("data, message", [
        (b"\xff\xfe{}", "cannot read config {cfg}: 'utf-8' codec can't decode byte 0xff "
                         "in position 0: invalid start byte"),
        (b"\xef\xbb\xbf{}", "not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
                            "line 1 column 1 (char 0)"),
    ], ids=["0xff", "bom"])
    def test_undecodable_and_bom_messages(self, tmp_path, capsys, data, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(data)
        out = tmp_path / "r.csv"
        assert main(["resolvent", "--config", str(cfg), "-o", str(out)]) == 2
        assert capsys.readouterr().err == "error: " + message.format(cfg=cfg) + "\n"
        assert not out.exists()

    def test_the_config_reaches_the_parser_as_bytes(self, tmp_path, monkeypatch):
        import kreinx.cli

        seen = []
        parse = kreinx.cli.parse_config
        monkeypatch.setattr(kreinx.cli, "parse_config", lambda data: seen.append(data) or parse(data))
        path = SCRIPTS / "resolvent_matrix6.json"
        assert main(["resolvent", "--config", str(path), "-o", str(tmp_path / "r.csv")]) == 0
        assert seen == [path.read_bytes()]


class TestRequestPath:
    def test_parser_is_built_once(self, tmp_path, monkeypatch):
        import argparse

        argv = ["green", "--dim", "3", "--z", "1", "-o", str(tmp_path / "g.csv")]
        assert main(argv) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert main(argv) == 0
        assert main(["oracle", "-o", str(tmp_path / "o.csv")]) == 0
        assert built == []

    def test_csv_on_stdout_summary_on_stderr(self, capsys):
        assert main(["oracle", "--seed", "7", "--n", "3", "--ncharges", "1"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("index,eigenvalue\n") and out.count("\n") == 4
        assert err.startswith("oracle: seed=7, n=3, N=1") and err.count("\n") == 1

    def test_no_summary_when_the_write_fails(self, tmp_path, capsys):
        assert main(["green", "--dim", "3", "--z", "1", "-o", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("output error: cannot write") and "green:" not in err
