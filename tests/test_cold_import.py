"""Requests that need no scipy routine load no scipy module, and only a
request that reads a config loads orjson.

Run in a fresh interpreter, because the test process itself imports
scipy and orjson for its references.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

PROBE = """
import json, sys
import kreinx.cli
package = sys.argv[2]
codes, loaded = [], [sorted(m for m in sys.modules if m.startswith(package))]
for argv in json.loads(sys.argv[1]):
    codes.append(kreinx.cli.main(argv))
    loaded.append(sorted(m for m in sys.modules if m.startswith(package)))
print(json.dumps([codes, loaded]))
"""


def _modules_after(argvs, package="scipy"):
    """Exit codes of the requests, and the modules of ``package`` loaded
    after ``import kreinx.cli`` and after each request."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argvs), package],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_and_scipy_free_requests_load_no_scipy(tmp_path):
    argvs = [
        ["resolvent", "--config", str(SCRIPTS / "resolvent_matrix6.json"),
         "-o", str(tmp_path / "m.csv")],
        ["resolvent", "--config", str(SCRIPTS / "resolvent_grid200.json"),
         "-o", str(tmp_path / "g.csv")],
        ["oracle", "--seed", "7", "-o", str(tmp_path / "o.csv")],
        ["green", "--dim", "3", "--z", "1", "-o", str(tmp_path / "g3.csv")],
    ]
    codes, loaded = _modules_after(argvs)
    assert codes == [0] * len(argvs)
    assert loaded == [[]] * (len(argvs) + 1)
    assert all(Path(argv[-1]).stat().st_size > 0 for argv in argvs)


def test_the_2d_kernel_loads_scipy_special(tmp_path):
    # positive control: the probe does see a module a request imports
    codes, (before, after) = _modules_after(
        [["green", "--dim", "2", "--z", "1", "-o", str(tmp_path / "g2.csv")]]
    )
    assert codes == [0]
    assert before == []
    assert "scipy.special" in after


def test_rejected_multiplier_resolvent_loads_no_scipy(tmp_path):
    # the backend guard reads only the config; building the problem would
    # find the symbol's range with scipy.optimize first
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps({
        "backend": "multiplier1d",
        "points": [0.0],
        "symbol": {"poly": [0.0, 0.0, -1.0], "anchor": 1.0},
        "theta": [[0.0]],
        "z": [1.0, 0.5],
        "f": [1.0],
    }))
    out = tmp_path / "m.csv"
    codes, loaded = _modules_after([["resolvent", "--config", str(cfg), "-o", str(out)]])
    assert codes == [2]
    assert loaded == [[], []]
    assert not out.exists()


def test_only_a_config_request_loads_orjson(tmp_path):
    argvs = [
        ["verify", "--seed", "42", "--models", "1", "-o", str(tmp_path / "v.csv")],
        ["oracle", "--seed", "7", "-o", str(tmp_path / "o.csv")],
        ["green", "--dim", "3", "--z", "1", "-o", str(tmp_path / "g3.csv")],
        ["resolvent", "--config", str(SCRIPTS / "resolvent_matrix6.json"),
         "-o", str(tmp_path / "m.csv")],
    ]
    codes, loaded = _modules_after(argvs, "orjson")
    assert codes == [0] * len(argvs)
    assert loaded[:-1] == [[]] * len(argvs)
    assert "orjson" in loaded[-1]


def test_spectrum_loads_no_scipy_optimize(tmp_path):
    # the root search runs on the doubles, so a scan loads only what its
    # backend's kernel needs: nothing on the matrix backend or in 1-d
    codes, loaded = _modules_after([
        ["spectrum", "--config", str(SCRIPTS / f"{name}.json"), "-o", str(tmp_path / f"{name}.csv")]
        for name in ("spectrum_matrix5", "spectrum_laplacian1d_small")
    ])
    assert codes == [0, 0]
    assert loaded == [[], [], []]
    codes, (before, after) = _modules_after([
        ["spectrum", "--config", str(SCRIPTS / "spectrum_laplacian2d.json"),
         "-o", str(tmp_path / "spectrum_laplacian2d.csv")],
    ])
    assert codes == [0]
    assert before == []
    assert "scipy.special" in after
    assert not any(m.startswith("scipy.optimize") for m in after)
