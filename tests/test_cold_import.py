"""Requests that need no scipy routine load no scipy module.

Run in a fresh interpreter, because the test process itself imports
scipy for its references.
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
loaded = [sorted(m for m in sys.modules if m.startswith("scipy"))]
for argv in json.loads(sys.argv[1]):
    rc = kreinx.cli.main(argv)
    assert rc == 0, (argv, rc)
    loaded.append(sorted(m for m in sys.modules if m.startswith("scipy")))
print(json.dumps(loaded))
"""


def _scipy_modules_after(argvs):
    """scipy modules loaded after ``import kreinx.cli`` and after each request."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argvs)],
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
    loaded = _scipy_modules_after(argvs)
    assert loaded == [[]] * (len(argvs) + 1)
    assert all(Path(argv[-1]).stat().st_size > 0 for argv in argvs)


def test_the_2d_kernel_loads_scipy_special(tmp_path):
    # positive control: the probe does see a module a request imports
    before, after = _scipy_modules_after(
        [["green", "--dim", "2", "--z", "1", "-o", str(tmp_path / "g2.csv")]]
    )
    assert before == []
    assert "scipy.special" in after
