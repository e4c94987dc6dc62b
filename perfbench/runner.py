"""One benchmark run: set-up, warm-up, a timed closed loop, and the result.

A single client sends each request of the workload in turn and waits for
its reply (a closed loop), pass after pass, until ``seconds`` have gone
by; every pass runs every request once.  A request is one in-process
call of ``kreinx.cli.main`` that reads a JSON config and writes its CSV
to a file, so its time includes parsing, building and writing.

Latency is the 10th percentile of the repeats of one request, summed
over the workload's requests: the host's vCPUs drop into spells up to
about 1.9x slower that last from under a second to over 40 s, and a low
quantile of identical repeats tracks the uncontended service time where
a mean or median tracks the neighbours' load.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from kreinx import cli

import workloads
from tracer import Tracer, aggregate

LOW_Q = 0.10
SETUP_SAMPLES = 5
# a request counts as run in a slow spell when the probe before it took
# more than this multiple of the probe's own 10th percentile
SLOW_FACTOR = 1.5
PROBE_ITERATIONS = 6000

END_TO_END = (
    ("op_p10_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

PER_LAYER = (
    ("greens.gamma_matrix.calls", "count"),
    ("greens.gamma_matrix.self_s", "s"),
    ("bessel.k0.calls", "count"),
    ("bessel.k0.self_s", "s"),
    ("krein.gamma_theta.calls", "count"),
    ("spectral.pencil_evals_per_root", "evals/root"),
    ("spectral.scan_spectrum.self_s", "s"),
    ("spectral.charge_vector.self_s", "s"),
    ("krein.admissible_real.calls", "count"),
    ("multiplier.anchored_gamma_1d.calls", "count"),
    ("multiplier.anchored_gamma_1d.self_s", "s"),
    ("multiplier.quad.calls", "count"),
    ("multiplier.symbol_evals", "count"),
    ("matrixmodel.base_resolvent.calls", "count"),
    ("matrixmodel.base_resolvent.self_s", "s"),
    ("matrixmodel.gamma.calls", "count"),
    ("matrixmodel.gamma.self_s", "s"),
    ("krein.krein_apply.calls", "count"),
    ("krein.krein_apply.self_s", "s"),
    ("linalg.inv.calls", "count"),
    ("linalg.solve.calls", "count"),
    ("linalg.eigvalsh.calls", "count"),
    ("linalg.eigh.calls", "count"),
    ("linalg.svd.calls", "count"),
    ("linalg.self_s", "s"),
    ("matrixmodel.woodbury_extension.self_s", "s"),
    ("greens.r_apply.self_s", "s"),
    ("greens.r_apply.bytes", "B"),
    ("greens.point_source_sum.self_s", "s"),
    ("greens.gbreve_apply_1d.self_s", "s"),
    ("greens.gbreve_g.self_s", "s"),
    ("greens.quad.calls", "count"),
    ("verify.check_base_identities.self_s", "s"),
    ("verify.check_gamma_identities.self_s", "s"),
    ("verify.check_extension.self_s", "s"),
    ("verify.run_verification.self_s", "s"),
    ("config.parse_config.self_s", "s"),
    ("config.build_problem.self_s", "s"),
    ("csvio.emit_csv.self_s", "s"),
    ("csvio.bytes", "B"),
    ("cli.ops", "count"),
    ("cli.op_p50_s", "s"),
    ("cli.op_tail_s", "s"),
    ("cli.op_tail_pct", "%"),
    ("bench.slow_frac", "ratio"),
    ("bench.probe_p10_s", "s"),
    ("bench.trace_overhead", "ratio"),
)


def quantile(values, q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no values")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def sum_of_quantiles(samples: dict, q: float) -> float:
    """Quantile over the repeats of each request, summed over requests.

    Never a quantile across requests of different cost, which would only
    pick out the cheapest request.
    """
    return sum(quantile(v, q) for v in samples.values())


def tail_q(samples: dict) -> float:
    """Highest whole percentile with at least ten repeats beyond it."""
    n = min(len(v) for v in samples.values())
    return max(0.5, math.floor(100.0 * (1.0 - 10.0 / n)) / 100.0) if n > 20 else 0.5


def probe() -> float:
    """Time a fixed pure-Python loop: the host-state probe."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - t0


def pick_cpu(cpus) -> float:
    """Pin this process to whichever allowed vCPU runs the probe fastest
    now, and return that probe time.

    The vCPUs often switch between fast and slow states independently,
    and the kernel, seeing one runnable task, has no reason to move it
    off a slow one; the guest is otherwise idle, so pinning takes a CPU
    from no one.
    """
    best = None
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        t = probe()
        if best is None or t < best[0]:
            best = (t, cpu)
    os.sched_setaffinity(0, {best[1]})
    return best[0]


def slow_fraction(probes) -> float:
    limit = SLOW_FACTOR * quantile(probes, LOW_Q)
    return sum(p > limit for p in probes) / len(probes)


def measure_setup(root: Path, env: dict, cpus) -> list:
    """Time from spawning a fresh interpreter until it has imported the CLI.

    Interpreters run one at a time.  Each reports the system-wide
    monotonic clock once its import is done, so the parent's own wait
    for the exit does not count.  The first one is untimed: it writes
    the bytecode cache.
    """
    cmd = [sys.executable, "-c", "import kreinx.cli, time; print(repr(time.monotonic()))"]
    times = []
    for i in range(SETUP_SAMPLES + 1):
        pick_cpu(cpus)  # the child inherits the pinning
        t0 = time.monotonic()
        done = subprocess.run(cmd, cwd=root, env=env, check=True, timeout=120,
                              capture_output=True, text=True)
        if i:
            times.append(float(done.stdout) - t0)
    return times


class Session:
    """Runs requests through the CLI and judges every reply."""

    def __init__(self, requests, workdir: Path):
        self.attempted = 0
        self.failures = []
        self._argv = {}
        self._out = {}
        self._first = {}
        self._verdict = {}
        for i, req in enumerate(requests):
            out = workdir / f"out{i}.csv"
            argv = list(req.argv)
            if req.config is not None:
                cfg = workdir / f"config{i}.json"
                cfg.write_text(json.dumps(req.config), encoding="utf-8")
                argv += ["--config", str(cfg)]
            self._argv[req.name] = argv + ["-o", str(out)]
            self._out[req.name] = out

    def run(self, req) -> float:
        """Send one request; return its wall time and record its verdict."""
        out = self._out[req.name]
        out.unlink(missing_ok=True)
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = cli.main(self._argv[req.name])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the loop goes on; the request counts as failed
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        self._judge(req, code, err.getvalue().strip())
        return elapsed

    def output(self, req) -> bytes:
        return self._first.get(req.name, b"")

    def _judge(self, req, code, err: str) -> None:
        if code != 0:
            self._fail(req, f"exit: code {code}: {err}")
            return
        data = self._out[req.name].read_bytes()
        if req.name not in self._first:
            self._first[req.name] = data
            try:
                self._verdict[req.name] = req.check(data)
            except Exception as exc:  # a malformed CSV is a failed check
                self._verdict[req.name] = [f"check: {type(exc).__name__}: {exc}"]
            msgs = self._verdict[req.name]
        elif data != self._first[req.name]:
            msgs = ["determinism: CSV bytes differ from the first reply"]
        else:
            msgs = self._verdict[req.name]
        for msg in msgs:
            self._fail(req, msg)

    def _fail(self, req, msg: str) -> None:
        if not self.failures or self.failures[-1][:2] != (req.name, self.attempted):
            self.failures.append((req.name, self.attempted, msg))


def _failed_count(failures) -> int:
    return len({(name, attempt) for name, attempt, _ in failures})


def closed_loop(session, requests, seconds: float, cpus, tracer=None):
    """Warm-up pass, then whole passes until ``seconds`` have gone by.

    With a tracer, every untraced request is followed by the same request
    traced; spans are aggregated per pass.
    """
    deadline = time.perf_counter() + seconds
    for req in requests:
        session.run(req)
    plain = {r.name: [] for r in requests}
    traced = {r.name: [] for r in requests}
    probes = []
    passes = []
    first_spans = []
    while True:
        agg, counts = {}, {}
        for req in requests:
            probes.append(pick_cpu(cpus))
            plain[req.name].append(session.run(req))
            if tracer is None:
                continue
            tracer.reset()
            tracer.request = f"{req.name}#{len(passes)}"
            tracer.install()
            try:
                traced[req.name].append(session.run(req))
            finally:
                tracer.uninstall()
            for name, (calls, self_s) in aggregate(tracer.spans).items():
                entry = agg.setdefault(name, [0, 0.0])
                entry[0] += calls
                entry[1] += self_s
            for name, n in tracer.counts.items():
                counts[name] = counts.get(name, 0) + n
            if not passes:
                base = len(first_spans)
                first_spans.extend((name, t0, t1, parent + base if parent >= 0 else -1, rid)
                                   for name, t0, t1, parent, rid in tracer.spans)
        if tracer is not None:
            passes.append((agg, counts))
        if time.perf_counter() >= deadline:
            break
    return plain, traced, probes, passes, first_spans


def layer_metrics(requests, session, plain, traced, probes, passes) -> dict:
    """Per-layer numbers, per pass over the workload's requests.

    Counts come from the first traced pass (``check_repeatable`` confirms
    every pass gave the same); times are medians over passes.
    """
    agg0, counts0 = passes[0]

    def calls(name):
        return agg0[name][0] if name in agg0 else counts0.get(name, 0)

    def self_s(pred):
        return statistics.median(
            sum(v[1] for k, v in agg.items() if pred(k)) for agg, _ in passes
        )

    roots = sum(
        len(session.output(r).splitlines()) - 1 for r in requests if r.argv[0] == "spectrum"
    )
    out = {}
    for metric, _ in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls(base)
        elif kind == "self_s":
            out[metric] = self_s(lambda k, base=base: k == base)
        else:
            out[metric] = counts0.get(metric, 0)
    out["linalg.self_s"] = self_s(lambda k: k.startswith("linalg."))
    out["spectral.pencil_evals_per_root"] = calls("krein.gamma_theta") / roots if roots else 0.0
    out["csvio.bytes"] = sum(len(session.output(r)) for r in requests)
    q = tail_q(plain)
    out["cli.ops"] = sum(len(v) for v in plain.values())
    out["cli.op_p50_s"] = sum_of_quantiles(plain, 0.5)
    out["cli.op_tail_s"] = sum_of_quantiles(plain, q)
    out["cli.op_tail_pct"] = 100.0 * q
    out["bench.slow_frac"] = slow_fraction(probes)
    out["bench.probe_p10_s"] = quantile(probes, LOW_Q)
    out["bench.trace_overhead"] = sum_of_quantiles(traced, LOW_Q) / sum_of_quantiles(plain, LOW_Q) - 1.0
    return out


def check_repeatable(passes) -> list:
    """Names whose call count differs between traced passes."""
    first = {k: v[0] for k, v in passes[0][0].items()} | passes[0][1]
    bad = set()
    for agg, counts in passes[1:]:
        other = {k: v[0] for k, v in agg.items()} | counts
        bad |= {k for k in first.keys() | other.keys() if first.get(k) != other.get(k)}
    return sorted(bad)


def write_spans(spans, path: Path) -> None:
    """One JSON object per span, times in seconds from the first span."""
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent, rid) in enumerate(spans):
            fh.write(json.dumps({"i": i, "name": name, "start": start - t0, "end": end - t0,
                                 "parent": parent, "request": rid}) + "\n")


def environment() -> dict:
    import ctypes
    import glob

    import numpy
    import scipy

    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def report(session, lines, metrics, units) -> None:
    for line in lines:
        print(f"# {line}")
    for name, attempt, msg in session.failures:
        print(f"# FAIL {name} (request {attempt}): {msg}")
    result = {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": _failed_count(session.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, env: dict) -> None:
    requests = workloads.WORKLOADS[workload](seed)
    workdir = root / "perfbench" / "work"
    workdir.mkdir(exist_ok=True)
    lines = [f"env {json.dumps(environment())}",
             f"workload {workload} seed {seed} seconds {seconds} trace {int(trace)}",
             "closed loop, 1 client, requests: " + ", ".join(r.name for r in requests)]
    cpus = os.sched_getaffinity(0)
    tracer = Tracer() if trace else None
    try:
        setup = [] if trace else measure_setup(root, env, cpus)
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            session = Session(requests, Path(tmp))
            plain, traced, probes, passes, spans = closed_loop(session, requests, seconds, cpus, tracer)
    finally:
        os.sched_setaffinity(0, cpus)
    for req in requests:
        lines.append(
            f"{req.name}: n={len(plain[req.name])} p10={quantile(plain[req.name], LOW_Q):.6f}s "
            f"p50={quantile(plain[req.name], 0.5):.6f}s max={max(plain[req.name]):.6f}s"
        )
    lines.append(f"slow_frac {slow_fraction(probes):.4f}, probe p10 {quantile(probes, LOW_Q):.6f}s, "
                 f"over {len(probes)} probes")
    if trace:
        metrics = layer_metrics(requests, session, plain, traced, probes, passes)
        units = dict(PER_LAYER)
        unstable = check_repeatable(passes)
        lines.append(f"traced passes {len(passes)}; call counts differ between passes for: "
                     + (", ".join(unstable) or "none"))
        path = workdir / f"spans-{workload}-{seed}.jsonl"
        write_spans(spans, path)
        lines.append(f"first traced pass: {len(spans)} spans written to {path.relative_to(root)}")
    else:
        ok = 1.0 - _failed_count(session.failures) / session.attempted
        metrics = {
            "op_p10_s": sum_of_quantiles(plain, LOW_Q),
            "setup_s": quantile(setup, LOW_Q),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": ok,
        }
        units = dict(END_TO_END)
        lines.append("setup samples " + " ".join(f"{t:.4f}" for t in setup))
    report(session, lines, metrics, units)
