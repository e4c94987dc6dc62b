"""Self-tests of the benchmark: statistics, span arithmetic, wrapping,
repeatable counts, the references it checks against, and its contract.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import reference as ref
import runner
import workloads
from tracer import Tracer, aggregate

ROOT = Path(__file__).resolve().parents[2]


def test_quantile_interpolates_between_order_statistics():
    assert runner.quantile(range(1, 12), 0.1) == 2.0
    assert runner.quantile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert runner.quantile([7.0], 0.1) == 7.0


def test_quantile_is_taken_per_request_then_summed():
    cheap = [1.0 + 0.1 * i for i in range(10)]
    dear = [100.0 + 10.0 * i for i in range(10)]
    got = runner.sum_of_quantiles({"cheap": cheap, "dear": dear}, 0.1)
    assert got == pytest.approx(runner.quantile(cheap, 0.1) + runner.quantile(dear, 0.1))
    # pooling would pick a cheap request's time and lose the dear one
    assert runner.quantile(cheap + dear, 0.1) < 2.0 < got


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert runner.tail_q({"a": list(range(100)), "b": list(range(200))}) == 0.9
    assert runner.tail_q({"a": list(range(15))}) == 0.5


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1, "r"),
        ("a", 1.0, 4.0, 0, "r"),
        ("leaf", 2.0, 3.0, 1, "r"),
        ("b", 5.0, 9.0, 0, "r"),
        ("a", 9.5, 9.75, 0, "r"),
    ]
    agg = aggregate(spans)
    assert agg["root"] == [1, pytest.approx(10.0 - 3.0 - 4.0 - 0.25)]
    assert agg["a"] == [2, pytest.approx(2.0 + 0.25)]
    assert agg["leaf"] == [1, pytest.approx(1.0)]
    assert agg["b"] == [1, pytest.approx(4.0)]
    total = sum(s for _, s in agg.values())
    assert total == pytest.approx(10.0)


def _bound_values(tracer):
    return {(id(owner), attr): vars(owner)[attr] for owner, attr, _, _ in tracer.targets()}


def _tiny_requests():
    small = [r for r in workloads.point_scan(5) if r.name.endswith("-N1")]
    small.append(workloads.Request(
        "verify_suite/tiny", ["verify", "--seed", "3", "--models", "1"],
        workloads._verify_check))
    return small


def _traced_pass(tmp_path, requests):
    tracer = Tracer()
    session = runner.Session(requests, tmp_path)
    cpus = os.sched_getaffinity(0)
    try:
        plain, traced, probes, passes, spans = runner.closed_loop(
            session, requests, 1e-6, cpus, tracer)
    finally:
        os.sched_setaffinity(0, cpus)
    assert not session.failures
    metrics = runner.layer_metrics(requests, session, plain, traced, probes, passes)
    assert list(metrics) == [name for name, _ in runner.PER_LAYER]
    return tracer, passes, spans


def test_every_wrapped_name_is_restored_after_a_traced_run(tmp_path):
    tracer = Tracer()
    before = _bound_values(tracer)
    assert len(before) > 50
    import numpy.linalg
    import kreinx.multiplier

    tracer.install()
    try:
        during = _bound_values(tracer)
        assert all(during[k] is not v for k, v in before.items())
    finally:
        tracer.uninstall()
    traced_tracer, passes, spans = _traced_pass(tmp_path, _tiny_requests())
    assert spans
    for t in (tracer, traced_tracer):
        assert _bound_values(t) == before
    assert numpy.linalg.solve.__module__.startswith("numpy")
    assert kreinx.multiplier.Multiplier1D.__call__.__name__ == "__call__"


def test_two_traced_runs_give_identical_calls(tmp_path):
    runs = []
    for i in range(2):
        d = tmp_path / str(i)
        d.mkdir()
        _, passes, spans = _traced_pass(d, _tiny_requests())
        agg, counts = passes[0]
        runs.append(({k: v[0] for k, v in agg.items()}, dict(counts)))
        # every request has one root span, and self times add up to it
        roots = [s for s in spans if s[3] == -1]
        assert [s[0] for s in roots] == ["cli.main"] * len(_tiny_requests())
        assert len({s[4] for s in roots}) == len(roots)
        assert sum(v[1] for v in aggregate(spans).values()) == pytest.approx(
            sum(s[2] - s[1] for s in roots))
        # the kept spans of the pass aggregate exactly as the pass did
        whole = aggregate(spans)
        assert {k: v[0] for k, v in whole.items()} == runs[-1][0]
        assert all(whole[k][1] == pytest.approx(v[1]) for k, v in agg.items())
        assert all(spans[s[3]][4] == s[4] for s in spans if s[3] >= 0)
    assert runs[0] == runs[1]
    calls, counts = runs[0]
    assert calls["greens.gamma_matrix"] > 0 and calls["linalg.eigvalsh"] > 0
    assert calls["verify.run_verification"] == 1
    assert counts["multiplier.symbol_evals"] > 0


def test_laplacian_reference_matches_the_package():
    from kreinx.greens import PointSet, gamma_matrix

    rng = np.random.default_rng(0)
    for dim, tol in ((1, 1e-13), (2, 1e-9), (3, 1e-13)):
        pts = rng.uniform(0.0, 3.0, size=(4, dim))
        for z in (0.7, 2.0 + 1.5j):
            want = gamma_matrix(PointSet(dim, pts), z)
            assert np.max(np.abs(ref.laplacian_gamma(dim, pts, z) - want)) < tol


def test_gaussian_convolution_matches_quadrature():
    kappa = np.sqrt(1.3 + 0.8j)
    c, s = 0.4, 0.7
    for x in (-6.0, 0.1, 0.4, 5.0):
        def integrand(y):
            return np.exp(-kappa * abs(x - y)) / (2 * kappa) * np.exp(-(y - c) ** 2 / (2 * s * s))

        want = complex(*(
            sum(integrate.quad(lambda y: part(integrand(y)), lo, hi)[0]
                for lo, hi in ((-np.inf, x), (x, np.inf)))
            for part in (np.real, np.imag)
        ))
        got = ref.gaussian_convolution(np.array([x]), kappa, c, s)[0]
        assert abs(got - want) < 1e-10


def test_multiplier_reference_matches_laplacian_closed_form():
    y = np.array([0.0, 1.1])
    got = ref.multiplier_gamma([0.0, 0.0, -1.0], y, 2.5, 1.2)
    want = ref.laplacian_gamma(1, y, 2.5) - ref.laplacian_gamma(1, y, 1.2)
    assert np.max(np.abs(got - want)) < 1e-11


def test_single_point_closed_forms_are_pencil_roots():
    for dim, theta in ((1, 0.6), (2, -0.1), (3, -0.15)):
        z = ref.single_point_root(dim, theta)
        assert abs(theta + ref.laplacian_gamma(dim, np.zeros((1, dim)), z)[0, 0]) < 1e-13


def test_inputs_depend_only_on_the_seed():
    for make in (workloads.point_scan, workloads.resolvent_sweep, workloads.verify_suite):
        a, b, c = make(3), make(3), make(4)
        assert [r.config for r in a] == [r.config for r in b]
        assert [r.argv for r in a] == [r.argv for r in b]
        assert [(r.config, r.argv) for r in a] != [(r.config, r.argv) for r in c]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(runner.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(runner.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point_scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
