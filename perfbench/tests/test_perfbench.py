"""Tests of the benchmark itself, at smoke size (seconds, not minutes)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import ts1mc  # noqa: E402
import ts1mc.bench  # noqa: E402
import ts1mc.cli  # noqa: E402
import ts1mc.solvers  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMOKE = {
    "gauss100-suite": lambda: workloads.Gauss100Suite(
        size=40, grids=(("table-known-rank", (2, 4), 1, 300),
                        ("table-rank-estimate", (4,), 1, 60)),
        easy_ranks=(2,)),
    "gauss500-solve": lambda: workloads.Gauss500Solve(
        size=40, rank=3, sr=0.5, max_iters=300),
    "inpaint128-noisy": lambda: workloads.Inpaint128Noisy(
        size=32, rank=3, noises=(0.1,), iters=60),
}


def _final(result):
    return json.loads(harness.report(result, {}).splitlines()[-1])


@pytest.fixture(scope="module")
def manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_manifest_matches_metric_tables(manifest):
    assert manifest == harness.manifest()
    assert sorted(manifest["workloads"], key=lambda w: w["name"]) == sorted(
        ({"name": n, "why": w.why} for n, w in workloads.WORKLOADS.items()),
        key=lambda w: w["name"])


@pytest.mark.parametrize("name", sorted(SMOKE))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric_with_its_unit(name, trace, manifest, tmp_path):
    result = harness.measure(SMOKE[name](), seed=3, seconds=0, trace=trace,
                             root=tmp_path, probes=0 if trace else 1)
    final = _final(result)
    assert final["correct"], result["errors"]
    assert final["attempted"] >= 1 and final["failed"] == 0
    expected = manifest["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in final["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in final["metrics"].values())


def test_solve_span_is_its_self_time_plus_its_layers(tmp_path):
    tracer = tracing.Tracer()
    wl = SMOKE["gauss100-suite"]()
    with tracer.installed():
        wl.prepare(tmp_path, 5)
        wl.run()
    m = harness.layer_metrics(tracer, 0.0)
    assert m["solvers.eigengap.calls"] > 0 and m["solvers.solve.calls"] == 6
    parts = (m["solvers.solve.self_s"] + m["matrix.compute_svd.s"]
             + m["matrix.threshold_spectrum.s"] + m["solvers.select.s"]
             + m["solvers.eigengap.s"] + m["sampling.SamplingOperator.adjoint_s"])
    assert parts == pytest.approx(m["solvers.solve.s"], rel=1e-9, abs=1e-12)
    assert 0 < m["solvers.solve.self_s"] < m["solvers.solve.s"]


def test_traced_run_restores_every_wrapped_function(tmp_path):
    before = {w.target: getattr(*tracing._resolve(w)) for w in tracing.WRAPS}
    original_svd = ts1mc.solvers.compute_svd
    harness.measure(SMOKE["gauss500-solve"](), seed=1, seconds=0, trace=True,
                    root=tmp_path, probes=0)
    assert ts1mc.solvers.compute_svd is original_svd
    assert {w.target: getattr(*tracing._resolve(w)) for w in tracing.WRAPS} == before


def test_missing_wrap_target_is_reported_absent(tmp_path):
    gone = (tracing.Wrap("ts1mc.solvers", "renamed_away", tracing.SVD_SPAN),
            tracing.Wrap("ts1mc.no_such_module", "fn", "solvers.eigengap"))
    tracer = tracing.Tracer()
    original_svd = ts1mc.solvers.compute_svd
    wl = SMOKE["gauss500-solve"]()
    wl.prepare(tmp_path, 2)
    with tracer.installed(tracing.WRAPS + gone):
        wl.run()
    metrics = harness.layer_metrics(tracer, 0.0)
    assert "matrix.compute_svd.s" not in metrics
    assert "solvers.eigengap.calls" not in metrics
    assert metrics["solvers.solve.calls"] == 1
    assert ts1mc.solvers.compute_svd is original_svd
    assert not hasattr(ts1mc.solvers, "renamed_away")


def test_rank_adjust_kept_k_counts_adjustments_that_return_k():
    tracer = tracing.Tracer()
    config = ts1mc.SolverConfig(ts1mc.Algorithm.TS1_S2,
                                rank=ts1mc.RankEstimate(k=15), max_iters=100)
    for estimate, adjusted in ((15, True), (10, True), (15, False)):
        report = SimpleNamespace(iterations=100, converged=False,
                                 rank_adjusted=adjusted, rank_estimate=estimate)
        tracing._solve_outcome(tracer, (None, config), report)
    assert [o["kept_k"] for o in tracer.outcomes] == [True, False, False]
    assert all(o["hit_max_iters"] for o in tracer.outcomes)


def test_fails_without_printing_when_the_source_tree_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gauss500-solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


class _Drifting(workloads.Workload):
    name = "drifting"

    def __init__(self):
        self.calls = 0

    def prepare(self, workdir, seed):
        pass

    def run(self):
        self.calls += 1
        return [workloads.Solved("cell", 1e-6, 90.0, True, 100 + self.calls, False)]


def test_outcomes_that_do_not_repeat_fail_the_gate(tmp_path):
    result = harness.measure(_Drifting(), seed=0, seconds=0.001, trace=False,
                             root=tmp_path, probes=0)
    assert result["reps"] >= 2
    assert not _final(result)["correct"]


def test_unconverged_solve_fails_the_gate(tmp_path):
    wl = workloads.Gauss500Solve(size=40, rank=3, sr=0.5, max_iters=5)
    result = harness.measure(wl, seed=1, seconds=0, trace=False, root=tmp_path,
                             probes=0)
    assert result["failed"] == 0
    assert any("must converge" in e for e in result["errors"])


def test_a_failed_solve_fails_the_run(tmp_path, monkeypatch):
    real = ts1mc.bench.solve

    def flaky(masked, config):  # one rank-estimation cell raises
        if (isinstance(config.rank, ts1mc.RankEstimate)
                and config.algorithm is ts1mc.Algorithm.TS1_S1):
            raise ValueError("injected failure")
        return real(masked, config)

    monkeypatch.setattr(ts1mc.bench, "solve", flaky)
    result = harness.measure(SMOKE["gauss100-suite"](), seed=3, seconds=0,
                             trace=False, root=tmp_path, probes=0)
    assert result["failed"] == 1
    assert "1 of 6 solves failed" in result["errors"]
    assert not _final(result)["correct"]


def test_bench_rows_are_matched_by_their_own_columns(tmp_path, monkeypatch):
    wl = SMOKE["gauss100-suite"]()
    wl.prepare(tmp_path, 4)
    in_order = wl.run()
    assert not any(s.failed for s in in_order)
    real = ts1mc.cli.run_suite
    monkeypatch.setattr(ts1mc.cli, "run_suite", lambda spec: real(spec)[::-1])
    assert wl.run() == in_order
    monkeypatch.setattr(ts1mc.cli, "run_suite", lambda spec: real(spec)[1:])
    dropped = wl.run()  # the first cell of each suite has no row
    assert {s.label for s in dropped if s.failed} == {
        labels[0] for _, labels in wl.suites}
