"""Tracing, failure accounting and the result format of the runner.

Each test drives a few cheap operations of a workload rather than a whole
round.  Run with ``python3 -m pytest perfbench/tests`` from the repository
root.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import run  # noqa: E402
from perfbench.tracing import LAYER_METRICS, Tracer, TraceHookError  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402


def _slice(name, pick, seed=1):
    """A few operations of a workload: its spec items for which pick holds."""
    workload = WORKLOADS[name]
    spec = [item for item in workload.spec(seed) if pick(item)]
    setup = run.SetUp(workload, spec)
    setup.once()
    return workload, setup, spec, workload.reference(spec)


def _traced(name, pick, seed=1):
    workload, setup, spec, expected = _slice(name, pick, seed)
    tracer = Tracer()
    out = run.Pass()
    with tracer.installed(setup.prog):
        run.run_round(workload, setup, spec, expected, out,
                      time.perf_counter() + 60, tracer)
    assert out.failures == []
    return tracer.layer_metrics(out.rounds[0], out.rounds[0])


SLICES = {
    "snark-rows": lambda item: item == (5, "gen", "original"),
    "snark-peek": lambda item: item[0] == 3 and item[2] == "respect",
    "kernel-long": lambda item: item[1] < (450 if item[0] == "cycle" else 180),
    "planted-small": lambda item: item[0] < 3,
}

# The layer each workload exists to load, with its span count and busy time.
MAIN_LAYER = {
    "snark-rows": ("node.calls", "node.rows_s"),
    "snark-peek": ("cyclic.calls", "cyclic.busy_s"),
    "kernel-long": ("imptree.calls", "imptree.busy_s"),
    "planted-small": ("bench.parse_calls", "bench.parse_s"),
}


@pytest.mark.parametrize("name", sorted(SLICES))
def test_main_layer_has_spans_and_counts_repeat(name):
    first = _traced(name, SLICES[name])
    calls, busy = MAIN_LAYER[name]
    assert first[calls] > 0 and first[busy] > 0
    assert first["trace.spans"] > 0
    assert first["imptree.bound_use"] <= 1.0
    if name != "kernel-long":
        assert first["solve.calls"] > 0 and first["solve.nodes"] > 0
    again = _traced(name, SLICES[name])
    for key in ("imptree.vertices", "imptree.horizon_steps",
                "cyclic.kernel_calls", "solve.nodes", "node.calls"):
        assert first[key] == again[key], key


def test_cyclic_layer_idle_where_predicted():
    for name in ("snark-rows", "kernel-long"):
        metrics = _traced(name, SLICES[name])
        assert metrics["cyclic.calls"] == 0
        assert metrics["cyclic.kernel_calls"] == 0


def test_missing_hook_fails_before_patching():
    prog = run.load_program()
    solve = prog.solver.solve
    folded = dict(vars(prog.imptree))
    del folded["_kern"]
    broken = SimpleNamespace(**dict(vars(prog), imptree=SimpleNamespace(
        **folded)))
    with pytest.raises(TraceHookError, match="_kern"):
        with Tracer().installed(broken):
            pass
    assert prog.solver.solve is solve


def test_hooks_are_restored():
    prog = run.load_program()
    before = (prog.solver.solve, prog.core.Permutation.__init__,
              prog.cyclic.CyclicSubgroup.__dict__["generated_by"])
    with Tracer().installed(prog):
        assert prog.solver.solve is not before[0]
    after = (prog.solver.solve, prog.core.Permutation.__init__,
             prog.cyclic.CyclicSubgroup.__dict__["generated_by"])
    assert after == before


class _Broken(Workload):
    """Three operations: one right, one wrong, one raising."""

    name = "broken"

    def spec(self, seed):
        return [0, 1, 2]

    def build(self, prog, spec):
        return spec

    def reference(self, spec):
        return [0, 0, 0]

    def run(self, prog, inp, time_limit):
        if inp == 2:
            time.sleep(0.01)
            raise AssertionError("invariant broken")
        return inp

    def check(self, item, expected, answer):
        return None if answer == expected else "wrong"


def test_failures_count_with_their_time():
    out = run.Pass()
    setup = SimpleNamespace(prog=None, inputs=[0, 1, 2])
    run.run_round(_Broken(), setup, [0, 1, 2], [0, 0, 0], out,
                  time.perf_counter() + 60)
    assert out.attempted == 3
    assert [why for _label, why in out.failures] == [
        "wrong", "AssertionError: invariant broken"]
    assert len(out.op_s) == 3 and out.op_s[2] >= 0.01


def test_set_up_repeats_between_operations(monkeypatch):
    monkeypatch.setattr(run, "SETUP_GAP_S", 0.0)
    monkeypatch.setattr(run, "SETUP_GAP_FACTOR", 0.0)
    workload, setup, items, expected = _slice(
        "planted-small", lambda item: item[0] == 0)
    first = setup.prog
    out = run.Pass()
    run.run_round(workload, setup, items, expected, out,
                  time.perf_counter() + 60, pauses=True)
    assert out.failures == []
    assert len(setup.times) == 1 + len(items)
    assert setup.prog is not first
    assert out.rounds[0] < sum(out.op_s) + 0.5 * sum(setup.times[1:])


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(LAYER_METRICS)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    out = run.Pass()
    workload, setup, items, expected = _slice(
        "planted-small", SLICES["planted-small"])
    run.run_round(workload, setup, items, expected, out,
                  time.perf_counter() + 60)
    metrics = run.end_to_end([0.5, 0.7], out)
    assert list(metrics) == [name for name, _unit in run.E2E_METRICS]
    assert all(value > 0 for value in metrics.values())


def test_harrell_davis_percentiles():
    assert run.percentile([3.0], 90) == 3.0
    assert run.percentile([2.0] * 7, 50) == pytest.approx(2.0)
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == pytest.approx(3.0)
    assert run.percentile([float(k) for k in range(16)], 50) == \
        pytest.approx(7.5)
    assert run.percentile([0.5 * k for k in range(5000)], 90) == \
        pytest.approx(0.9 * 0.5 * 4999, rel=1e-3)
    scipy_mstats = pytest.importorskip("scipy.stats.mstats")
    for n in (12, 16, 200):
        sample = [float((k * 7919) % 101) + 0.5 for k in range(n)]
        for q in (50, 90):
            want = float(scipy_mstats.hdquantiles(sample, prob=[q / 100])[0])
            assert run.percentile(sample, q) == pytest.approx(want, rel=1e-3)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "snark-rows",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
    assert "cannot import cycfix" in proc.stderr
