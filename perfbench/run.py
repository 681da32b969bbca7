"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload kernel-long --seed 1 --seconds 20 \\
        --trace 0

The workload runs as a closed loop in this one process: one operation at a
time, each answer awaited and checked against an independent reference
before the next operation starts.  No threads or worker processes.

``--trace 0`` measures rounds (one round = every operation of the workload
once) until ``--seconds`` would be exceeded, and reports the end-to-end
metrics.  ``--trace 1`` runs one untraced round and then one traced round
of the same operations, and reports the per-layer metrics from the traced
one plus the tracing overhead between the two.

Stdout ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it are a readable report with the run
metadata.  The full result, with per-operation times and, when traced, the
spans, is written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if sys.path and os.path.abspath(sys.path[0] or ".") == HERE:
    sys.path[0] = ROOT          # import perfbench as a package, not as files
else:
    sys.path.insert(0, ROOT)

from perfbench.tracing import (LAYER_METRICS, Tracer,  # noqa: E402
                               TraceHookError)
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402

SRC = os.path.join(ROOT, "src")
PROGRAM = ("core", "imptree", "cyclic", "solver", "bench")
# One set-up takes 30-300 ms, and the host's speed drifts by up to a half
# over a few seconds, so set-up times taken in one stretch follow the host.
# Set-up therefore repeats between the operations of the measured rounds,
# no more often than every SETUP_GAP_S and in about a tenth of the time at
# most, and setup_s is the Harrell-Davis median of all repetitions.
SETUP_FIRST_REPEATS = 3
SETUP_GAP_S = 0.5
SETUP_GAP_FACTOR = 9.0
HARD_DEADLINE_S = 150.0     # stop issuing operations; exit stays below 180 s
RESULTS = os.path.join(HERE, "results")

E2E_METRICS = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sgm_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class ProgramMissing(RuntimeError):
    """The program under test cannot be imported from ``src/``."""


def load_program() -> SimpleNamespace:
    """Import cycfix afresh from src/ and return its layer modules."""
    for name in [m for m in sys.modules
                 if m == "cycfix" or m.startswith("cycfix.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(1, SRC)
    try:
        mods = {m: importlib.import_module("cycfix." + m) for m in PROGRAM}
    except ImportError as exc:
        raise ProgramMissing("cannot import cycfix from %s: %s" % (SRC, exc))
    where = os.path.abspath(mods["core"].__file__)
    if not where.startswith(SRC + os.sep):
        raise ProgramMissing("cannot import cycfix from %s: found %s instead"
                             % (SRC, where))
    return SimpleNamespace(**mods)


class SetUp:
    """Imports cycfix and builds the inputs, again and again; times each.

    ``prog`` and ``inputs`` are those of the latest repetition; the
    previous ones are dropped and their garbage collected before the clock
    starts, so only one copy is ever alive.  The first repetition also
    compiles bytecode when the checkout is fresh.
    """

    def __init__(self, workload: Workload, spec) -> None:
        self.workload = workload
        self.spec = spec
        self.times: List[float] = []
        self.prog: Optional[SimpleNamespace] = None
        self.inputs: Optional[list] = None
        self.done_at = 0.0

    def once(self) -> float:
        """One timed repetition; returns the time it took, collection too."""
        start = time.perf_counter()
        self.prog = self.inputs = None
        gc.collect()
        t0 = time.perf_counter()
        self.prog = load_program()
        self.inputs = self.workload.build(self.prog, self.spec)
        self.done_at = time.perf_counter()
        self.times.append(self.done_at - t0)
        return self.done_at - start

    def due(self) -> bool:
        """Whether the measured rounds should pause for a repetition now."""
        gap = max(SETUP_GAP_S, SETUP_GAP_FACTOR * self.times[-1])
        return time.perf_counter() - self.done_at >= gap


class Pass:
    """Per-operation outcomes of one or more rounds."""

    def __init__(self) -> None:
        self.rounds: List[float] = []
        self.op_s: List[float] = []
        self.failures: List[Tuple[str, str]] = []
        self.attempted = 0


def run_round(workload: Workload, setup: SetUp, spec, expected, out: Pass,
              deadline: float, tracer: Optional[Tracer] = None,
              pauses: bool = False) -> None:
    """Every operation once, in order; failures are recorded, not raised.

    With ``pauses``, the round pauses between operations for a set-up
    repetition when one is due and goes on with its program and inputs;
    the pauses are not part of the round time.
    """
    r0 = time.perf_counter()
    paused = 0.0
    for k, (item, want) in enumerate(zip(spec, expected)):
        out.attempted += 1
        if pauses and setup.due():
            paused += setup.once()
        left = deadline - time.perf_counter()
        if left <= 0:
            out.failures.append((workload.label(item), "run deadline passed"))
            continue
        prog, inp = setup.prog, setup.inputs[k]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                answer = workload.run(prog, inp, left)
            else:
                tracer.op = k
                answer = tracer.call("op", workload.run, prog, inp, left)
            why = None
        except Exception as exc:  # every exception is a failed operation
            answer = None
            why = "%s: %s" % (type(exc).__name__, exc)
        out.op_s.append(time.perf_counter() - t0)
        if why is None:
            why = workload.check(item, want, answer)
        if why is not None:
            out.failures.append((workload.label(item), why))
    out.rounds.append(time.perf_counter() - r0 - paused)


def shifted_geomean(values: List[float], shift: float = 10.0) -> float:
    """(prod(v_i + s))^(1/n) - s, the paper's time summary statistic."""
    return math.exp(sum(math.log(v + shift) for v in values)
                    / len(values)) - shift


def percentile(values: List[float], q: int, steps: int = 64) -> float:
    """Harrell-Davis estimate of the q-th percentile.

    A weighted mean of all order statistics: the i-th smallest value
    weighs the Beta((n+1)p, (n+1)(1-p)) mass of [i/n, (i+1)/n], integrated
    here by the midpoint rule.  A snark round has only 12 or 16 solves, and
    its sample median or p90 is one or two solves whose order flips with
    the host's speed.  Spreading the weight over neighbouring solves halved
    the run-to-run spread of op_p50_ms on snark-peek, and kept that of
    op_p90_ms on snark-rows from reaching 0.44 (perfbench/README.md).  On
    large samples it is close to the sample percentile.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = (n + 1) * q / 100.0, (n + 1) * (1.0 - q / 100.0)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = [
        sum(math.exp(log_norm + (a - 1.0) * math.log(x)
                     + (b - 1.0) * math.log1p(-x))
            for x in ((i + (j + 0.5) / steps) / n for j in range(steps)))
        for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- metadata ------------------------------------------------------------------


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def src_line_count() -> Dict[str, int]:
    py = total = 0
    for base, dirs, files in os.walk(SRC):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        for name in files:
            with open(os.path.join(base, name), "rb") as fh:
                lines = sum(1 for _ in fh)
            total += lines
            if name.endswith(".py"):
                py += lines
    return {"py": py, "all": total}


def kernel_info(prog) -> Dict[str, object]:
    """The kernel that actually runs, by reported name and by loaded file."""
    name = getattr(prog.imptree, "KERNEL_IMPLEMENTATION", None)
    module = sys.modules.get(name) if isinstance(name, str) else None
    path = getattr(module, "__file__", None) or prog.imptree.__file__
    return {
        "reported": name,
        "file": os.path.relpath(path, ROOT),
        "interpreted": path.endswith(".py"),
    }


def metadata(workload: Workload, seed: int, prog) -> Dict[str, object]:
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "seed_use": workload.seed_use,
        "kernel": kernel_info(prog),
        "src_lines": src_line_count(),
        "loop": "closed, 1 client, one operation in flight, no workers",
    }


# -- the run -------------------------------------------------------------------


def end_to_end(setup_times: List[float], p: Pass) -> Dict[str, float]:
    return {
        "setup_s": percentile(setup_times, 50),
        "wall_s": statistics.median(p.rounds),
        "sgm_s": shifted_geomean(p.op_s),
        "op_p50_ms": 1000.0 * percentile(p.op_s, 50),
        "op_p90_ms": 1000.0 * percentile(p.op_s, 90),
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    deadline = started + HARD_DEADLINE_S
    workload = WORKLOADS[args.workload]

    spec = workload.spec(args.seed)
    setup = SetUp(workload, spec)
    try:
        for _ in range(SETUP_FIRST_REPEATS):
            setup.once()
    except ProgramMissing as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    expected = workload.reference(spec)
    meta = metadata(workload, args.seed, setup.prog)

    plain = Pass()
    tracer = None
    if args.trace:
        tracer = Tracer()
        try:
            tracer.resolve(setup.prog)
        except TraceHookError as exc:
            print("perfbench: %s; update perfbench/tracing.py" % exc,
                  file=sys.stderr)
            return 3
        run_round(workload, setup, spec, expected, plain, deadline)
        # before spans take memory
        untraced = end_to_end(setup.times, plain)
        traced = Pass()
        with tracer.installed(setup.prog):
            run_round(workload, setup, spec, expected, traced, deadline,
                      tracer)
        metrics = tracer.layer_metrics(traced.rounds[0], plain.rounds[0])
        units = dict(LAYER_METRICS)
        passes = [plain, traced]
    else:
        measure_end = time.perf_counter() + args.seconds
        while True:
            run_round(workload, setup, spec, expected, plain, deadline,
                      pauses=True)
            now = time.perf_counter()
            if now + plain.rounds[-1] > min(measure_end, deadline):
                break
        metrics = end_to_end(setup.times, plain)
        units = dict(E2E_METRICS)
        passes = [plain]
        untraced = metrics

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    report = {
        "workload": workload.name,
        "trace": args.trace,
        "meta": meta,
        "rounds": [p.rounds for p in passes],
        "ops_per_round": len(spec),
        "samples": len(plain.op_s),
        "setup_samples_s": setup.times,
        "fail_share": len(failures) / attempted,
        "failures": failures[:20],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "end_to_end": untraced,
        "first_round_op_s": [[workload.label(item), s]
                             for item, s in zip(spec, plain.op_s)],
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, "%s-seed%d-trace%d" % (
        workload.name, args.seed, args.trace))
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if tracer is not None:
        tracer.write_spans(stem + ".spans.jsonl.gz")

    print("# perfbench %s seed=%d trace=%d" % (
        workload.name, args.seed, args.trace))
    for key in ("git_revision", "python", "nproc", "cpus_usable",
                "seed_use", "kernel", "src_lines", "loop"):
        print("# meta %s: %s" % (key, meta[key]))
    print("# rounds: %s; operations per round: %d; latency samples: %d" % (
        ", ".join("%.3f s" % r for r in plain.rounds), len(spec),
        len(plain.op_s)))
    print("# fail_share: %.4f (%d of %d operations)" % (
        report["fail_share"], len(failures), attempted))
    for label, why in failures[:5]:
        print("# failed: %s: %s" % (label, why))
    for name, value in metrics.items():
        print("# %s = %.6g %s" % (name, value, units[name]))
    if tracer is not None:
        e2e_units = dict(E2E_METRICS)
        for name, value in untraced.items():
            print("# untraced round: %s = %.6g %s" % (
                name, value, e2e_units[name]))
        wall = metrics["trace.wall_s"]
        for name in ("imptree.busy_s", "cyclic.busy_s", "node.busy_s",
                     "node.rows_s", "solve.self_s", "solve.prep_s",
                     "bench.parse_s"):
            print("# share of traced wall: %s %.1f%%" % (
                name, 100.0 * metrics[name] / wall))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
