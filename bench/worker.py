"""One workload in a fresh process: the closed loop, or the traced run.

Started by ``run.py`` with ``PYTHONPATH`` pointing at ``src`` and the
inputs already written to ``--workdir``.  It calls ``cambarrier.cli.main``
in-process, one caller and one operation at a time, and writes its
samples, checks and counts as JSON to ``--result``.

Untraced (``--trace 0``) it cycles through the workload's operations
until ``--seconds`` have passed.  Each cycle runs every operation once
and repeats a fast one until it has used ``SLICE_S`` of the cycle, so
cheap commands get as many samples as they need without a separate
setting per workload.

Traced (``--trace 1``) it alternates an untraced and a traced pass
(every operation once) for the same time; the ratio of their fastest
wall times is the tracing overhead.
"""

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads
from workloads import OPS, WORKLOADS, Paths

#: Minimum wall time each operation gets in one cycle of the closed loop.
SLICE_S = 0.3

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def load_reference(workload: str, seed: int) -> dict | None:
    """Output digests taken when the benchmark was added, if this seed has them."""
    data = json.loads(REFERENCE_FILE.read_text())
    return data["digests"].get(workload, {}).get(str(seed))


class Checker:
    """Decides whether one operation's output is correct.

    An output must match the reference digest when the seed has one, and
    otherwise the first output of the same operation in this process.
    Each distinct output additionally passes the independent checks in
    :mod:`workloads` once.
    """

    def __init__(self, w, paths: Paths, reference: dict | None):
        self.w = w
        self.paths = paths
        self.reference = reference
        self.first: dict[str, str] = {}
        self.last: dict[str, str] = {}
        self.verdicts: dict[tuple[str, str, str | None], list[str]] = {}
        self.plan_summary = None
        self.problems: list[str] = []

    def _summary(self) -> workloads.PlanSummary:
        if self.plan_summary is None:
            self.plan_summary = workloads.PlanSummary.of(json.loads(self.paths.plan.read_bytes()))
        return self.plan_summary

    def _independent(self, op: str, data: bytes) -> list[str]:
        if op in ("static", "mobile"):
            problems = workloads.check_sweep(self.w, data.decode())
            if op == "mobile" and self.paths.static.exists():
                problems += workloads.check_dominance(self.paths.static.read_text(), data.decode())
            return problems
        if op == "deploy-grid":
            self.plan_summary = workloads.PlanSummary.of(json.loads(data))
            return workloads.check_plan(self.w, self.plan_summary)
        if op == "barrier":
            return workloads.check_barrier(self._summary(), json.loads(data))
        return []

    def check(self, op: str, code: int) -> bool:
        out = self.paths.output(op)
        if code != 0 or not out.exists():
            return self._fail(op, f"exit code {code}, output {'present' if out.exists() else 'missing'}")
        data = out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if op == "deploy-grid" and digest != self.last.get(op):
            self.plan_summary = None
        self.last[op] = digest
        expected = self.reference[op] if self.reference else self.first.setdefault(op, digest)
        if digest != expected:
            return self._fail(op, f"output digest {digest[:12]} != expected {expected[:12]}")
        # The mobile check reads the static output, the barrier check the plan.
        context = {"mobile": "static", "barrier": "deploy-grid"}.get(op)
        key = (op, digest, self.last.get(context))
        if key not in self.verdicts:
            self.verdicts[key] = self._independent(op, data)
        if self.verdicts[key]:
            return self._fail(op, "; ".join(self.verdicts[key]))
        self.first.setdefault(op, digest)
        return True

    def _fail(self, op: str, why: str) -> bool:
        if len(self.problems) < 20:
            self.problems.append(f"{op}: {why}")
        return False


class Runner:
    def __init__(self, w, paths: Paths, checker: Checker):
        import cambarrier.cli

        self.cli = cambarrier.cli
        self.w = w
        self.paths = paths
        self.checker = checker
        self.argv = {op: workloads.argv(w, op, paths) for op in OPS}
        self.attempted = 0
        self.failed = 0

    def run(self, op: str) -> float:
        """Run one operation; return its wall time.  The output check is
        outside the timed region.  Garbage left by the previous operation
        and its check is collected before the clock starts, as it would be
        by the separate process each command gets from a shell."""
        self.paths.output(op).unlink(missing_ok=True)
        gc.collect()
        start = time.perf_counter()
        code = self.cli.main(self.argv[op])
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if not self.checker.check(op, code):
            self.failed += 1
        return elapsed


def closed_loop(runner: Runner, seconds: float) -> dict:
    samples = {op: [] for op in OPS}
    deadline = time.perf_counter() + seconds
    while True:
        for op in OPS:
            slice_end = time.perf_counter() + SLICE_S
            while True:
                samples[op].append(runner.run(op))
                if time.perf_counter() >= slice_end:
                    break
        if time.perf_counter() >= deadline:
            break
    return {"samples": samples}


def traced_pass(runner: Runner, tracer: spans.Tracer) -> tuple[float, dict]:
    """Every operation once under the tracer; return the pass's wall time
    and its per-layer metrics."""
    first = len(tracer.spans)
    elapsed = 0.0
    with tracer.installed():
        for op in OPS:
            tracer.operation()
            elapsed += runner.run(op)
    return elapsed, spans.layer_metrics(tracer.spans[first:])


def traced_run(runner: Runner, seconds: float, tracer: spans.Tracer) -> dict:
    untraced, traced, per_pass = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(sum(runner.run(op) for op in OPS))
        elapsed, metrics = traced_pass(runner, tracer)
        traced.append(elapsed)
        per_pass.append(metrics)
        if time.perf_counter() >= deadline:
            break
    counts = {k: per_pass[0][k] for k in spans.COUNT_METRICS}
    repeat = all(all(p[k] == counts[k] for k in counts) for p in per_pass)
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics.update(counts)
    metrics["trace_overhead_frac"] = min(traced) / min(untraced) - 1.0
    return {
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "counts_repeat": repeat,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="where the traced run writes its spans, one JSON line each")
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    paths = Paths.under(Path(args.workdir))
    checker = Checker(w, paths, load_reference(w.name, args.seed))
    runner = Runner(w, paths, checker)
    if args.trace:
        tracer = spans.Tracer()
        out = traced_run(runner, args.seconds, tracer)
        tracer.dump(args.spans)
    else:
        out = closed_loop(runner, args.seconds)
    out.update(
        attempted=runner.attempted,
        failed=runner.failed,
        problems=checker.problems,
        reference=checker.reference is not None,
        digests=checker.first,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
