"""liftrec benchmark: one workload, run through the CLI in this process.

Usage, from the repository root:

    python3 liftbench/run.py --workload internal-sweep --seed 0 --seconds 35 --trace 0

``--seconds`` is the whole measuring window of a run.  ``--trace 0``
prints the end-to-end metrics (wall time, set-up time, peak memory);
``--trace 1`` wraps liftrec's public calls in spans and prints the
per-layer metrics.  Every invocation is checked by the workload's
correctness gate and against the first repetition's CSV bytes.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See liftbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".liftbench"     # span files, and scratch CLI output while running
# an untraced run spends this share of --seconds on set-up-only passes,
# after the full passes
SETUP_SHARE = 0.15


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


class Runner:
    """Runs passes of one workload and gates every invocation they make."""

    def __init__(self, workload, seed, work_dir):
        from liftrec import cli

        self.cli = cli
        self.workload = workload
        self.work_dir = work_dir
        cfg_dir = work_dir / "config"
        cfg_dir.mkdir()
        for name, text in workload.configs.items():
            (cfg_dir / name).write_text(text, encoding="utf-8")
        self.plan = workload.plan(seed, cfg_dir)
        self.jobs1_plan = workload.plan(seed, cfg_dir, jobs=1) if workload.jobs1 else None
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.reference = None          # CSV bytes of the first full pass
        self.quality = []              # (err_max, w_norm_max) per full pass

    def _out(self, kind):
        self.passes += 1
        return self.work_dir / f"{kind}{self.passes}"

    def setup_pass(self, probe):
        """Run each invocation up to its first call into solvers or certify."""
        out = self._out("setup")
        total = 0.0
        for k, inv in enumerate(self.plan):
            probe.first = None
            t0 = time.perf_counter()
            try:
                self.cli.main(["--out", str(out / str(k)), *inv.argv])
            except spans.SetupDone:
                pass
            total += (probe.first or time.perf_counter()) - t0
        shutil.rmtree(out)
        return total

    def full_pass(self, plan=None):
        """Run and gate every invocation; returns the pass's wall seconds."""
        plan = plan or self.plan
        out = self._out("pass")
        codes = {}
        start = time.perf_counter()
        for k, inv in enumerate(plan):
            try:
                codes[inv.label] = self.cli.main(["--out", str(out / str(k)), *inv.argv])
            except Exception:
                traceback.print_exc()
                codes[inv.label] = None
        wall = time.perf_counter() - start
        outputs = {inv.label: {p.name: p.read_bytes()
                               for p in sorted((out / str(k)).glob("*.csv"))}
                   for k, inv in enumerate(plan)}
        shutil.rmtree(out)
        self._gate(outputs, codes)
        return wall

    def _gate(self, outputs, codes):
        failed = {label for label, code in codes.items() if code != 0}
        failed |= self.workload.check(outputs)
        if self.reference is None:
            self.reference = outputs
        else:
            failed |= {label for label, files in outputs.items()
                       if files != self.reference[label]}
        self.attempted += len(outputs)
        self.failed += len(failed)
        self.quality.append(self.workload.quality(outputs))
        for label in sorted(failed):
            print(f"FAILED {self.workload.name} {label}", file=sys.stderr)


def untraced(runner, seconds):
    """End-to-end metrics: wall time and peak memory of full passes, then
    set-up time of set-up-only passes."""
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < (1 - SETUP_SHARE) * seconds:
        walls.append(runner.full_pass())
    # read before the probes: a stopped sweep still runs its queued pool
    # tasks, and the exceptions they raise keep each task's operator alive
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = []
    start = time.perf_counter()
    probe = spans.SetupProbe()
    restore = spans.install(spans.SETUP_ENDS, probe.wrap)
    try:
        while not setups or time.perf_counter() - start < SETUP_SHARE * seconds:
            setups.append(runner.setup_pass(probe))
    finally:
        restore()
    print("pass walls: " + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    print("set-up samples: " + " ".join(f"{s:.4f}" for s in setups), file=sys.stderr)
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def layer_metrics(summary):
    """Per-layer numbers of one traced pass, from its span summary."""
    def entry(name):
        return summary.get(name, {"calls": 0, "total": 0.0, "self": 0.0, "notes": []})

    def total(*names):
        return sum(entry(n)["total"] for n in names)

    def calls(*names):
        return sum(entry(n)["calls"] for n in names)

    iterations = sum(sum(entry(n)["notes"]) for n in spans.ITERATING)
    systems = entry("calderon.assemble_calderon_system")["notes"] or [(0, 0, 0.0)]
    return {
        "solvers.self_s": (sum(entry(n)["self"] for n in spans.SOLVER_ENTRIES), "s"),
        "solvers.iterations": (iterations, "count"),
        "solvers.s_per_iter": (total(*spans.ITERATING) / iterations if iterations else 0.0,
                               "s"),
        "solvers.opnorm_s": (total("solvers.AffineOperator.opnorm_estimate"), "s"),
        "solvers.apply_calls": (calls(*spans.APPLY), "count"),
        "solvers.apply_s": (total(*spans.APPLY), "s"),
        "solvers.psd_prox_s": (total("solvers.psd_trace_prox"), "s"),
        "calderon.rows_full": (max(s[0] for s in systems), "count"),
        "calderon.rows_hard": (max(s[1] for s in systems), "count"),
        "calderon.operator_mb": (max(s[2] for s in systems), "MB"),
        "calderon.assemble_system_s": (total("calderon.assemble_calderon_system"), "s"),
        "calderon.build_problem_s": (total("calderon.build_calderon_problem"), "s"),
        "calderon.forward_solves": (calls("calderon.solve_schrodinger_2d"), "count"),
        "calderon.precertificate_study_s": (total("calderon.precertificate_study"), "s"),
        "calderon.gauss_newton_s": (total("calderon.gauss_newton_baseline"), "s"),
        "internal.operator_mb": (
            max(entry("internal.assemble_internal_operator")["notes"], default=0.0), "MB"),
        "internal.build_problem_s": (total("internal.build_internal_problem"), "s"),
        "internal.assemble_operator_s": (total("internal.assemble_internal_operator"), "s"),
        "lowrank.svt_calls": (calls("lowrank.svt_prox"), "count"),
        "lowrank.svt_s": (total("lowrank.svt_prox"), "s"),
        "lowrank.svd_s": (total("lowrank.nuclear_norm", "lowrank.operator_norm"), "s"),
        "quadratic.recover_s": (total("quadratic.recover_phaselift"), "s"),
        "certify.precertificate_calls": (calls("certify.precertificate"), "count"),
        "certify.precertificate_s": (total("certify.precertificate"), "s"),
        "cli.invocations": (calls("cli.main"), "count"),
    }


def traced(runner, seconds, span_path):
    """Per-layer metrics from traced passes, alternated with untraced ones."""
    tracer = spans.Tracer()
    plain, timed, recorded = [], [], []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < seconds:
        plain.append(runner.full_pass())
        restore = spans.install(spans.TRACED, tracer.wrap)
        try:
            timed.append(runner.full_pass())
        finally:
            restore()
        recorded.append(tracer.take())
    jobs1 = runner.full_pass(plan=runner.jobs1_plan) if runner.jobs1_plan else 0.0
    spans.write_spans(span_path, recorded)

    summaries = [spans.summarize(threads) for threads in recorded]
    missing = [name for name in runner.workload.expected_spans
               if any(s.get(name, {}).get("calls", 0) == 0 for s in summaries)]
    if missing:
        raise RuntimeError(f"{runner.workload.name}: no calls recorded for {missing}")
    per_pass = [layer_metrics(s) for s in summaries]
    metrics = {name: (statistics.median(m[name][0] for m in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    metrics["cli.jobs1_wall_s"] = (jobs1, "s")
    metrics["trace_overhead"] = (
        statistics.median(timed) / statistics.median(plain) - 1, "1")
    metrics["err_max"] = (max(q[0] for q in runner.quality), "1")
    metrics["w_norm_max"] = (max(q[1] for q in runner.quality), "1")
    print(f"{len(timed)} traced passes; spans in {span_path}", file=sys.stderr)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 gives criterion 11's noise seed")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measure until this much time has gone")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "liftrec" / "__init__.py").is_file():
        print(f"liftbench: no liftrec package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    print("environment " + json.dumps(environment()))
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as tmp:
        runner = Runner(workload, args.seed, Path(tmp))
        if args.trace:
            span_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.csv"
            metrics = traced(runner, args.seconds, span_path)
        else:
            metrics = untraced(runner, args.seconds)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
