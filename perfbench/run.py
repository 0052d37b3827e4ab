"""The gsp4transfer benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {groups,poles,transfer} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout and driven from outside, through ``gsp4transfer.cli.main`` and
the public library functions.  The run generates its inputs from the seed,
repeats the workload's pass of operations for about ``--seconds`` seconds,
checks every outcome, and prints two JSON lines:

- a report with every metric named for the workload, its unit, the
  environment stamp and the failures, and
- as the last line, ``{"correct", "attempted", "failed", "metrics"}``, where
  the metrics are the end-to-end ones with ``--trace 0`` and the per-layer
  ones with ``--trace 1``.

``correct`` is false when an operation other than a recorded known-defect
input fails.  ``failed`` counts every failed operation, known defects
included.  ``--smoke`` shrinks every size (q=3, X=2000, a handful of
documents) for the benchmark's own tests.

Operation times are in reference seconds (see ``timing.SpeedProbe``).  An
operation's time is the median of its repetitions in the run, ``wall_s``
sums them over one pass, and ``op_p50_ms`` is their median over the CLI
operations.  ``setup_s`` and ``peak_rss_mb`` are plain measurements.

With ``--trace 1`` plain and traced passes alternate; per-layer numbers are
medians over the traced passes, ``trace.overhead_s`` is the traced
``wall_s`` minus the plain one, and every span is written to
``.perfbench_work/traces/<workload>-<seed>.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKERS_ENV = "GSP4TRANSFER_WORKERS"

SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import gsp4transfer.cli as c; "
    "c.build_parser(); print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "ref_s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ref_ms",
    "ops_per_s": "1/ref_s",
}


def _single_threaded_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop(WORKERS_ENV, None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(repeats: int) -> list[float]:
    """Import ``gsp4transfer.cli`` and build its parser in fresh processes."""
    out = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET], env=_single_threaded_env(),
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def git_commit() -> str:
    """HEAD of the checkout read from ``.git`` directly, or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class Run:
    """Executes passes of one workload and collects timings and failures.

    ``clocks[traced][i]`` holds the raw (start, end) clock readings of every
    repetition of operation i in plain (traced=False) or traced passes.
    """

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failures: list[dict] = []
        self.passes = {False: 0, True: 0}
        self.clocks = {False: [[] for _ in ops], True: [[] for _ in ops]}
        self.scores: dict[int, float] = {}
        self.tracer = None
        self.probe = None
        self.op_index: list[int] = []  # op id of the tracer -> index into ops

    def op_times(self, traced: bool = False, raw: bool = False) -> list[float]:
        """Median time of every operation over its repetitions."""
        import numpy as np

        reps = self.clocks[traced]
        readings = np.array([c for r in reps for c in r], dtype=float)
        if not raw:
            readings = self.probe.reference(readings)
        durations = (readings[:, 1] - readings[:, 0]).tolist()
        out, at = [], 0
        for r in reps:
            out.append(statistics.median(durations[at:at + len(r)]))
            at += len(r)
        return out

    def one_pass(self, tracer=None) -> None:
        from timing import clock
        from workloads import clear_caches

        clear_caches()
        traced = tracer is not None
        for i, op in enumerate(self.ops):
            self.attempted += 1
            start = clock()
            try:
                if traced:
                    self.op_index.append(i)
                    with tracer.operation("op." + op.kind, places=op.places):
                        outcome = op.run()
                else:
                    outcome = op.run()
                end = clock()
            except Exception as exc:  # a crash is a failed operation; the run goes on
                end = clock()
                reason = "raised " + "".join(traceback.format_exception_only(exc)).strip()
            else:
                try:
                    reason = op.check(outcome)
                except Exception as exc:
                    reason = "unreadable outcome: " + "".join(traceback.format_exception_only(exc)).strip()
            self.clocks[traced][i].append((start, end))
            if reason is None and op.score is not None:
                self.scores[i] = op.score(outcome)
            if reason is not None:
                self.failures.append({"op": i, "kind": op.kind, "reason": reason[:300],
                                      "known_defect": op.known_defect})
        self.passes[traced] += 1

    def loop(self, seconds: float, trace: bool) -> list[tuple[int, int]]:
        """Repeat passes while another one fits in ``seconds``.

        With ``trace`` plain and traced passes alternate, at least one of
        each; returns the span index range of every traced pass, whose
        times are then in reference seconds.
        """
        from layers import instrumented
        from timing import SpeedProbe, Tracer, clock

        self.tracer = Tracer() if trace else None
        self.probe = SpeedProbe()
        pass_spans = []
        n = 0
        with self.probe.running():
            start = clock()
            while True:
                t0 = clock()
                if trace and n % 2 == 1:
                    lo = len(self.tracer.spans)
                    with instrumented(self.tracer):
                        self.one_pass(self.tracer)
                    pass_spans.append((lo, len(self.tracer.spans)))
                else:
                    self.one_pass()
                n += 1
                if not (trace and n < 2) and clock() - start + (clock() - t0) > seconds:
                    break
        if trace:
            self.tracer.to_reference(self.probe)
        return pass_spans


def stamp(seed: int, workers) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        WORKERS_ENV: workers if workers is not None else "unset (1 worker)",
        "git_commit": git_commit(),
        "seed": seed,
    }


def end_to_end(name: str, run: Run, setup: list[float]) -> tuple[dict, dict]:
    """(metrics for the result line, workload-specific extras for the report)."""
    times = run.op_times()
    cli = [t for t, op in zip(times, run.ops) if op.cli]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_p50_ms": 1e3 * statistics.median(cli),
        "ops_per_s": len(cli) / sum(cli),
    }
    extra = {
        "failed_share": (len(run.failures) / run.attempted, "1"),
        "raw_wall_s": (sum(run.op_times(raw=True)), "s"),
    }
    by_kind = {op.kind: t for t, op in zip(times, run.ops)}
    if name == "groups":
        for kind, t in by_kind.items():
            extra[f"verify_{kind.rsplit('.', 1)[1]}_s"] = (t, "ref_s")
    if name == "poles":
        extra["pole_err_max"] = (max(run.scores.values(), default=float("nan")), "1")
        extra["fixture_s"] = (by_kind["fixture"], "ref_s")
        extra["partial_L_s"] = (by_kind["partial_L"], "ref_s")
    if name == "transfer":
        p90 = percentile(cli, 0.9)
        extra["op_p90_ms"] = (1e3 * p90, "ref_ms")
        extra["op_samples"] = (len(cli), "count")
        extra["op_samples_beyond_p90"] = (sum(t > p90 for t in cli), "count")
    return metrics, extra


def per_layer(run: Run, pass_spans: list) -> dict:
    """Median over the traced passes of every per-layer metric."""
    from layers import PER_LAYER_UNITS, pass_metrics

    own = run.tracer.self_times()
    ops = {op_id: run.ops[i] for op_id, i in enumerate(run.op_index)}
    per_pass = [pass_metrics(run.tracer.spans[lo:hi], own, ops) for lo, hi in pass_spans]
    out = {name: statistics.median(p[name] for p in per_pass)
           for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
    out["trace.overhead_s"] = sum(run.op_times(traced=True)) - sum(run.op_times())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("groups", "poles", "transfer"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (SRC / "gsp4transfer" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a gsp4transfer checkout",
              file=sys.stderr)
        return 2
    workers = os.environ.get(WORKERS_ENV)
    os.environ.update(_single_threaded_env())
    sys.path.insert(0, str(SRC))

    setup = measure_setup(3 if args.smoke else 7)

    import gsp4transfer
    import numpy as np

    if Path(gsp4transfer.__file__).resolve().parent != SRC / "gsp4transfer":
        print(f"error: imported {gsp4transfer.__file__}, not the checkout's source", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        rng = np.random.default_rng([args.seed, 0x67737034])
        run = Run(WORKLOADS[args.workload](rng, args.smoke, workdir))
        pass_spans = run.loop(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, extra = end_to_end(args.workload, run, setup)
    report = {
        "workload": args.workload,
        "smoke": args.smoke,
        "env": stamp(args.seed, workers),
        "passes": {"plain": run.passes[False], "traced": run.passes[True]},
        "probe_samples": len(run.probe.starts),
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "failures": run.failures[:50],
        "known_defect_failures": sum(1 for f in run.failures if f["known_defect"]),
        "known_defect_note": "known-defect inputs are expected to exit 2 and fail until "
                             "ROADMAP item 4 (input contract) lands",
    }
    if args.trace:
        from layers import PER_LAYER_UNITS

        layer = per_layer(run, pass_spans)
        report["per_layer"] = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in layer.items()}
        report["traced_wall_s"] = sum(run.op_times(traced=True))
        traces = WORK / "traces"
        traces.mkdir(exist_ok=True)
        path = traces / f"{args.workload}-{args.seed}.jsonl.gz"
        run.tracer.write(path)
        report["trace_file"] = str(path.relative_to(ROOT))
        shown = report["per_layer"]
    else:
        shown = report["end_to_end"]
    print(json.dumps({"report": report}))
    unexpected = [f for f in run.failures if not f["known_defect"]]
    print(json.dumps({
        "correct": not unexpected,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": shown,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
