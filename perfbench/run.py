"""Benchmark of the ucast library: one workload per run, closed loop.

    python3 perfbench/run.py --workload forecaster_desk --seed 1 \
        --seconds 40 --trace 0

Runs operations of the workload (see workloads.py) back to back until
`--seconds` have passed, and at least MIN_OPS of them.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.

--trace 0  end-to-end metrics, tracing off: setup_s, wall_s,
           train_windows_per_s, predict_windows_per_s, peak_rss_mb.
           Failed operations (typed UcastErrors, divergence, failed output
           checks) are the `failed` count; error_rate is failed / attempted.
           test_mse is printed and recorded but is not a bounded metric:
           it is deterministic for a seed, yet its spread across seeds
           (10-30%) is larger than any useful bound.
--trace 1  per-module metrics.  Operations alternate untraced and traced;
           traced ones wrap the library's public calls in spans (kept in
           memory, written to perfbench/out/ at the end), and
           trace.overhead_s is the traced minus the untraced operation
           time.

BLAS is pinned to one thread before numpy loads, and a run whose BLAS
thread count cannot be confirmed exits with status 3.  The package is
imported from src/ of the checkout this file sits in; without it the run
exits non-zero without a result.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import hostinfo

hostinfo.pin_blas_env()

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
MIN_OPS = 2

EXIT_NO_PACKAGE = 2
EXIT_BLAS_UNPINNED = 3


def _import_package():
    """Import ucast from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ucast" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package at {src / 'ucast'}\n")
        raise SystemExit(EXIT_NO_PACKAGE)
    sys.path.insert(0, str(src))
    import ucast
    if Path(ucast.__file__).resolve().parent != (src / "ucast").resolve():
        sys.stderr.write(f"perfbench: imported ucast from {ucast.__file__}\n")
        raise SystemExit(EXIT_NO_PACKAGE)


# -- metric definitions ----------------------------------------------------

# name: (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "train_windows_per_s": ("1/s", "higher"),
    "predict_windows_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
# Load from other tenants of a shared host only ever adds time, and it comes
# in episodes of seconds to minutes that slow an operation by up to 1.8x, so
# the median operation of a run moves with them.  The timed metrics
# therefore report the run's fastest operation, which had the least
# interference; set-up reports the median of the run's set-ups.
BEST_OF_RUN = ("wall_s", "train_windows_per_s", "predict_windows_per_s")

# per-layer metrics that are the summed seconds of one span name per op
SUMMED_SPANS = {
    "training.evaluate_s": "training.evaluate",
    "model.save_checkpoint_s": "model.save_checkpoint",
    "model.load_checkpoint_s": "model.load_checkpoint",
    "model.init_params_s": "model.init_params",
    "analysis.snapshot_s": "analysis.snapshot",
    "baselines.fit_ci_s": "baselines.fit_ci",
    "baselines.fit_cd_s": "baselines.fit_cd",
    "baselines.experiment_windows_s": "baselines.experiment_windows",
    "varlab.simulate_s": "varlab.simulate",
    "varlab.make_var_spec_s": "varlab.make_var_spec",
    "data.sliding_windows_s": "data.sliding_windows",
    "varlab.bayes_risk_sequence_s": "varlab.bayes_risk_sequence",
    "varlab.monte_carlo_risks_s": "varlab.monte_carlo_risks",
}

PER_LAYER = {
    "autodiff.ops_per_step": ("count", "lower"),
    "autodiff.backward_ms": ("ms", "lower"),
    "model.forward_ms": ("ms", "lower"),
    "model.flops_per_window": ("flop", "lower"),
    "model.gflop_s": ("GFLOP/s", "higher"),
    "model.trace_ms": ("ms", "lower"),
    "training.batch_gradients_ms": ("ms", "lower"),
    "training.adam_step_ms": ("ms", "lower"),
    "model.checkpoint_bytes": ("bytes", "lower"),
    "data.windows": ("count", "higher"),
    "varlab.stationary_covariance_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    **{name: ("s", "lower") for name in SUMMED_SPANS},
}


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _best(values, better: str) -> float:
    return float(min(values) if better == "lower" else max(values))


class OpRecord:
    """The spans and outcome of one operation."""

    def __init__(self, tracer, root, traced: bool, outcome):
        self.tracer = tracer
        self.root = root
        self.traced = traced
        self.outcome = outcome
        self.spans = [s for s in tracer.spans
                      if s.op == root.op and s is not root]

    def named(self, name: str):
        return [s for s in self.spans if s.name == name]

    def seconds(self, *names) -> float:
        return sum(s.seconds for s in self.spans if s.name in names)

    def under(self, name: str, top: str):
        """Spans called `name` inside a top-level span called `top`."""
        return [s for s in self.named(name)
                if any(a.name == top for a in self.tracer.ancestors(s))]


def end_to_end(op: OpRecord, workload) -> dict[str, float]:
    out = op.outcome
    return {
        "setup_s": op.seconds("setup"),
        "wall_s": op.seconds("timed"),
        "train_windows_per_s":
            out.train_windows / op.seconds(*workload.TRAIN_SPANS),
        "predict_windows_per_s":
            out.predict_windows / op.seconds(*workload.PREDICT_SPANS),
    }


def per_layer(op: OpRecord, workload, untraced_train_s: float
              ) -> dict[str, float]:
    out = op.outcome
    flop_count = out.counts.get("model.flops_per_window", 0)
    steps = op.named("training.batch_gradients")
    traces = [s for top in workload.PREDICT_SPANS
              for s in op.under("model.trace", top)]
    metrics = {
        "autodiff.ops_per_step": max((s.primitives for s in steps), default=0),
        "autodiff.backward_ms":
            1e3 * op.seconds("autodiff.backward") / out.train_windows,
        "model.forward_ms":
            1e3 * op.seconds("model.forward") / out.train_windows,
        "model.flops_per_window": flop_count,
        "model.gflop_s":
            flop_count * out.train_windows / untraced_train_s / 1e9,
        "model.trace_ms":
            1e3 * sum(s.seconds for s in traces) / out.predict_windows,
        "training.batch_gradients_ms":
            1e3 * _median(s.seconds for s in steps),
        "training.adam_step_ms": 1e3 * _median(
            s.seconds for s in op.named("training.adam_step")),
        "model.checkpoint_bytes": out.counts.get("model.checkpoint_bytes", 0),
        "data.windows": out.counts.get("data.windows", 0),
        "varlab.stationary_covariance_s": _median(
            s.seconds for s in op.named("varlab.stationary_covariance")),
    }
    for name, span in SUMMED_SPANS.items():
        metrics[name] = op.seconds(span)
    return metrics


# -- the run ---------------------------------------------------------------


def summarize_end_to_end(untraced: list[OpRecord], workload) -> dict:
    metrics = {"peak_rss_mb": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    per_op = [end_to_end(r, workload) for r in untraced]
    for name in per_op[0] if per_op else ():
        values = [m[name] for m in per_op]
        if name in BEST_OF_RUN:
            metrics[name] = _best(values, END_TO_END[name][1])
        else:
            metrics[name] = _median(values)
    return metrics


def summarize_per_layer(untraced: list[OpRecord], traced: list[OpRecord],
                        workload) -> dict:
    if not untraced or not traced:
        return {}
    train_s = _median(r.seconds(*workload.TRAIN_SPANS) for r in untraced)
    per_op = [per_layer(r, workload, train_s) for r in traced]
    metrics = {name: _median(m[name] for m in per_op)
               for name in PER_LAYER if name != "trace.overhead_s"}
    # the same estimator as wall_s, over whole operations
    metrics["trace.overhead_s"] = (
        _best([r.root.seconds for r in traced], "lower")
        - _best([r.root.seconds for r in untraced], "lower"))
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> dict:
    """Closed loop of operations; every other one traced when `trace`."""
    from ucast.errors import UcastError
    import tracer as tracing
    import workloads

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workload = workloads.build(workload_name, workdir, smoke=smoke)
    tracer = tracing.Tracer()
    records: list[OpRecord] = []
    errors: list[str] = []
    failed_checks: list[str] = []
    start = time.perf_counter()
    op = 0
    try:
        while op < MIN_OPS or time.perf_counter() - start < seconds:
            traced = trace and op % 2 == 1
            tracer.op = op
            outcome = None
            with contextlib.ExitStack() as stack:
                if traced:
                    stack.enter_context(tracing.instrument(tracer))
                with tracer.span("op") as root:
                    try:
                        with tracer.span("setup"):
                            inputs = workload.setup(seed, tracer)
                        with tracer.span("timed"):
                            outcome = workload.run(inputs, tracer)
                    except UcastError as exc:
                        errors.append(f"op {op}: {type(exc).__name__}: {exc}")
            if outcome is not None:
                records.append(OpRecord(tracer, root, traced, outcome))
                failed_checks += [f"op {op}: {name}"
                                  for name, ok in outcome.checks.items()
                                  if not ok]
            op += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passed = [r for r in records if all(r.outcome.checks.values())]
    failed = op - len(passed)
    # the same inputs must give bit-identical outputs in every operation
    if len({r.outcome.fingerprint for r in records}) > 1:
        failed_checks.append("outputs differ between operations")
        failed = op
    untraced = [r for r in passed if not r.traced]
    e2e = summarize_end_to_end(untraced, workload)
    if trace:
        metrics = summarize_per_layer(
            untraced, [r for r in passed if r.traced], workload)
        units = PER_LAYER
    else:
        metrics, units = e2e, END_TO_END
    return {
        "correct": not errors and not failed_checks and bool(passed),
        "attempted": op,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0),
                           "unit": units[name][0]}
                    for name in units},
        "detail": {
            "end_to_end": e2e,
            "test_mse": passed[0].outcome.test_mse if passed else float("nan"),
            "errors": errors,
            "failed_checks": failed_checks,
            "ops": [{"op": r.root.op, "traced": r.traced,
                     "seconds": r.root.seconds, "test_mse": r.outcome.test_mse,
                     **end_to_end(r, workload)}
                    for r in records],
            "untraced_wrappers": sorted(tracer.missing),
            "spans": [s.to_dict() for s in tracer.spans] if trace else [],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes of the same workload, for tests")
    args = parser.parse_args(argv)

    _import_package()
    actual = hostinfo.pin_blas()
    if actual != hostinfo.BLAS_THREADS:
        sys.stderr.write(
            f"perfbench: BLAS threads in effect {actual}, requested "
            f"{hostinfo.BLAS_THREADS}\n")
        return EXIT_BLAS_UNPINNED
    host = hostinfo.host_record(ROOT, actual)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 smoke=args.smoke)
    detail = result.pop("detail")
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / (f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    record_path.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
         "host": host, **result, **detail}, indent=1) + "\n")

    print(json.dumps({"host": host}))
    for message in detail["errors"] + detail["failed_checks"]:
        print(f"FAILED {message}")
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'test_mse':32s} {detail['test_mse']:>16.6g} mse")
    print(f"{'error_rate':32s} {result['failed'] / result['attempted']:>16.6g}"
          f" ({result['failed']} of {result['attempted']} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
