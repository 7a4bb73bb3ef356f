"""One closed-loop caller: set up, run whole patterns for the run time, check.

Started by ``run.py`` in a fresh process with BLAS threads pinned to 1.  The
caller issues the next operation only after the previous one has returned;
each operation is timed alone and checked outside its timed interval.  Prints
one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import hostspeed
from stats import TAIL_BEYOND

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SRC = ROOT / "src"

# A run keeps going past its time until the tail percentile is defined, but
# never past this many seconds of operations.
LOOP_LIMIT_S = 100.0
# Reference-kernel samples taken right after set-up.
SETUP_REFS = 3

PER_LAYER_SECONDS = (
    "contraction.lyapunov_search", "contraction.lip_norm",
    "divergences.phi_entropy", "divergences.relative_entropy",
    "discrete.geometric_rate_report", "discrete.identity_suite", "discrete.entropy_ladder",
    "discrete.run_sinkhorn", "discrete.solve_bridge", "harness.generate_instance",
    "gaussian.run_sinkhorn", "gaussian.sinkhorn_step", "gaussian.schrodinger_bridge_gaussian",
    "gaussian.rate_report", "gaussian.envelope_report", "gaussian.bridge_entropy",
    "divergences.gaussian_kl", "divergences.gaussian_w2", "divergences.burg_divergence",
    "fitting.fit_rate", "divergences.kantorovich_discrete",
)
PER_LAYER_SELF = ("harness.run_experiment", "cli.parse_and_dispatch", "divergences.phi_entropy")
PER_LAYER_CALLS = (
    "contraction.lip_norm", "divergences.phi_entropy", "divergences.relative_entropy",
    "gaussian.sinkhorn_step", "matcore.spd_inverse", "matcore.principal_sqrt",
    "matcore.assert_spd",
)
MODULES = ("contraction", "discrete", "divergences", "gaussian", "matcore", "fitting",
           "harness", "cli")


def _import_package():
    if not (SRC / "bridgelab" / "__init__.py").is_file():
        raise SystemExit(f"error: no bridgelab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import bridgelab

    if Path(bridgelab.__file__).resolve().parent != (SRC / "bridgelab").resolve():
        raise SystemExit(f"error: imported bridgelab from {bridgelab.__file__}, not {SRC}")
    return bridgelab


def per_layer_metrics(summary, ops_per_s: float, bytes_written: float) -> dict:
    """Per-operation layer metrics from a traced run's span summary."""
    ops = summary.ops
    metrics = {}
    for name in PER_LAYER_SECONDS:
        metrics[f"{name}.s"] = (summary.inclusive[name] / ops, "s")
    for name in PER_LAYER_SELF:
        metrics[f"{name}.self_s"] = (summary.self_s[name] / ops, "s")
    for name in PER_LAYER_CALLS:
        metrics[f"{name}.calls"] = (summary.calls[name] / ops, "count")
    metrics["contraction.lip_norm.pairs"] = (
        summary.counts["contraction.lip_norm.pairs"] / ops, "count")
    metrics["discrete.solve_bridge.sweeps"] = (
        summary.counts["discrete.solve_bridge.sweeps"] / ops, "count")
    metrics["harness.bytes_written"] = (bytes_written, "bytes")
    metrics["matcore.eigh.calls"] = (summary.counts["eigh.calls"] / ops, "count")
    metrics["matcore.eigvalsh.calls"] = (summary.counts["eigvalsh.calls"] / ops, "count")
    metrics["matcore.factorizations_per_step"] = (
        sum(summary.per_step().values()), "count")
    for module in MODULES:
        metrics[f"{module}.self_share"] = (summary.module_self_share(module), "ratio")
    metrics["trace.ops_per_s"] = (ops_per_s, "1/s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())}


def run_loop(workload, seconds: float, tracer=None):
    """Run whole patterns until ``seconds`` have passed and the tail is defined.

    Returns ``(times, refs, done, failures, digests, bytes_written, wall_s)``:
    the time of each operation, the host-speed reference times taken before
    the first operation and after each one (none in a traced run),
    ``(op, op.keep(output))`` pairs (the output itself is dropped after its
    check), ``{index: reason}`` for failed operations, the report digest of
    each op key, and the bytes the operations wrote.  An operation fails if it
    raises, if its check fails, or if its digest differs from an earlier
    repeat of the same key; each failed operation counts once.
    """
    measure_host = tracer is None
    times: list[float] = []
    refs: list[float] = [hostspeed.reference()] if measure_host else []
    done: list[tuple] = []
    failures: dict[int, str] = {}
    digests: dict[str, str] = {}
    written = 0
    begin = time.perf_counter()
    pattern = 0
    while True:
        for op in workload.patterns[pattern % len(workload.patterns)]:
            index = len(times)
            op.prepare()
            with tracer.operation(index) if tracer is not None else nullcontext():
                start = time.perf_counter()
                try:
                    output = op.run()
                except Exception:  # an operation failure is counted, not fatal
                    output = None
                    failures[index] = traceback.format_exc(limit=3)
                times.append(time.perf_counter() - start)
            if output is None:
                done.append((op, None))
                if measure_host:
                    refs.append(hostspeed.reference())
                continue
            done.append((op, op.keep(output)))
            outcome = op.check(output)
            output = None
            written += outcome.bytes_written
            if outcome.digest is not None and digests.setdefault(op.key, outcome.digest) != outcome.digest:
                failures[index] = f"report bytes changed between repeats of {op.key}"
            elif not outcome.ok:
                failures[index] = outcome.reason
            if measure_host:
                refs.append(hostspeed.reference())
        pattern += 1
        elapsed = time.perf_counter() - begin
        if (elapsed >= seconds and len(times) > TAIL_BEYOND) or elapsed >= LOOP_LIMIT_S:
            break
    return times, refs, done, failures, digests, written, time.perf_counter() - begin


def environment(bridgelab) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "bridgelab": bridgelab.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    bridgelab = _import_package()
    import tracing
    import workloads

    scratch = OUT / f"tmp-{args.workload}"
    workload = workloads.build(args.workload, args.seed, scratch)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(bridgelab)
    warm = workload.patterns[0][0]
    warm.prepare()
    warm.run()
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
    # The host speed just after set-up, to scale set-up time to nominal speed.
    setup_ref_s = statistics.median(hostspeed.reference() for _ in range(SETUP_REFS))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return 0

    times, refs, done, failures, digests, written, wall_s = run_loop(workload, args.seconds, tracer)
    shutil.rmtree(scratch, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for index, reason in workload.finalize(done).items():
        failures.setdefault(index, reason)
    for index, reason in sorted(failures.items())[:3]:
        print(f"operation {index} ({done[index][0].key}) failed: {reason}", file=sys.stderr)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "times": times,
        "refs": refs,
        "keys": [op.key for op, _ in done],
        "wall_s": wall_s,
        "failed": len(failures),
        "failures": {str(k): v for k, v in sorted(failures.items())},
        "digests": digests,
        "peak_rss_mb": peak_rss_mb,
        "bytes_written_per_op": written / len(times),
        "environment": environment(bridgelab),
    }
    if tracer is not None:
        tracer.uninstall()
        spans = tracer.spans()
        summary = tracing.Summary(spans)
        result["per_layer"] = per_layer_metrics(
            summary, len(times) / sum(times), written / len(times))
        result["top_self_s"] = summary.top_self()
        result["factorizations_per_step"] = summary.per_step()
        result["spans"] = len(spans)
        OUT.mkdir(exist_ok=True)
        tracing.write_spans(spans, OUT / f"{args.workload}.spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
