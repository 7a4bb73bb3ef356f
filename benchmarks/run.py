"""bridgelab benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload discrete-certify --seed 0 --seconds 25 --trace 0

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.  Run from
anywhere; it uses the package under ``src/`` next to this directory.  Each
workload runs as a closed loop: one caller in its own fresh process
issues the next operation only when the previous one has finished, with BLAS
threads pinned to 1.  Set-up (interpreter start, import, building configs and
instances, one untimed warm-up operation) is measured in SETUP_SAMPLES fresh
processes and reported as their median.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs a separate
traced loop and reports per-layer metrics from its spans.  A summary goes to
stdout, then one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
The full record (samples, digests, environment) goes to
``.bench_out/<workload>.trace<0|1>.json`` and the spans of a traced run to
``.bench_out/<workload>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from stats import failed_frac, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
PACKAGE = ROOT / "src" / "bridgelab"
WORKLOADS = ("discrete-certify", "discrete-engine", "gaussian-riccati", "ot-exact")
DEFAULT_SEED = 0
SETUP_SAMPLES = 5
BLAS_PIN = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_TIMEOUT_S = 60
# The worker stops its loop by itself (worker.LOOP_LIMIT_S); this only guards a hang.
RUN_TIMEOUT_S = 150


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _worker(args, *extra: str, timeout: float) -> dict:
    """Start one fresh worker process, wait for it, return its JSON result."""
    env = {**os.environ, **BLAS_PIN}
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--t0", repr(t0), *extra],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _time_metrics(times: list[float], suffix: str) -> dict:
    tail_s, percentile, beyond = tail(times)
    return {
        f"ops_per_s{suffix}": {"value": len(times) / sum(times), "unit": "1/s"},
        f"op_s_p50{suffix}": {"value": statistics.median(times), "unit": "s"},
        f"op_s_tail{suffix}": {"value": tail_s, "unit": "s", "percentile": percentile,
                               "samples_beyond": beyond, "samples": len(times)},
    }


def end_to_end(result: dict, setups: list[tuple[float, float]]) -> dict:
    """The reported metrics first (``BENCHMARK.json`` ``end_to_end``), then the
    unscaled ones and ``failed_frac``, which go only to the record.

    ``setups`` holds ``(setup_s, setup_ref_s)`` of each set-up process.
    """
    times = result["times"]
    setup_scaled = [s * hostspeed.NOMINAL_S / ref for s, ref in setups]
    return {
        **_time_metrics(hostspeed.scaled(times, result["refs"]), "_scaled"),
        "setup_s": {"value": statistics.median(setup_scaled), "unit": "s",
                    "samples": setup_scaled},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        **_time_metrics(times, ""),
        "setup_s_unscaled": {"value": statistics.median(s for s, _ in setups), "unit": "s",
                             "samples": [s for s, _ in setups]},
        "host_ref_s": {"value": statistics.median(result["refs"]), "unit": "s"},
        "failed_frac": {"value": failed_frac(result["failed"], len(times)), "unit": "ratio"},
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no bridgelab package at {PACKAGE}", file=sys.stderr)
        return 2

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_worker(args, "--setup-only", timeout=SETUP_TIMEOUT_S))
    result = _worker(args, timeout=RUN_TIMEOUT_S)
    setups.append(result)
    setups = [(s["setup_s"], s["setup_ref_s"]) for s in setups]

    attempted = len(result["times"])
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = end_to_end(result, setups)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            **result["environment"],
            "blas_thread_pin": BLAS_PIN,
            "git_commit": _git_commit(),
            "source_sha256": _source_sha256(),
        },
        "metrics": metrics,
        **{k: v for k, v in result.items() if k not in ("environment", "per_layer")},
    }
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{args.workload}.trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {attempted} operations, "
          f"{result['failed']} failed, {result['wall_s']:.1f} s of operations")
    for name, metric in metrics.items():
        extra = ""
        if name.startswith("op_s_tail"):
            extra = (f"  (p{metric['percentile']:.1f}, {metric['samples_beyond']} of "
                     f"{metric['samples']} samples beyond)")
        elif name.startswith("setup_s"):
            extra = f"  (median of {len(setups)} fresh processes)"
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}{extra}")
    if args.trace:
        print("  top self time per operation:")
        for name, seconds in result["top_self_s"]:
            print(f"    {name:38s} {seconds:.6g} s")
    print(f"  record: {record_path.relative_to(ROOT)}")
    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    reported = {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                for name in names}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
