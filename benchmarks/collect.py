"""Run the benchmark over several seeds; summarise spreads; write the baseline.

    python3 benchmarks/collect.py --workload ot-exact --seeds 0-4 [--trace 0]
    python3 benchmarks/collect.py --workload ot-exact --seeds 0-9 --against ../parent
    python3 benchmarks/collect.py --baseline

The first form runs ``run.py`` once per (workload, seed), one after another,
and prints for each metric the median, the quartiles and the spread
(q3 - q1) / median over the seeds.  ``--workload all`` runs every workload.
``--against`` runs a second checkout (say, the parent commit) next to this one
on every seed, alternating which side runs first, so that both see the same
machine speed.  It prints how much worse this checkout's median is than the
other's and in how many seed pairs this checkout was better.

``--baseline`` writes ``benchmarks/baseline.json`` (about an hour):

1. BASELINE_SETS sets, one after the other, each of one untraced run per
   workload and seed in BASELINE_SEEDS.  In the last set, each seed in
   TRACED_SEEDS is also run traced right after its untraced run, so the
   tracing overhead compares runs taken moments apart.
2. One untraced and one traced run of the held-out seed per workload.

For every end-to-end metric it records each set's median and quartiles and
whether the sets agree within the metric's bound.  It also records the
default seed's report digests and whether the trace reproduces the ROADMAP's
baseline figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

from run import DEFAULT_SEED, OUT, ROOT, WORKLOADS
from stats import spread
from tracing import END, NAME, NESTED, OP, OP_SPAN, START

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"
BASELINE_SETS = 2
BASELINE_SEEDS = range(10)
TRACED_SEEDS = range(5)
HELD_OUT_SEED = 7919


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _r6(x: float) -> float:
    return float(f"{x:.6g}")


def run_once(workload: str, seed: int, seconds: int, trace: int,
             root: Path = ROOT) -> tuple[dict, dict]:
    """One ``run.py`` run of the checkout at ``root``: its JSON result line and its record."""
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed for {workload} seed {seed} (exit {proc.returncode})")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = root / OUT.relative_to(ROOT) / f"{workload}.trace{trace}.json"
    record = json.loads(record_path.read_text())
    print(f"{root.name} {workload} seed {seed} trace {trace}: "
          f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
    return result, record


def quartiles(runs: list[dict], name: str) -> dict:
    values = [r["metrics"][name]["value"] for r in runs]
    if len(values) < 2 or min(values) <= 0:
        return {"median": _r6(statistics.median(values))}
    med, q1, q3, rel = spread(values)
    return {"median": _r6(med), "q1": _r6(q1), "q3": _r6(q3), "spread": round(rel, 4)}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return -change if better == "higher" else change


def compare_sets(sets: list[list[dict]], metric: dict) -> dict:
    """Each set's quartiles and whether they agree within ``metric``'s bound."""
    name, bound = metric["name"], metric["bound"]
    summaries = [quartiles(runs, name) for runs in sets]
    medians = [s["median"] for s in summaries]
    worst = max(worse_by(a, b, metric["better"])
                for i, a in enumerate(medians) for j, b in enumerate(medians) if i != j)
    return {
        "unit": metric["unit"],
        "bound": bound,
        "sets": summaries,
        "worst_median_change": round(worst, 4),
        "medians_agree": worst <= bound,
        "spreads_within_bound": all(s["spread"] <= bound for s in summaries),
        "spreads_below_third_of_bound": all(s["spread"] < bound / 3 for s in summaries),
    }


def lyapunov_shares(workload: str, record: dict) -> dict[str, float]:
    """``lyapunov_search`` share of operation time per size, from a traced run's spans."""
    keys = record["keys"]
    op_s: Counter = Counter()
    lyapunov_s: Counter = Counter()
    with open(OUT / f"{workload}.spans.jsonl") as fh:
        for line in fh:
            span = json.loads(line)
            size = keys[span[OP]].split("-")[0]
            if span[NAME] == OP_SPAN:
                op_s[size] += span[END] - span[START]
            elif span[NAME] == "contraction.lyapunov_search" and not span[NESTED]:
                lyapunov_s[size] += span[END] - span[START]
    return {size: round(lyapunov_s[size] / op_s[size], 4) for size in sorted(op_s)}


def merge_digests(runs: list[dict]) -> dict:
    """The default seed's digests over all sets, and whether the sets agree on them.

    Runs of one seed can reach different numbers of configs, so only configs
    that two runs both reached are compared.
    """
    merged: dict[str, str] = {}
    agree = True
    for digests in runs:
        for key, digest in digests.items():
            agree = agree and merged.setdefault(key, digest) == digest
    return {"default_seed_digests": dict(sorted(merged.items())),
            "digests_equal_across_sets": agree}


def roadmap_checks(shares: dict, per_step: dict, ot_record: dict) -> dict:
    """Whether the default-seed runs reproduce the ROADMAP's baseline figures."""
    b32 = [t for k, t in zip(ot_record["keys"], ot_record["times"]) if k.startswith("bounded-32-")]
    return {
        "lyapunov_share": {
            "roadmap": "lyapunov takes >99% of a 64x64 run (30 iterations)",
            "measured_by_size": shares,
            "reproduced": shares["64x64"] > 0.99,
            "source": "traced discrete-certify run of the default seed: "
                      "64x64 at 1 iteration, 16x16 at 5 iterations",
        },
        "factorizations_per_sinkhorn_step": {
            "roadmap": "4 eigh + 4 eigvalsh per gaussian.sinkhorn_step",
            "measured": per_step,
            "reproduced": per_step == {"eigh.calls": 4.0, "eigvalsh.calls": 4.0},
            "source": "traced gaussian-riccati run of the default seed",
        },
        "kantorovich_discrete_32x32": {
            "roadmap": "0.49 s on random 32x32 instances (one wall-clock run)",
            "measured_bounded_32x32_s": {
                "median": _r6(statistics.median(b32)), "min": _r6(min(b32)),
                "max": _r6(max(b32)), "samples": len(b32)},
            "reproduced": "roughly: the instances differ (profile 'bounded' here), "
                          "so only the order of magnitude is comparable",
            "source": "untraced ot-exact run of the default seed, first set",
        },
    }


def baseline(bench: dict) -> dict:
    seconds = bench["run_seconds"]
    sets = [{w: [] for w in WORKLOADS} for _ in range(BASELINE_SETS)]
    pairs = {w: [] for w in WORKLOADS}
    digests = {w: [] for w in WORKLOADS}
    for set_no, runs in enumerate(sets):
        last = set_no == BASELINE_SETS - 1
        for workload in WORKLOADS:
            for seed in BASELINE_SEEDS:
                result, record = run_once(workload, seed, seconds, 0)
                runs[workload].append(result)
                if seed == DEFAULT_SEED:
                    digests[workload].append(record["digests"])
                    if workload == "ot-exact" and set_no == 0:
                        ot_record = record
                    environment = record["environment"]
                if last and seed in TRACED_SEEDS:
                    traced, traced_record = run_once(workload, seed, seconds, 1)
                    pairs[workload].append((record, traced))
                    if seed == DEFAULT_SEED and workload == "discrete-certify":
                        shares = lyapunov_shares(workload, traced_record)
                    if seed == DEFAULT_SEED and workload == "gaussian-riccati":
                        per_step = traced_record["factorizations_per_step"]
    held_out = {w: [run_once(w, HELD_OUT_SEED, seconds, trace)[0] for trace in (0, 1)]
                for w in WORKLOADS}

    workloads = {}
    for w in WORKLOADS:
        traced_runs = [traced for _, traced in pairs[w]]
        # Traced runs take no host-speed references, so both sides are unscaled.
        untraced = [r["metrics"]["ops_per_s"]["value"] for r, _ in pairs[w]]
        traced = [t["metrics"]["trace.ops_per_s"]["value"] for t in traced_runs]
        workloads[w] = {
            "end_to_end": {m["name"]: compare_sets([runs[w] for runs in sets], m)
                           for m in bench["end_to_end"]},
            "attempted": [[r["attempted"] for r in runs[w]] for runs in sets],
            "failed": [[r["failed"] for r in runs[w]] for runs in sets],
            "per_layer": {m["name"]: {"unit": m["unit"], **quartiles(traced_runs, m["name"])}
                          for m in bench["per_layer"]},
            "trace_overhead": {
                "seeds": list(TRACED_SEEDS),
                "untraced_ops_per_s_median": _r6(statistics.median(untraced)),
                "traced_ops_per_s_median": _r6(statistics.median(traced)),
                "traced_over_untraced_median": round(
                    statistics.median(t / u for t, u in zip(traced, untraced)), 3),
            },
            "held_out": {
                "correct": all(r["correct"] for r in held_out[w]),
                "end_to_end": {k: _r6(v["value"]) for k, v in held_out[w][0]["metrics"].items()},
                "per_layer": {k: _r6(v["value"]) for k, v in held_out[w][1]["metrics"].items()},
            },
            **merge_digests(digests[w]),
        }
    return {
        "what": "Benchmark numbers at the commit that added the benchmark, written by "
                "'python3 benchmarks/collect.py --baseline'. End to end: each set is one "
                f"untraced run per seed {BASELINE_SEEDS.start}-{BASELINE_SEEDS.stop - 1}; "
                "the sets ran one after the other. Per layer and trace overhead: traced runs "
                f"of seeds {TRACED_SEEDS.start}-{TRACED_SEEDS.stop - 1}, each right after the "
                "untraced run of the same seed in the last set.",
        "environment": {k: v for k, v in environment.items() if k != "git_commit"},
        "run_seconds": seconds,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "workloads": workloads,
        "roadmap_baselines": roadmap_checks(shares, per_step, ot_record),
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", help="a workload name or 'all'")
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,7")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--against", type=Path, metavar="CHECKOUT",
                        help="another checkout of the repository; its run.py runs right "
                             "after this one's on every seed, and the medians are compared")
    parser.add_argument("--baseline", action="store_true",
                        help=f"run the baseline protocol and write {BASELINE.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    if args.baseline:
        BASELINE.write_text(json.dumps(baseline(bench), indent=1) + "\n")
        return 0
    if args.workload is None:
        parser.error("give --workload or --baseline")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    roots = [ROOT] if args.against is None else [ROOT, args.against.resolve()]
    for workload in names:
        results = {root: [] for root in roots}
        for k, seed in enumerate(_seeds(args.seeds)):
            for root in roots[::-1] if k % 2 else roots:
                results[root].append(run_once(workload, seed, args.seconds, args.trace, root)[0])
        runs = results[ROOT]
        print(f"{workload} ({len(runs)} seeds, trace {args.trace})")
        for name in runs[0]["metrics"]:
            s = quartiles(runs, name)
            line = f"  {name:40s} median {s['median']:.6g}"
            if "spread" in s:
                line += f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}"
                if "bound" in metrics[name]:
                    line += f"  spread/bound {s['spread'] / metrics[name]['bound']:.2f}"
            if args.against is not None:
                other = results[roots[1]]
                theirs = quartiles(other, name)["median"]
                better = metrics[name]["better"]
                wins = sum((a > b) if better == "higher" else (a < b) for a, b in zip(
                    (r["metrics"][name]["value"] for r in runs),
                    (r["metrics"][name]["value"] for r in other)))
                line += f"  | against {theirs:.6g}, better in {wins}/{len(runs)} pairs"
                if theirs > 0:
                    line += f", worse by {worse_by(theirs, s['median'], better):+.3f}"
            print(line)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
