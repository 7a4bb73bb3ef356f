"""The four benchmark workloads.

Each workload is a pool of patterns; a pattern is a short list of operations
in a fixed, uneven mix (about 3:1 by count), so the median operation falls
inside one mode.  The worker runs whole patterns, cycling through the pool,
until the run time is used, so every run has the same mix.  All inputs derive
from the workload seed through :func:`derive`; the package sees only the
generated configs and instances.

Why these workloads:

* ``discrete-certify``: ``harness.run_experiment`` with all six discrete
  checks.  ``contraction.lyapunov_search`` takes almost all of each
  operation, so a faster certificate search shows here.  The 64x64 size is
  the package's size cap, where the grid optimum can sit on the grid's edge.
* ``discrete-engine``: the CLI ``verify`` path writing reports and SVG plots,
  five non-``lyapunov`` checks at 64x64 with 100 iterations.  Time goes to the
  discrete engine, ``phi_entropy`` and the write path; ``contraction`` never
  runs, so a contraction change should show no effect.
* ``gaussian-riccati``: ``harness.run_experiment`` with all six Gaussian
  checks; ``matcore`` eigen-factorizations dominate at d=16 and per-call
  overhead at d=2.  No discrete code runs.
* ``ot-exact``: ``divergences.kantorovich_discrete`` directly, which nothing
  on the experiment path calls.  Bounded costs take many simplex pivots; the
  quadratic grid's north-west corner is already optimal (no pivots), the
  bypass case.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from bridgelab import cli, divergences, harness

EXPERIMENT_POOL = 4   # patterns of distinct configs, repeated within a run
OT_POOL = 8           # patterns of distinct OT instances
OT_MARGINAL_TOL = 1e-12
OT_REFERENCE_RTOL = 1e-9


def derive(workload: str, seed: int, *labels) -> int:
    """Config or instance seed for one slot of a workload, from the workload seed."""
    text = ":".join(str(part) for part in (workload, seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


@dataclass
class Outcome:
    ok: bool
    digest: str | None = None
    reason: str = ""
    bytes_written: int = 0


@dataclass
class Op:
    key: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    prepare: Callable[[], None] = lambda: None
    # The part of an output that ``Workload.finalize`` needs; the rest of the
    # output is dropped after its check, so the run's memory does not grow
    # with the number of operations.
    keep: Callable[[object], object] = lambda output: None


@dataclass
class Workload:
    patterns: list[list[Op]]
    # Called once after the timed loop with [(op, kept)] for checks that are
    # too costly to repeat per operation, where ``kept`` is ``op.keep(output)``
    # or None if the operation raised; returns {index: reason} for failures.
    finalize: Callable[[list], dict[int, str]] = field(default=lambda done: {})


def _sha(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Experiments through harness.run_experiment.
# ----------------------------------------------------------------------


def _check_report(report) -> Outcome:
    failed = [v.check for v in report.verdicts if not v.passed]
    digest = _sha(report.csv_text().encode(), report.verdicts_json().encode())
    if failed:
        return Outcome(False, digest, f"verdicts failed: {failed}")
    return Outcome(True, digest)


def _size_label(payload: dict) -> str:
    """``64x64`` for a discrete config, ``d16`` for a Gaussian one."""
    size = payload["instance"]["size"]
    return "x".join(map(str, size)) if isinstance(size, list) else f"d{size}"


def _experiment_op(payload: dict) -> Op:
    config = harness.ExperimentConfig.from_json(payload)
    return Op(
        key=f"{_size_label(payload)}-{config.digest()}",
        run=lambda: harness.run_experiment(config),
        check=_check_report,
    )


def _mixed_pool(workload: str, seed: int, majority: dict, minority: dict,
                minority_every: int = 1) -> list[list[dict]]:
    """EXPERIMENT_POOL patterns of four configs: three majority configs and a
    minority one, which every ``minority_every``-th pattern has and the others
    replace with a fourth majority config."""
    pool = []
    for p in range(EXPERIMENT_POOL):
        last = minority if p % minority_every == 0 else majority
        pattern = []
        for slot, spec in enumerate((majority, majority, majority, last)):
            payload = copy.deepcopy(spec)
            payload["seed"] = derive(workload, seed, p, slot)
            pattern.append(payload)
        pool.append(pattern)
    return pool


def discrete_certify(seed: int, scratch: Path) -> Workload:
    checks = list(harness.DISCRETE_CHECKS)
    small = {"regime": "discrete", "instance": {"profile": "bounded", "size": [16, 16]},
             "iterations": 5, "checks": checks}
    large = {"regime": "discrete", "instance": {"profile": "bounded", "size": [64, 64]},
             "iterations": 1, "checks": checks}
    # 64x64 in every other pattern: its ~2 s operations then number fewer
    # than ten per run even on a fast host, so op_s_tail stays in the 16x16 mode.
    pool = _mixed_pool("discrete-certify", seed, small, large, minority_every=2)
    return Workload([[_experiment_op(c) for c in pat] for pat in pool])


def gaussian_riccati(seed: int, scratch: Path) -> Workload:
    checks = list(harness.GAUSSIAN_CHECKS)
    large = {"regime": "gaussian", "instance": {"profile": "gaussian-random-spd", "size": 16},
             "iterations": 100, "checks": checks}
    small = {"regime": "gaussian", "instance": {"profile": "gaussian-random-spd", "size": 2},
             "iterations": 100, "checks": checks}
    pool = _mixed_pool("gaussian-riccati", seed, large, small)
    return Workload([[_experiment_op(c) for c in pat] for pat in pool])


# ----------------------------------------------------------------------
# The CLI verify path, writing files.
# ----------------------------------------------------------------------


def _cli_op(config_path: Path, key: str, out_dir: Path) -> Op:
    argv = ["verify", "--config", str(config_path), "--out", str(out_dir), "--plot", "on"]

    def prepare() -> None:
        shutil.rmtree(out_dir, ignore_errors=True)

    def run() -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.parse_and_dispatch(argv)

    def check(code) -> Outcome:
        written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
        try:
            report = (out_dir / "report.csv").read_bytes()
            verdicts_bytes = (out_dir / "verdicts.json").read_bytes()
        except OSError as exc:
            return Outcome(False, None, f"missing output: {exc}", written)
        digest = _sha(report, verdicts_bytes)
        verdicts = json.loads(verdicts_bytes)["verdicts"]
        failed = [v["check"] for v in verdicts if not v["passed"]]
        if code != 0 or failed:
            return Outcome(False, digest, f"exit code {code}, verdicts failed: {failed}", written)
        return Outcome(True, digest, "", written)

    return Op(key=key, run=run, check=check, prepare=prepare)


def discrete_engine(seed: int, scratch: Path) -> Workload:
    checks = [c for c in harness.DISCRETE_CHECKS if c != "lyapunov"]
    grid = {"regime": "discrete",
            "instance": {"profile": "quadratic-grid", "size": [64, 64], "t": 0.05},
            "iterations": 100, "checks": checks}
    bounded = {"regime": "discrete",
               "instance": {"profile": "bounded", "size": [64, 64], "osc_cap": 5.0},
               "iterations": 100, "checks": checks}
    pool = _mixed_pool("discrete-engine", seed, grid, bounded)
    config_dir = scratch / "configs"
    config_dir.mkdir(parents=True, exist_ok=True)
    out_dir = scratch / "out"
    patterns = []
    for p, pattern in enumerate(pool):
        ops = []
        for slot, payload in enumerate(pattern):
            path = config_dir / f"config-{p}-{slot}.json"
            path.write_text(json.dumps(payload, sort_keys=True))
            key = harness.ExperimentConfig.from_json(payload).digest()
            ops.append(_cli_op(path, key, out_dir))
        patterns.append(ops)
    return Workload(patterns)


# ----------------------------------------------------------------------
# Exact OT called directly.
# ----------------------------------------------------------------------


def _check_plan(model, result) -> Outcome:
    plan = result.plan
    digest = _sha(plan.tobytes(), repr(result.value).encode())
    if not np.all(plan >= 0.0):
        return Outcome(False, digest, f"negative plan entry {plan.min()!r}")
    rows = float(np.max(np.abs(plan.sum(axis=1) - model.mu)))
    cols = float(np.max(np.abs(plan.sum(axis=0) - model.eta)))
    if max(rows, cols) > OT_MARGINAL_TOL:
        return Outcome(False, digest, f"marginal error {max(rows, cols):.3e}")
    if result.value != float(np.sum(plan * model.cost)):
        return Outcome(False, digest, "value differs from sum(plan * cost)")
    return Outcome(True, digest)


def linprog_value(cost, mu, eta) -> float:
    """Reference optimum from SciPy's HiGHS solver (benchmark-only dependency)."""
    from scipy.optimize import linprog

    nx, ny = cost.shape
    a_eq = np.zeros((nx + ny, nx * ny))
    for i in range(nx):
        a_eq[i, i * ny:(i + 1) * ny] = 1.0
    for j in range(ny):
        a_eq[nx + j, j::ny] = 1.0
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([mu, eta]),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"linprog failed: {res.message}")
    return float(res.fun)


def ot_exact(seed: int, scratch: Path) -> Workload:
    # 48x48 in every other pattern: its ~2 s solves then number fewer than ten
    # per run even on a fast host, so op_s_tail stays in the 32x32 mode.
    with_48 = [("bounded", 32)] * 6 + [("bounded", 48), ("quadratic-grid", 64)]
    without_48 = [("bounded", 32)] * 7 + [("quadratic-grid", 64)]
    models = {}
    patterns = []
    for p in range(OT_POOL):
        ops = []
        for slot, (profile, side) in enumerate(without_48 if p % 2 else with_48):
            instance_seed = derive("ot-exact", seed, p, slot)
            model = harness.generate_instance("discrete", (side, side), instance_seed, profile)
            key = f"{profile}-{side}-{instance_seed}"
            models[key] = model
            ops.append(Op(
                key=key,
                run=lambda m=model: divergences.kantorovich_discrete(m.cost, m.mu, m.eta),
                check=lambda result, m=model: _check_plan(m, result),
                keep=lambda result: result.value,
            ))
        patterns.append(ops)

    def finalize(done) -> dict[int, str]:
        references: dict[str, float] = {}
        failures = {}
        for index, (op, value) in enumerate(done):
            if value is None:
                continue
            model = models[op.key]
            if op.key not in references:
                references[op.key] = linprog_value(model.cost, model.mu, model.eta)
            ref = references[op.key]
            if abs(value - ref) > OT_REFERENCE_RTOL * abs(ref):
                failures[index] = f"value {value!r} vs HiGHS {ref!r}"
        return failures

    return Workload(patterns, finalize)


BUILDERS = {
    "discrete-certify": discrete_certify,
    "discrete-engine": discrete_engine,
    "gaussian-riccati": gaussian_riccati,
    "ot-exact": ot_exact,
}


def build(name: str, seed: int, scratch: Path) -> Workload:
    return BUILDERS[name](seed, scratch)
