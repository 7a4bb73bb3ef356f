"""Command-line entry point.

Exit codes: 0 all verdicts pass, 1 at least one verdict fails, 2 usage or
configuration error.  Outputs are byte-deterministic for a fixed invocation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import harness
from .errors import BridgeLabError


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _size(text: str) -> tuple[int, ...]:
    """A ``gen --size``: one positive integer ``N`` or a pair ``NX,NY``."""
    sides = tuple(_positive_int(side) for side in text.split(","))
    if len(sides) > 2:
        raise argparse.ArgumentTypeError(f"expected N or NX,NY, got {text!r}")
    return sides


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and then shared: each parse starts from a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="bridgelab",
        description="Run bridge experiments, verify identity suites, fit convergence rates.",
    )
    sub = parser.add_subparsers(dest="command")

    def add_run_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", action="append", required=True,
                       help="experiment config JSON (repeatable)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--iterations", type=int, default=None, help="override config iterations")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--jobs", type=_positive_int, default=1,
                       help="parallel experiments (capped at the configs and CPUs)")
        p.add_argument("--plot", choices=("on", "off"), default=None)

    for name, help_text in (
        ("discrete-run", "run a discrete-regime experiment"),
        ("gaussian-run", "run a gaussian-regime experiment"),
        ("verify", "run the configured checks and write verdicts"),
        ("rates", "run and report fitted convergence rates"),
    ):
        add_run_flags(sub.add_parser(name, help=help_text))

    gen = sub.add_parser("gen", help="write a seeded profile instance to a file")
    gen.add_argument("--regime", choices=("discrete", "gaussian"), required=True)
    gen.add_argument("--profile", required=True)
    gen.add_argument("--size", type=_size, required=True,
                     help="dimension (gaussian) or NX,NY (discrete)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output instance JSON path")
    return parser


def _load_config(path: str, args) -> harness.ExperimentConfig:
    payload = json.loads(Path(path).read_text())
    config = harness.ExperimentConfig.from_json(payload)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.iterations is not None:
        overrides["iterations"] = args.iterations
    if args.plot is not None:
        overrides["plot"] = args.plot == "on"
    output = args.out or config.output or os.environ.get("BRIDGELAB_OUT")
    if overrides or output != config.output:
        config = dataclasses.replace(config, output=output, **overrides)
    return config


def _rates_csv(report: harness.ExperimentReport) -> str:
    lines = [report.csv_text().rstrip("\n")]
    by_metric: dict[str, list[tuple[int, float]]] = {}
    for step, metric, value in report.rows:
        by_metric.setdefault(metric, []).append((step, value))
    for metric, series in sorted(by_metric.items()):
        fit = harness.fit_rate(series)
        if fit is not None:
            lines.append(f"0,fitted_slope_{metric},{fit.slope!r}")
            lines.append(f"0,fitted_r2_{metric},{fit.r2!r}")
    return "\n".join(lines) + "\n"


def _execute(task: tuple[harness.ExperimentConfig, bool]) -> harness.ExperimentReport:
    config, with_rates = task
    report = harness.run_experiment(config)
    if with_rates:
        text = _rates_csv(report)
        if config.output:
            target = Path(config.output)
            target.mkdir(parents=True, exist_ok=True)
            (target / "rates.csv").write_text(text)
    return report


def _dispatch_run(args, command: str) -> int:
    configs = [_load_config(path, args) for path in args.config]
    for config in configs:
        expected = {"discrete-run": "discrete", "gaussian-run": "gaussian"}.get(command)
        if expected is not None and config.regime != expected:
            raise BridgeLabError(f"{command} requires a {expected} config, got {config.regime}")
    # Two experiments writing one directory would leave only the last report
    # (or, in parallel, race on its files); the same experiment twice writes
    # the same bytes.
    writers: dict[Path, tuple[str, harness.ExperimentConfig]] = {}
    for path, config in zip(args.config, configs):
        if config.output is None:
            continue
        first_path, first = writers.setdefault(Path(config.output).resolve(), (path, config))
        if first.digest() != config.digest():
            raise BridgeLabError(f"configs {first_path} and {path} are different experiments "
                                 f"but both write to {config.output}")
    tasks = [(config, command == "rates") for config in configs]
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_execute, tasks))
    else:
        reports = [_execute(task) for task in tasks]
    all_ok = True
    for config, report in zip(configs, reports):
        for verdict in report.verdicts:
            status = "pass" if verdict.passed else "FAIL"
            print(f"{status} {verdict.check} (worst residual {verdict.worst_residual:.3e})")
        if command == "rates" and not config.output:
            print(_rates_csv(report), end="")
        all_ok = all_ok and report.all_passed
    return 0 if all_ok else 1


def _dispatch_gen(args) -> int:
    if args.regime == "discrete":
        size = args.size if len(args.size) == 2 else args.size * 2  # N means N,N
        model = harness.generate_instance("discrete", size, args.seed, args.profile)
        payload = harness.discrete.model_to_json(model)
    else:
        if len(args.size) != 1:
            raise BridgeLabError(f"argument --size: the gaussian regime takes one dimension N, "
                                 f"got {','.join(map(str, args.size))!r}")
        instance = harness.generate_instance("gaussian", args.size[0], args.seed, args.profile)
        payload = harness.gaussian.instance_to_json(instance)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


def parse_and_dispatch(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.command == "gen":
            return _dispatch_gen(args)
        return _dispatch_run(args, args.command)
    except (BridgeLabError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(parse_and_dispatch())


if __name__ == "__main__":
    main()
