"""Experiment orchestration: seeded generators, runners, reports.

Instances are generated from a counter-based RNG keyed by the seed, so the
same (seed, profile) always yields the same model regardless of call order.
Reports persist as CSV rows plus a verdict file; every verdict is recomputable
from the rows.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import contraction, discrete, gaussian
from .divergences import Gaussian
from .errors import DomainError
from .fitting import fit_rate  # noqa: F401  (fit_rate is part of this module's API)

MAX_DISCRETE_SIDE = 64
MAX_GAUSSIAN_DIM = 16
# A run keeps every iterate of its 2 * iterations half steps, so this caps its
# time and memory (a 64x64 discrete iterate holds 128 KB).
MAX_ITERATIONS = 1000


def _rng(seed: int) -> np.random.Generator:
    seed = int(seed)
    if not 0 <= seed < 2 ** 128:
        raise DomainError(f"seed must be in [0, 2**128), got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


def generate_instance(regime: str, size, seed: int, profile: str, **params):
    """Deterministic desk-scale instance for (seed, profile)."""
    rng = _rng(seed)
    if regime == "discrete":
        sides = (size, size) if isinstance(size, numbers.Integral) else size
        if not (isinstance(sides, (list, tuple)) and len(sides) == 2
                and all(isinstance(s, numbers.Integral) for s in sides)):
            raise DomainError(f"size must be an int or a pair of ints, got {size!r}")
        nx, ny = (int(s) for s in sides)
        if nx < 1 or ny < 1:
            raise DomainError(f"size must be >= 1 on each side, got {(nx, ny)}")
        if nx > MAX_DISCRETE_SIDE or ny > MAX_DISCRETE_SIDE:
            raise DomainError(f"discrete supports are capped at {MAX_DISCRETE_SIDE}")
        if profile == "bounded":
            osc_cap = float(params.pop("osc_cap", math.log(2.0)))
            if not 0.0 <= osc_cap < math.inf:
                raise DomainError(f"osc_cap must be finite and >= 0, got {osc_cap}")
            if nx * ny < 2:
                raise DomainError("size must have at least 2 cells for the bounded profile, got 1x1")
            cost = rng.uniform(0.0, 1.0, size=(nx, ny))
            lo, hi = float(cost.min()), float(cost.max())
            # Affine rescale so osc(W) equals the cap exactly.
            cost = (cost - lo) / (hi - lo) * osc_cap
        elif profile == "quadratic-grid":
            t = float(params.pop("t", 0.25))
            if not t > 0.0:
                raise DomainError(f"t must be > 0, got {t}")
            xs = np.linspace(0.0, 1.0, nx)
            ys = np.linspace(0.0, 1.0, ny)
            cost = (xs[:, None] - ys[None, :]) ** 2 / (2.0 * t)
        else:
            raise DomainError(f"unknown discrete profile {profile!r}")
        if params:
            raise DomainError(f"unknown profile parameters {sorted(params)}")
        lam = rng.uniform(0.5, 1.5, size=nx)
        nu = rng.uniform(0.5, 1.5, size=ny)
        u = rng.uniform(0.0, 1.0, size=nx)
        v = rng.uniform(0.0, 1.0, size=ny)
        return discrete.build_model(cost, lam, nu, u, v)
    if regime == "gaussian":
        if not isinstance(size, numbers.Integral):
            raise DomainError(f"size must be an int, got {size!r}")
        d = int(size)
        if d < 1:
            raise DomainError(f"size must be >= 1, got {d}")
        if d > MAX_GAUSSIAN_DIM:
            raise DomainError(f"gaussian dimension is capped at {MAX_GAUSSIAN_DIM}")
        if profile != "gaussian-random-spd":
            raise DomainError(f"unknown gaussian profile {profile!r}")
        if params:
            raise DomainError(f"unknown profile parameters {sorted(params)}")

        def random_spd() -> np.ndarray:
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            vals = rng.uniform(0.1, 1.2, size=d)
            return (q * vals) @ q.T

        def random_invertible() -> np.ndarray:
            m = rng.normal(size=(d, d))
            u_mat, s, vt = np.linalg.svd(m)
            return (u_mat * np.clip(s, 0.3, None)) @ vt

        mu = Gaussian(rng.normal(size=d), random_spd())
        eta = Gaussian(rng.normal(size=d), random_spd())
        kernel = gaussian.LinearGaussianKernel(
            alpha=rng.normal(size=d), beta=random_invertible(), tau=random_spd()
        )
        return gaussian.GaussianInstance(mu=mu, eta=eta, kernel=kernel)
    raise DomainError(f"unknown regime {regime!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    regime: str
    instance: dict
    iterations: int
    seed: int
    checks: tuple[str, ...]
    output: str | None = None
    plot: bool = False

    def __post_init__(self) -> None:
        known = _regime(self.regime).checks
        for name in ("iterations", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise DomainError(f"{name} must be an int, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.iterations < 1:
            raise DomainError("iterations must be >= 1")
        if self.iterations > MAX_ITERATIONS:
            raise DomainError(f"iterations must be <= {MAX_ITERATIONS}, got {self.iterations}")
        if not isinstance(self.instance, dict):
            raise DomainError(f"instance must be an object, got {self.instance!r}")
        object.__setattr__(self, "instance", dict(self.instance))
        if not isinstance(self.checks, (list, tuple)):
            raise DomainError(f"checks must be a list of check identifiers, got {self.checks!r}")
        object.__setattr__(self, "checks", tuple(self.checks))
        if self.output is not None and not isinstance(self.output, str):
            raise DomainError(f"output must be a path, got {self.output!r}")
        if not isinstance(self.plot, bool):
            raise DomainError(f"plot must be true or false, got {self.plot!r}")
        unknown = [c for c in self.checks if c not in known]
        if unknown:
            raise DomainError(f"unknown check identifiers {unknown} for regime {self.regime}")
        if "riccati-rate" in self.checks and self.iterations < gaussian.MIN_RATE_PAIRS:
            raise DomainError(f"iterations must be >= {gaussian.MIN_RATE_PAIRS} for the "
                              f"riccati-rate check, got {self.iterations}")

    @classmethod
    def from_json(cls, payload: dict | str) -> "ExperimentConfig":
        if isinstance(payload, str):
            payload = json.loads(payload)
        if not isinstance(payload, dict):
            raise DomainError(f"config must be an object, got {payload!r}")
        regime = payload.get("regime")
        checks = payload.get("checks")
        return cls(
            regime=regime,
            instance=payload.get("instance", {}),
            iterations=payload.get("iterations", 20),
            seed=payload.get("seed", 0),
            checks=tuple(_regime(regime).checks) if checks is None else checks,
            output=payload.get("output"),
            plot=payload.get("plot", False),
        )

    def canonical_json(self) -> str:
        return json.dumps(
            {
                "regime": self.regime,
                "instance": self.instance,
                "iterations": self.iterations,
                "seed": self.seed,
                "checks": list(self.checks),
            },
            sort_keys=True,
        )

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


@dataclass(frozen=True)
class Verdict:
    check: str
    passed: bool
    worst_residual: float


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[tuple[int, str, float], ...]
    verdicts: tuple[Verdict, ...]
    provenance: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def csv_text(self) -> str:
        lines = ["step,metric,value"]
        for step, metric, value in self.rows:
            lines.append(f"{step},{metric},{value!r}")
        return "\n".join(lines) + "\n"

    def verdicts_json(self) -> str:
        return json.dumps(
            {
                "provenance": self.provenance,
                "verdicts": [
                    {"check": v.check, "passed": v.passed, "worst_residual": v.worst_residual}
                    for v in self.verdicts
                ],
            },
            sort_keys=True,
            indent=2,
        ) + "\n"


def _load_instance(config: ExperimentConfig):
    regime = REGIMES[config.regime]
    spec = config.instance
    if "path" in spec:
        return regime.decode(json.loads(Path(spec["path"]).read_text()))
    if "profile" in spec:
        extra = {k: v for k, v in spec.items() if k not in ("profile", "size", "seed")}
        return generate_instance(
            config.regime,
            spec.get("size", regime.default_size),
            int(spec.get("seed", config.seed)),
            spec["profile"],
            **extra,
        )
    if "inline" in spec:
        return regime.decode(spec["inline"])
    raise DomainError("instance must provide one of: path, profile, inline")


# --------------------------------------------------------------------------
# Check implementations.  Each returns (rows, Verdict).
# --------------------------------------------------------------------------


def _marginal_errors(model, bridge) -> tuple[float, float]:
    """Worst absolute error of the bridge's row sums against mu and column sums against eta."""
    return (float(np.max(np.abs(bridge.sum(axis=1) - model.mu))),
            float(np.max(np.abs(bridge.sum(axis=0) - model.eta))))


def _check_ladder(model, iterates, solution):
    # The ladder decomposes H(Q | P) for a coupling Q of (mu, eta); a bridge
    # solve that stalled short of its marginals fails the check instead.
    err = max(_marginal_errors(model, solution.bridge))
    if err > discrete.MARGINAL_TOL:
        return [(0, "ladder_bridge_marginal_error", err)], Verdict("ladder", False, err)
    report = discrete.entropy_ladder(model, iterates, solution.bridge)
    rows = []
    worst = 0.0
    for row in report.rows:
        rows.append((row.n, "ladder_residual", row.residual))
        rows.append((row.n, "entropy_to_bridge", row.entropy_to_bridge))
        if math.isnan(row.residual):
            worst = math.inf
        else:
            worst = max(worst, row.residual)
    return rows, Verdict("ladder", worst <= 1e-9, worst)


def _check_linear_decay(model, iterates, solution):
    total = discrete.relative_entropy(solution.bridge, iterates[0].joint_even)
    rows = []
    worst = -math.inf
    for it, gap_eta, gap_mu in zip(iterates, *discrete.marginal_gaps(model, iterates)):
        lhs = (it.step + 1) * (gap_eta + gap_mu)
        rows.append((it.step, "linear_decay_lhs", lhs))
        worst = max(worst, lhs - total)
    rows.append((0, "bridge_entropy_total", total))
    return rows, Verdict("linear-decay", worst <= 1e-8, worst)


def _check_geometric(model, iterates, solution):
    report = discrete.geometric_rate_report(model, iterates)
    rows = [(0, "eps_w", report.eps_w), (0, "rate_bound", report.bound)]
    worst = 0.0
    ok = True
    for row in report.ratio_rows:
        rows.append((row.n, f"ratio_{row.phi_name}", row.ratio))
        if row.saturated or row.value < 1e-14:
            continue
        worst = max(worst, row.ratio - report.bound)
        ok = ok and row.ratio <= report.bound + 1e-10
    for n, value in report.sup_series:
        rows.append((n, "sup_ratio_gap", value))
    if report.sup_fit is not None:
        rows.append((0, "sup_fit_slope", report.sup_fit.slope))
        rows.append((0, "sup_fit_r2", report.sup_fit.r2))
    ok = ok and report.sandwich_ok
    worst = max(worst, report.sandwich_residual)
    return rows, Verdict("geometric-rate", ok, worst)


def _check_identities(model, iterates, solution):
    report = discrete.identity_suite(model, iterates)
    rows = [(row.index, f"identity_{row.name}", row.residual) for row in report.rows]
    worst = max((row.residual for row in report.rows), default=0.0)
    return rows, Verdict("identities", report.all_passed, worst)


def _check_bridge_feasibility(model, iterates, solution):
    marg_x, marg_y = _marginal_errors(model, solution.bridge)
    worst = max(solution.residual, marg_x, marg_y)
    rows = [
        (0, "bridge_residual", solution.residual),
        (0, "bridge_marginal_x_error", marg_x),
        (0, "bridge_marginal_y_error", marg_y),
        (0, "bridge_iterations", float(solution.iterations_used)),
    ]
    return rows, Verdict("bridge-feasibility", worst <= 1e-10 and solution.converged, worst)


def _check_lyapunov(model, iterates, solution):
    delta = 0.25
    g = np.exp(delta * model.u_potential)
    h = np.exp(delta * model.v_potential)
    evens = [it.kernel_even for it in iterates[1:]]
    odds = [it.kernel_odd for it in iterates[1:]]
    result = contraction.lyapunov_search(evens, odds, g, h)
    rows = []
    if isinstance(result, contraction.SearchFailure):
        rows.append((0, "lyapunov_best_rho", result.best_rho))
        return rows, Verdict("lyapunov", False, result.best_rho)
    rows.append((0, "lyapunov_a", result.a))
    rows.append((0, "lyapunov_rho", result.rho))
    pair = contraction.WeightPair(g=g, h=h, a=result.a)
    worst = 0.0
    ok = True
    base_even = None
    base_odd = None
    for it in iterates[1:]:
        n = it.step
        dist_even = float(np.sum(pair.h_a * np.abs(it.pi_even - model.eta)))
        dist_odd = float(np.sum(pair.g_a * np.abs(it.pi_odd - model.mu)))
        rows.append((n, "weighted_tv_even", dist_even))
        rows.append((n, "weighted_tv_odd", dist_odd))
        if base_even is None:
            base_even, base_odd, base_n = dist_even, dist_odd, n
            continue
        factor = result.rho ** (2 * (n - base_n))
        gap = max(dist_even - factor * base_even, dist_odd - factor * base_odd)
        worst = max(worst, gap)
        ok = ok and gap <= 1e-10
    return rows, Verdict("lyapunov", ok and result.rho < 1.0, worst)


def _check_riccati_equivalence(instance, trajectory, bridge):
    rows = []
    worst = 0.0
    current = trajectory[0].rescaled_cov
    for state in trajectory:
        if state.step % 2 != 0:
            continue
        if state.step > 0:
            current = gaussian.riccati_apply(bridge.problem, current)
        diff = float(np.max(np.abs(state.rescaled_cov - current)))
        rows.append((state.step // 2, "riccati_equiv_error", diff))
        worst = max(worst, diff)
    return rows, Verdict("riccati-equivalence", worst <= 1e-10, worst)


def _check_golden(instance, trajectory, bridge):
    r = bridge.fixed_point
    eig_varpi = np.linalg.eigvalsh(bridge.problem.varpi)
    eig_r = np.linalg.eigvalsh(r)
    scalar = (-eig_varpi + np.sqrt(eig_varpi ** 2 + 4.0 * eig_varpi)) / 2.0
    worst = float(np.max(np.abs(np.sort(eig_r) - np.sort(scalar))))
    rows = [(0, "fixed_point_eig_error", worst)]
    if instance.mu.dim == 1:
        rows.append((0, "fixed_point", float(r[0, 0])))
    return rows, Verdict("golden-fixed-point", worst <= 1e-9, worst)


def _check_transport(instance, trajectory, bridge):
    pushed = gaussian.push_forward(instance.mu, bridge.kernel)
    mean_err = float(np.linalg.norm(pushed.mean - instance.eta.mean))
    cov_err = float(np.linalg.norm(pushed.covariance - instance.eta.covariance))
    rows = [(0, "transport_mean_error", mean_err), (0, "transport_cov_error", cov_err)]
    worst = max(mean_err, cov_err)
    return rows, Verdict("bridge-transport", worst <= 1e-10, worst)


def _check_entropy_formula(instance, trajectory, bridge):
    table = gaussian.entropy_formula_table(trajectory, bridge, instance.mu, instance.eta,
                                           instance.kernel)
    rows = []
    worst = 0.0
    for n, formula, oracle in table:
        diff = abs(formula - oracle)
        rows.append((n, "entropy_formula", formula))
        rows.append((n, "entropy_formula_error", diff))
        worst = max(worst, diff)
    return rows, Verdict("entropy-formula", worst <= 1e-9, worst)


def _check_riccati_rate(instance, trajectory, bridge):
    report = gaussian.rate_report(trajectory, bridge, instance.mu, instance.eta, instance.kernel)
    rows = []
    for row in report.rows:
        rows.append((row.n, "cov_error", row.cov_error))
        rows.append((row.n, "sqrt_error", row.sqrt_error))
        rows.append((row.n, "mean_error", row.mean_error))
        rows.append((row.n, "directed_product_norm", row.product_norm))
    rows.append((0, "theoretical_slope", report.theoretical_slope))
    structure = max(
        max((row.directed_residual for row in report.rows), default=0.0),
        max((row.loop_gain_residual for row in report.rows), default=0.0),
    )
    rows.append((0, "directed_structure_residual", structure))
    passed = structure <= 1e-8
    if report.fit is not None:
        rows.append((0, "fitted_slope", report.fit.slope))
        rows.append((0, "fit_r2", report.fit.r2))
        passed = passed and bool(report.slope_within)
    residual = structure if report.fit is None else max(
        structure, report.fit.slope - report.theoretical_slope
    )
    return rows, Verdict("riccati-rate", passed, residual)


def _check_envelope(instance, trajectory, bridge):
    report = gaussian.envelope_report(trajectory, bridge, instance.mu, instance.eta,
                                      instance.kernel)
    rows = [
        (0, "kappa", report.kappa),
        (0, "eps", report.eps),
        (0, "refined_factor", report.refined_factor),
    ]
    worst = 0.0
    for row in report.entropy_rows:
        rows.append((row.n, "entropy_to_iterate", row.value))
        rows.append((row.n, "entropy_envelope", row.bound))
        worst = max(worst, row.value - row.bound)
    for row in report.w2_rows:
        rows.append((row.n, "w2_step_value", row.value))
        rows.append((row.n, "w2_step_bound", row.bound))
        worst = max(worst, row.value - row.bound)
    for row in report.chained_w2_rows:
        rows.append((row.n, "w2_chained_value", row.value))
        rows.append((row.n, "w2_chained_bound", row.bound))
        worst = max(worst, row.value - row.bound)
    passed = report.vacuous or report.all_within
    return rows, Verdict("envelope", passed, max(worst, 0.0))


@dataclass(frozen=True)
class _Regime:
    run: Callable  # (instance, iterations) -> (trajectory, bridge)
    checks: dict[str, Callable]  # id -> (instance, trajectory, bridge) -> (rows, Verdict)
    decode: Callable  # JSON payload -> instance
    default_size: object  # profile size when the config gives none


# Engine calls look the function up on its module at call time, so anything
# that rebinds module functions (a profiler, a span tracer) sees them.
REGIMES = {
    "discrete": _Regime(
        run=lambda model, iterations: (
            discrete.run_sinkhorn(model, iterations), discrete.solve_bridge(model)
        ),
        checks={
            "ladder": _check_ladder,
            "linear-decay": _check_linear_decay,
            "geometric-rate": _check_geometric,
            "identities": _check_identities,
            "bridge-feasibility": _check_bridge_feasibility,
            "lyapunov": _check_lyapunov,
        },
        decode=lambda payload: discrete.model_from_json(payload),
        default_size=5,
    ),
    "gaussian": _Regime(
        run=lambda inst, iterations: (
            gaussian.run_sinkhorn(inst.mu, inst.eta, inst.kernel, 2 * iterations),
            gaussian.schrodinger_bridge_gaussian(inst.mu, inst.eta, inst.kernel),
        ),
        checks={
            "riccati-equivalence": _check_riccati_equivalence,
            "golden-fixed-point": _check_golden,
            "bridge-transport": _check_transport,
            "entropy-formula": _check_entropy_formula,
            "riccati-rate": _check_riccati_rate,
            "envelope": _check_envelope,
        },
        decode=lambda payload: gaussian.instance_from_json(payload),
        default_size=2,
    ),
}
DISCRETE_CHECKS = tuple(REGIMES["discrete"].checks)
GAUSSIAN_CHECKS = tuple(REGIMES["gaussian"].checks)


def _regime(name) -> _Regime:
    if not isinstance(name, str) or name not in REGIMES:
        raise DomainError(f"unknown regime {name!r}, expected one of {sorted(REGIMES)}")
    return REGIMES[name]


def run_experiment(config: ExperimentConfig, out_dir: str | Path | None = None) -> ExperimentReport:
    """Run the configured loop, evaluate the checks, persist report + verdicts."""
    regime = REGIMES[config.regime]
    instance = _load_instance(config)
    trajectory, bridge = regime.run(instance, config.iterations)
    rows: list[tuple[int, str, float]] = []
    verdicts: list[Verdict] = []
    for name in config.checks:
        check_rows, verdict = regime.checks[name](instance, trajectory, bridge)
        rows.extend(check_rows)
        verdicts.append(verdict)
    report = ExperimentReport(
        rows=tuple(rows),
        verdicts=tuple(verdicts),
        provenance={"config_sha256": config.digest(), "seed": config.seed},
    )
    target = out_dir or config.output
    if target is not None:
        target = Path(target)
        target.mkdir(parents=True, exist_ok=True)
        (target / "report.csv").write_text(report.csv_text())
        (target / "verdicts.json").write_text(report.verdicts_json())
        if config.plot:
            _write_plots(report, target / "plots")
    return report


# --------------------------------------------------------------------------
# Minimal self-contained SVG plots (log-scale line per metric).
# --------------------------------------------------------------------------


def _write_plots(report: ExperimentReport, plot_dir: Path) -> None:
    series: dict[str, list[tuple[int, float]]] = {}
    for step, metric, value in report.rows:
        if math.isfinite(value) and value > 0:
            series.setdefault(metric, []).append((step, value))
    plot_dir.mkdir(parents=True, exist_ok=True)
    for metric in sorted(series):
        points = sorted(series[metric])
        if len(points) < 2:
            continue
        (plot_dir / f"{metric}.svg").write_text(_svg_line(metric, points))


def _svg_line(title: str, points: list[tuple[int, float]], width: int = 640, height: int = 400) -> str:
    xs = [p[0] for p in points]
    ys = [math.log10(p[1]) for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1
    margin = 40.0

    def sx(x: float) -> float:
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
        f'<rect width="100%" height="100%" fill="white"/>\n'
        f'<text x="{margin}" y="20" font-family="monospace" font-size="13">{title} (log10)</text>\n'
        f'<polyline fill="none" stroke="steelblue" stroke-width="1.5" points="{path}"/>\n'
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>\n'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>\n'
        f'<text x="{margin}" y="{height - 10}" font-family="monospace" font-size="11">step {x0}..{x1}</text>\n'
        f'<text x="5" y="{margin}" font-family="monospace" font-size="11">1e{y1:.1f}</text>\n'
        f'<text x="5" y="{height - margin}" font-family="monospace" font-size="11">1e{y0:.1f}</text>\n'
        "</svg>\n"
    )
