"""Experiment orchestration: seeded generators, runners, reports.

Instances are generated from a counter-based RNG keyed by the seed, so the
same (seed, profile) always yields the same model regardless of call order.
Reports persist as CSV rows plus a verdict file.

One pass-rule table.  :data:`REGIMES` maps each check id to a row builder,
the metrics its rows may carry (no two checks share one) and a rule: a
function of that check's own ``(step, metric, value)`` rows that returns
``(passed, worst_residual)``.  :func:`run_experiment` applies each rule to
the rows its check just wrote, and :func:`verdicts_from_csv` to the rows of
a ``report.csv`` text, so every verdict is recomputable from the rows bit
for bit.  Every verdict tolerance is in a rule, and no engine report decides
a verdict.  A NaN row fails its check with a NaN worst residual before the
rule reads it.  README.md lists each check's metrics and rule.
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
from .matcore import _integer, _real

MAX_DISCRETE_SIDE = 64
MAX_GAUSSIAN_DIM = 16
# A run keeps every iterate of its 2 * iterations half steps, so this caps its
# time and memory (a 64x64 discrete pair holds two 32 KB kernels).
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
        sides = size if isinstance(size, (list, tuple)) else (size, size)
        if len(sides) != 2:
            raise DomainError(f"size must be an int or a pair of ints, got {size!r}")
        nx, ny = (_integer(s, "size", 1) for s in sides)
        if nx > MAX_DISCRETE_SIDE or ny > MAX_DISCRETE_SIDE:
            raise DomainError(f"discrete supports are capped at {MAX_DISCRETE_SIDE}")
        if profile == "bounded":
            osc_cap = _real(params.pop("osc_cap", math.log(2.0)), "osc_cap")
            if not 0.0 <= osc_cap < math.inf:
                raise DomainError(f"osc_cap must be finite and >= 0, got {osc_cap}")
            if nx * ny < 2:
                raise DomainError("size must have at least 2 cells for the bounded profile, got 1x1")
            cost = rng.uniform(0.0, 1.0, size=(nx, ny))
            lo, hi = float(cost.min()), float(cost.max())
            # Affine rescale so osc(W) equals the cap exactly.
            cost = (cost - lo) / (hi - lo) * osc_cap
        elif profile == "quadratic-grid":
            t = _real(params.pop("t", 0.25), "t")
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
        d = _integer(size, "size", 1)
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
        object.__setattr__(self, "iterations", _integer(self.iterations, "iterations", 1))
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        if self.iterations > MAX_ITERATIONS:
            raise DomainError(f"iterations must be <= {MAX_ITERATIONS}, got {self.iterations}")
        if not isinstance(self.instance, dict):
            raise DomainError(f"instance must be an object, got {self.instance!r}")
        object.__setattr__(self, "instance", dict(self.instance))
        seed = self.instance.get("seed", 0)
        if isinstance(seed, bool) or not (isinstance(seed, numbers.Integral)
                                          and 0 <= seed < 2 ** 128):
            raise DomainError(f"instance.seed must be an int in [0, 2**128), got {seed!r}")
        if not isinstance(self.instance.get("path", ""), str):
            raise DomainError(f"instance.path must be a path, got {self.instance['path']!r}")
        if not isinstance(self.checks, (list, tuple)):
            raise DomainError(f"checks must be a list of check identifiers, got {self.checks!r}")
        object.__setattr__(self, "checks", tuple(self.checks))
        if self.output is not None and not isinstance(self.output, str):
            raise DomainError(f"output must be a path, got {self.output!r}")
        if not isinstance(self.plot, bool):
            raise DomainError(f"plot must be true or false, got {self.plot!r}")
        unknown = [c for c in self.checks if not isinstance(c, str) or c not in known]
        if unknown:
            raise DomainError(f"unknown check identifiers {unknown} for regime {self.regime}")
        repeated = sorted({c for c in self.checks if self.checks.count(c) > 1})
        if repeated:
            raise DomainError(f"checks must name each check once, got {repeated} more than once")
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
            # repr round-trips a float, so a rule reads the same bits back from the text.
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
            spec.get("seed", config.seed),
            spec["profile"],
            **extra,
        )
    if "inline" in spec:
        return regime.decode(spec["inline"])
    raise DomainError("instance must provide one of: path, profile, inline")


# --------------------------------------------------------------------------
# Checks.  Each has a row builder, (run, bridge) -> rows, and a pass rule
# that reads only those rows.  The rules hold every tolerance.
# --------------------------------------------------------------------------

IDENTITY_TOL = 1e-12
# KL is summed from u log(u / v), which leaves about eps of rounding per unit
# of mass, so an H_phi value below this may be that floor, not the entropy.
KL_FLOOR = 1e-14


def _column(rows, metric: str) -> list[float]:
    """The values of ``metric``'s rows, in row order."""
    return [value for _, name, value in rows if name == metric]


def _scalars(rows) -> dict[str, float]:
    """Metric -> value, for the metrics a check writes once."""
    return {name: value for _, name, value in rows}


def _require(rows, *metrics: str) -> None:
    """Raise a :class:`DomainError` naming the first of ``metrics`` that no row carries."""
    present = {name for _, name, _ in rows}
    for metric in metrics:
        if metric not in present:
            raise DomainError(f"no {metric!r} row")


def _peak(values, start: float = 0.0) -> float:
    """The largest of ``start`` and ``values``; as with Python's max, a NaN counts as none.

    Rows reach a rule only when none is NaN, so a NaN here is one the rule
    computed itself, such as inf - inf.
    """
    return max([start, *values])


def _at_most(tol: float, *metrics: str) -> Callable:
    """The rule: the largest value of ``metrics``, all >= 0, is <= ``tol``."""
    def rule(rows):
        worst = _peak(value for _, name, value in rows if name in metrics)
        return worst <= tol, worst
    return rule


def _ladder_rows(run, solution):
    # The ladder decomposes H(Q | P) for a coupling Q of (mu, eta); a bridge
    # solve that stalled short of its marginals gets one row instead.
    err = max(discrete.marginal_errors(run.model, solution.bridge))
    if err > discrete.MARGINAL_TOL:
        return [(0, "ladder_bridge_marginal_error", err)]
    report = discrete.entropy_ladder(run, solution.bridge)
    rows = []
    for row in report.rows:
        rows.append((row.n, "ladder_residual", row.residual))
        rows.append((row.n, "entropy_to_bridge", row.entropy_to_bridge))
    return rows


def _ladder_rule(rows):
    stalled = _column(rows, "ladder_bridge_marginal_error")
    if stalled:
        return False, stalled[0]
    _require(rows, "ladder_residual")
    worst = _peak(_column(rows, "ladder_residual"))
    return worst <= 1e-9, worst


def _linear_decay_rows(run, solution):
    total = discrete.relative_entropy(solution.bridge, run.joint_even(0))
    rows = [(n, "linear_decay_lhs", (n + 1) * (gap_eta + gap_mu))
            for n, (gap_eta, gap_mu) in enumerate(zip(*discrete.marginal_gaps(run)))]
    rows.append((0, "bridge_entropy_total", total))
    return rows


def _linear_decay_rule(rows):
    _require(rows, "linear_decay_lhs", "bridge_entropy_total")
    total = _scalars(rows)["bridge_entropy_total"]
    worst = _peak((lhs - total for lhs in _column(rows, "linear_decay_lhs")), -math.inf)
    return worst <= 1e-8, worst


def _geometric_rows(run, solution):
    report = discrete.geometric_rate_report(run.model, run)
    rows = [(0, "eps_w", report.eps_w), (0, "rate_bound", report.bound)]
    for n, phi_name, value in report.entropies:
        rows.append((n, f"h_{phi_name}", value))
    for n, value in report.sup_series:
        rows.append((n, "sup_ratio_gap", value))
    if report.sup_fit is not None:
        rows.append((0, "sup_fit_slope", report.sup_fit.slope))
        rows.append((0, "sup_fit_r2", report.sup_fit.r2))
    rows.append((0, "sandwich_residual", report.sandwich_residual))
    return rows


def _rate_ratios(rows) -> list[float]:
    """H_phi(pi_{2n+2}, eta) / H_phi(pi_{2n}, eta) per phi and n, both at least KL_FLOOR."""
    ratios = []
    for phi in discrete.RATE_PHIS:
        values = _column(rows, f"h_{phi.name}")
        ratios += [b / a for a, b in zip(values, values[1:]) if not min(a, b) < KL_FLOOR]
    return ratios


def _geometric_rule(rows):
    _require(rows, "rate_bound", "sandwich_residual")
    value = _scalars(rows)
    bound, sandwich = value["rate_bound"], value["sandwich_residual"]
    ratios = _rate_ratios(rows)
    passed = all(r <= bound + 1e-10 for r in ratios) and sandwich <= IDENTITY_TOL
    return passed, _peak([*(r - bound for r in ratios), sandwich])


_IDENTITY_METRICS = tuple(f"identity_{name}" for name in discrete.IDENTITY_NAMES)


def _identity_rows(run, solution):
    return [(row.index, f"identity_{row.name}", row.residual)
            for row in discrete.identity_suite(run)]


def _feasibility_rows(run, solution):
    marg_x, marg_y = discrete.marginal_errors(run.model, solution.bridge)
    return [
        (0, "bridge_residual", solution.residual),
        (0, "bridge_marginal_x_error", marg_x),
        (0, "bridge_marginal_y_error", marg_y),
        (0, "bridge_iterations", float(solution.iterations_used)),
        (0, "bridge_converged", float(solution.converged)),
    ]


def _feasibility_rule(rows):
    _require(rows, "bridge_residual", "bridge_marginal_x_error", "bridge_marginal_y_error",
             "bridge_converged")
    value = _scalars(rows)
    worst = max(value["bridge_residual"], value["bridge_marginal_x_error"],
                value["bridge_marginal_y_error"])
    return worst <= 1e-10 and value["bridge_converged"] == 1.0, worst


def _lyapunov_rows(run, solution):
    model, delta = run.model, 0.25
    g = np.exp(delta * model.u_potential)
    h = np.exp(delta * model.v_potential)
    result = contraction.lyapunov_search(run.kernel_even[1:], run.kernel_odd[1:], g, h)
    if isinstance(result, contraction.SearchFailure):
        return [(0, "lyapunov_best_rho", result.best_rho)]
    rows = [(0, "lyapunov_a", result.a), (0, "lyapunov_rho", result.rho)]
    pair = contraction.WeightPair(g=g, h=h, a=result.a)
    # One weighted-TV series per marginal, one row sum per pair from n = 1.
    tv_even = np.sum(pair.h_a * np.abs(run.pi_even[1:] - model.eta), axis=-1)
    tv_odd = np.sum(pair.g_a * np.abs(run.pi_odd[1:] - model.mu), axis=-1)
    for n, even, odd in zip(range(1, len(run)), tv_even.tolist(), tv_odd.tolist()):
        rows.append((n, "weighted_tv_even", even))
        rows.append((n, "weighted_tv_odd", odd))
    return rows


def _lyapunov_rule(rows):
    value = _scalars(rows)
    if "lyapunov_best_rho" in value:
        return False, value["lyapunov_best_rho"]
    _require(rows, "lyapunov_rho", "weighted_tv_even", "weighted_tv_odd")
    rho = value["lyapunov_rho"]
    # The first step's distances are the base that rho^(2 (n - base)) scales.
    (base_n, base_even), *even = [(n, v) for n, name, v in rows if name == "weighted_tv_even"]
    base_odd, *odd = _column(rows, "weighted_tv_odd")
    gaps = []
    for (n, dist_even), dist_odd in zip(even, odd):
        factor = rho ** (2 * (n - base_n))
        gaps.append(max(dist_even - factor * base_even, dist_odd - factor * base_odd))
    return all(gap <= 1e-10 for gap in gaps) and rho < 1.0, _peak(gaps)


def _riccati_equivalence_rows(run, bridge):
    return [(n, "riccati_equiv_error", error)
            for n, error in enumerate(gaussian.riccati_equivalence_errors(run, bridge))]


def _golden_rows(run, bridge):
    r = bridge.fixed_point
    eig_varpi = np.linalg.eigvalsh(bridge.problem.varpi)
    eig_r = np.linalg.eigvalsh(r)
    scalar = (-eig_varpi + np.sqrt(eig_varpi ** 2 + 4.0 * eig_varpi)) / 2.0
    worst = float(np.max(np.abs(np.sort(eig_r) - np.sort(scalar))))
    rows = [(0, "fixed_point_eig_error", worst)]
    if run.instance.mu.dim == 1:
        rows.append((0, "fixed_point", float(r[0, 0])))
    return rows


def _transport_rows(run, bridge):
    eta = run.instance.eta
    pushed = gaussian.push_forward(run.instance.mu, bridge.kernel)
    mean_err = float(np.linalg.norm(pushed.mean - eta.mean))
    cov_err = float(np.linalg.norm(pushed.covariance - eta.covariance))
    return [(0, "transport_mean_error", mean_err), (0, "transport_cov_error", cov_err)]


def _entropy_formula_rows(run, bridge):
    rows = []
    for n, formula, oracle in gaussian.entropy_formula_table(run, bridge):
        rows.append((n, "entropy_formula", formula))
        rows.append((n, "entropy_formula_error", abs(formula - oracle)))
    return rows


def _riccati_rate_rows(run, bridge):
    report = gaussian.rate_report(run, bridge)
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
    if report.fit is not None:
        rows.append((0, "fitted_slope", report.fit.slope))
        rows.append((0, "fit_r2", report.fit.r2))
    return rows


def _riccati_rate_rule(rows):
    _require(rows, "directed_structure_residual", "theoretical_slope")
    value = _scalars(rows)
    structure, slope = value["directed_structure_residual"], value["theoretical_slope"]
    if "fitted_slope" not in value:
        return structure <= 1e-8, structure
    fitted = value["fitted_slope"]
    within = fitted <= slope + 0.05 * abs(slope)
    return structure <= 1e-8 and within, max(structure, fitted - slope)


_ENVELOPE_PAIRS = (("entropy_to_iterate", "entropy_envelope"), ("w2_step_value", "w2_step_bound"),
                   ("w2_chained_value", "w2_chained_bound"))


def _envelope_rows(run, bridge):
    report = gaussian.envelope_report(run, bridge)
    rows = [
        (0, "kappa", report.kappa),
        (0, "eps", report.eps),
        (0, "refined_factor", report.refined_factor),
    ]
    for row in report.entropy_rows:
        rows.append((row.n, "entropy_to_iterate", row.value))
        rows.append((row.n, "entropy_envelope", row.bound))
    for row in report.w2_rows:
        rows.append((row.n, "w2_step_value", row.value))
        rows.append((row.n, "w2_step_bound", row.bound))
    for row in report.chained_w2_rows:
        rows.append((row.n, "w2_chained_value", row.value))
        rows.append((row.n, "w2_chained_bound", row.bound))
    return rows


def _envelope_rule(rows):
    _require(rows, "eps", "refined_factor", "entropy_to_iterate", "entropy_envelope")
    value = _scalars(rows)
    (entropy, w2_step, w2_chained) = (
        list(zip(_column(rows, v), _column(rows, b))) for v, b in _ENVELOPE_PAIRS)
    h0 = entropy[0][0]
    tol = 1e-12 * max(1.0, h0 if math.isfinite(h0) else 1.0)
    # The refined bound holds at even n >= 2.
    refined = [(v, h0 * value["refined_factor"] ** (-(n // 2 - 1)))
               for n, name, v in rows if name == "entropy_to_iterate" and n >= 2 and n % 2 == 0]
    # eps = kappa^2 rho rho_bar; without a finite positive eps the bounds are vacuous.
    vacuous = not (math.isfinite(value["eps"]) and value["eps"] > 0)
    passed = vacuous or (all(v <= b + tol for v, b in entropy + refined)
                         and all(v <= b + 1e-12 for v, b in w2_step + w2_chained))
    return passed, _peak(v - b for v, b in entropy + w2_step + w2_chained)


@dataclass(frozen=True)
class _Check:
    rows: Callable  # (run, bridge) -> [(step, metric, value)]
    rule: Callable  # this check's rows -> (passed, worst_residual); a NaN row fails it
    metrics: tuple[str, ...]  # every metric its rows may carry

    def __post_init__(self) -> None:
        rule = self.rule

        def screened(rows):
            # A NaN row is the worst value of all: it fails the check.
            if any(math.isnan(value) for _, _, value in rows):
                return False, math.nan
            return rule(rows)
        object.__setattr__(self, "rule", screened)


@dataclass(frozen=True)
class _Regime:
    # (instance, iterations) -> (run, bridge): the engine's run of whole-run
    # stacks, a SinkhornRun (row n is pair n) or a GaussianRun (row m is half
    # step m), which records its instance, and its bridge.
    run: Callable
    checks: dict[str, _Check]  # check id -> its row builder, rule and metrics, in default order
    decode: Callable  # JSON payload -> instance
    default_size: object  # profile size when the config gives none


# Engine calls look the function up on its module at call time, so anything
# that rebinds module functions (a profiler, a span tracer) sees them.
def _discrete_run(model, iterations):
    """The run and the bridge solve that continues its sweeps."""
    run = discrete.run_sinkhorn(model, iterations)
    return run, discrete.solve_bridge(model, run)


REGIMES = {
    "discrete": _Regime(
        run=_discrete_run,
        checks={
            "ladder": _Check(_ladder_rows, _ladder_rule, (
                "ladder_residual", "entropy_to_bridge", "ladder_bridge_marginal_error")),
            "linear-decay": _Check(_linear_decay_rows, _linear_decay_rule,
                                   ("linear_decay_lhs", "bridge_entropy_total")),
            "geometric-rate": _Check(_geometric_rows, _geometric_rule, (
                "eps_w", "rate_bound", "h_kl", "h_tv", "h_hellinger-sq", "sup_ratio_gap",
                "sup_fit_slope", "sup_fit_r2", "sandwich_residual")),
            "identities": _Check(_identity_rows, _at_most(IDENTITY_TOL, *_IDENTITY_METRICS),
                                 _IDENTITY_METRICS),
            "bridge-feasibility": _Check(_feasibility_rows, _feasibility_rule, (
                "bridge_residual", "bridge_marginal_x_error", "bridge_marginal_y_error",
                "bridge_iterations", "bridge_converged")),
            "lyapunov": _Check(_lyapunov_rows, _lyapunov_rule, (
                "lyapunov_best_rho", "lyapunov_a", "lyapunov_rho", "weighted_tv_even",
                "weighted_tv_odd")),
        },
        decode=lambda payload: discrete.model_from_json(payload),
        default_size=5,
    ),
    "gaussian": _Regime(
        run=lambda inst, iterations: (gaussian.run_sinkhorn(inst, 2 * iterations),
                                      gaussian.schrodinger_bridge_gaussian(inst)),
        checks={
            "riccati-equivalence": _Check(_riccati_equivalence_rows,
                                          _at_most(1e-10, "riccati_equiv_error"),
                                          ("riccati_equiv_error",)),
            "golden-fixed-point": _Check(_golden_rows,
                                         _at_most(1e-9, "fixed_point_eig_error"),
                                         ("fixed_point_eig_error", "fixed_point")),
            "bridge-transport": _Check(_transport_rows, _at_most(
                1e-10, "transport_mean_error", "transport_cov_error"),
                ("transport_mean_error", "transport_cov_error")),
            "entropy-formula": _Check(_entropy_formula_rows,
                                      _at_most(1e-9, "entropy_formula_error"),
                                      ("entropy_formula", "entropy_formula_error")),
            "riccati-rate": _Check(_riccati_rate_rows, _riccati_rate_rule, (
                "cov_error", "sqrt_error", "mean_error", "directed_product_norm",
                "theoretical_slope", "directed_structure_residual", "fitted_slope", "fit_r2")),
            "envelope": _Check(_envelope_rows, _envelope_rule, (
                "kappa", "eps", "refined_factor",
                *(name for pair in _ENVELOPE_PAIRS for name in pair))),
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


def verdicts_from_csv(csv_text: str) -> tuple[Verdict, ...]:
    """The verdicts of a run from its ``report.csv`` text alone, in the order the checks ran.

    Each row goes to the one check whose metrics name it, and each rule reads its own rows.
    A malformed line, or a check without a row its rule needs, raises a
    :class:`DomainError` that names the line or the check and the metric.
    """
    checks = {name: check for regime in REGIMES.values() for name, check in regime.checks.items()}
    owner = {metric: name for name, check in checks.items() for metric in check.metrics}
    rows: dict[str, list[tuple[int, str, float]]] = {}
    for number, line in enumerate(csv_text.splitlines()[1:], start=2):
        try:
            step, metric, value = line.split(",")
            row = (int(step), metric, float(value))
        except ValueError:
            raise DomainError(f"report line {number}: expected step,metric,value with an integer "
                              f"step and a float value, got {line!r}") from None
        if metric not in owner:
            raise DomainError(f"no check writes the metric {metric!r}")
        rows.setdefault(owner[metric], []).append(row)
    verdicts = []
    for name, check_rows in rows.items():
        try:
            verdicts.append(Verdict(name, *checks[name].rule(check_rows)))
        except DomainError as exc:
            raise DomainError(f"check {name}: {exc}") from None
    return tuple(verdicts)


def run_experiment(config: ExperimentConfig, out_dir: str | Path | None = None) -> ExperimentReport:
    """Run the configured loop, evaluate the checks, persist report + verdicts."""
    regime = REGIMES[config.regime]
    run, bridge = regime.run(_load_instance(config), config.iterations)
    rows: list[tuple[int, str, float]] = []
    verdicts: list[Verdict] = []
    for name in config.checks:
        check = regime.checks[name]
        check_rows = check.rows(run, bridge)
        rows.extend(check_rows)
        verdicts.append(Verdict(name, *check.rule(check_rows)))
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

PLOT_WIDTH, PLOT_HEIGHT = 640, 400  # SVG canvas, in pixels


def _write_plots(report: ExperimentReport, plot_dir: Path) -> None:
    """One log-scale SVG per metric with at least two finite positive rows.

    A log scale has no place for a non-finite or non-positive row, so such
    rows are left out, and each plot says how many of its metric's rows were.
    """
    series: dict[str, list[tuple[int, float]]] = {}
    dropped: dict[str, int] = {}
    for step, metric, value in report.rows:
        if math.isfinite(value) and value > 0:
            series.setdefault(metric, []).append((step, value))
        else:
            dropped[metric] = dropped.get(metric, 0) + 1
    plot_dir.mkdir(parents=True, exist_ok=True)
    for metric in sorted(series):
        points = sorted(series[metric])
        if len(points) < 2:
            continue
        (plot_dir / f"{metric}.svg").write_text(_svg_line(metric, points, dropped.get(metric, 0)))


def _svg_line(title: str, points: list[tuple[int, float]], dropped: int) -> str:
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
        return margin + (x - x0) / (x1 - x0) * (PLOT_WIDTH - 2 * margin)

    def sy(y: float) -> float:
        return PLOT_HEIGHT - margin - (y - y0) / (y1 - y0) * (PLOT_HEIGHT - 2 * margin)

    path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{PLOT_WIDTH}" height="{PLOT_HEIGHT}">\n'
        f'<rect width="100%" height="100%" fill="white"/>\n'
        f'<text x="{margin}" y="20" font-family="monospace" font-size="13">{title} (log10)</text>\n'
        f'<text x="{PLOT_WIDTH - margin}" y="20" font-family="monospace" font-size="11" '
        f'text-anchor="end">{dropped} non-finite or non-positive rows left out</text>\n'
        f'<polyline fill="none" stroke="steelblue" stroke-width="1.5" points="{path}"/>\n'
        f'<line x1="{margin}" y1="{PLOT_HEIGHT - margin}" x2="{PLOT_WIDTH - margin}" y2="{PLOT_HEIGHT - margin}" stroke="black"/>\n'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{PLOT_HEIGHT - margin}" stroke="black"/>\n'
        f'<text x="{margin}" y="{PLOT_HEIGHT - 10}" font-family="monospace" font-size="11">step {x0}..{x1}</text>\n'
        f'<text x="5" y="{margin}" font-family="monospace" font-size="11">1e{y1:.1f}</text>\n'
        f'<text x="5" y="{PLOT_HEIGHT - margin}" font-family="monospace" font-size="11">1e{y0:.1f}</text>\n'
        "</svg>\n"
    )
