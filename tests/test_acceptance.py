"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; instances come from the seeded generators so
the whole gate is reproducible byte for byte.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from bridgelab import contraction, discrete, divergences as dv, gaussian as gs, harness, matcore
from bridgelab.divergences import relative_entropy

GOLDEN = 0.6180339887


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} {name} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def discrete_instances(count=20, size=(5, 7), osc=1.0):
    return [
        harness.generate_instance("discrete", size, seed, "bounded", osc_cap=osc)
        for seed in range(count)
    ]


def test_criterion_01_entropy_ladder():
    start = time.perf_counter()
    worst = 0.0
    passed = True
    ladder = harness.REGIMES["discrete"].checks["ladder"]
    for model in discrete_instances(20):
        solution = discrete.solve_bridge(model)
        iterates = discrete.run_sinkhorn(model, 50)
        # each instance must pass the ladder rule: a NaN residual fails it,
        # though max() below would skip that NaN
        ok, residual = ladder.rule(ladder.rows(model, iterates, solution))
        passed = passed and ok
        worst = max(worst, residual)
    elapsed = time.perf_counter() - start
    _verdict(
        1, "entropy-ladder identity", passed and worst <= 1e-9 and elapsed < 5.0,
        f"worst residual {worst:.3e}, {elapsed:.2f}s for 20 instances",
    )


def test_criterion_02_linear_decay():
    worst = -math.inf
    for model in discrete_instances(20):
        solution = discrete.solve_bridge(model)
        run = discrete.run_sinkhorn(model, 200)
        total = relative_entropy(solution.bridge, run.joint_even(0))
        for n in range(len(run)):
            gap = relative_entropy(model.eta, run.pi_even[n]) + relative_entropy(
                model.mu, run.pi_odd[n]
            )
            worst = max(worst, (n + 1) * gap - total)
    _verdict(2, "linear decay bound", worst <= 1e-8, f"worst excess {worst:.3e}")


def test_criterion_03_bounded_cost_geometric_rate():
    worst = 0.0
    checked = 0
    for model in discrete_instances(10, osc=math.log(2.0)):
        assert model.eps_w == pytest.approx(0.25)
        report = discrete.geometric_rate_report(model, discrete.run_sinkhorn(model, 60))
        assert report.bound == pytest.approx(0.5625)
        for phi in discrete.RATE_PHIS:
            values = [value for _, name, value in report.entropies if name == phi.name]
            for value, value_next in zip(values, values[1:]):
                if value < 1e-14:
                    continue
                checked += 1
                worst = max(worst, value_next / value - 0.5625)
    _verdict(
        3, "bounded-cost geometric rate", worst <= 1e-10 and checked > 0,
        f"worst ratio excess {worst:.3e} over {checked} ratios",
    )


def test_criterion_04_riccati_equivalence():
    worst = 0.0
    for d in (1, 2, 3, 8):
        inst = harness.generate_instance("gaussian", d, d, "gaussian-random-spd")
        problem = gs.RiccatiProblem.from_instance(inst)
        run = gs.run_sinkhorn(inst, 400)
        current = run.rescaled_cov[0]
        for rescaled in run.rescaled_cov[2::2]:
            current = gs.riccati_apply(problem, current)
            worst = max(worst, float(np.max(np.abs(rescaled - current))))
    golden_inst = gs.GaussianInstance(
        mu=dv.Gaussian(np.zeros(1), np.eye(1)),
        eta=dv.Gaussian(np.zeros(1), np.eye(1)),
        kernel=gs.LinearGaussianKernel(np.zeros(1), np.eye(1), np.eye(1)),
    )
    problem = gs.RiccatiProblem.from_instance(golden_inst)
    fixed = float(gs.riccati_fixed_point(problem)[0, 0])
    golden_err = abs(fixed - GOLDEN)
    _verdict(
        4, "riccati/sinkhorn equivalence", worst <= 1e-10 and golden_err <= 1e-9,
        f"worst flow gap {worst:.3e}, golden error {golden_err:.2e}",
    )


def _rate_fit_instances(count=10):
    """First seeded d <= 3 instances slow enough to leave a usable fit window.

    Instances whose theoretical rate empties the window above the 1e-14
    saturation floor in fewer than 5 pairs cannot carry a log-linear fit, so
    the deterministic scan skips them; the slope assertion itself is never
    relaxed.
    """
    instances = []
    seed = 100
    while len(instances) < count:
        d = 1 + seed % 3
        inst = harness.generate_instance("gaussian", d, seed, "gaussian-random-spd")
        bridge = gs.schrodinger_bridge_gaussian(inst)
        problem = gs.RiccatiProblem.from_instance(inst)
        lam = float(np.linalg.eigvalsh(bridge.fixed_point + problem.varpi)[0])
        slope = -2.0 * math.log(1.0 + lam)
        initial = matcore.spectral_norm(inst.kernel.tau - bridge.kernel.tau)
        if slope >= -5.0 and initial >= 1e-3:
            instances.append((inst, bridge))
        seed += 1
    return instances


def test_criterion_05_riccati_rate():
    start = time.perf_counter()
    fits = []
    check = harness.REGIMES["gaussian"].checks["riccati-rate"]
    for inst, bridge in _rate_fit_instances(10):
        run = gs.run_sinkhorn(inst, 160)
        rows = check.rows(inst, run, bridge)
        assert any(metric == "fitted_slope" for _, metric, _ in rows), "no usable fit window"
        # the riccati-rate rule: the fitted slope within 5% of theory, structure <= 1e-8
        fits.append(check.rule(rows))
    elapsed = time.perf_counter() - start
    ok = all(passed for passed, _ in fits) and elapsed < 10.0
    worst = max(residual for _, residual in fits)
    _verdict(
        5, "riccati convergence rate", ok,
        f"worst residual {worst:.3e}, {elapsed:.2f}s for 10 instances",
    )


def test_criterion_06_bridge_transport():
    worst_mean = 0.0
    worst_cov = 0.0
    seeds = [(d, d) for d in (1, 2, 3, 8)] + [(1 + s % 3, 100 + s) for s in range(10)]
    for d, seed in seeds:
        inst = harness.generate_instance("gaussian", d, seed, "gaussian-random-spd")
        bridge = gs.schrodinger_bridge_gaussian(inst)
        pushed = gs.push_forward(inst.mu, bridge.kernel)
        worst_mean = max(worst_mean, float(np.linalg.norm(pushed.mean - inst.eta.mean)))
        worst_cov = max(
            worst_cov, float(np.linalg.norm(pushed.covariance - inst.eta.covariance))
        )
    _verdict(
        6, "bridge transport", worst_mean <= 1e-10 and worst_cov <= 1e-10,
        f"mean error {worst_mean:.3e}, cov error {worst_cov:.3e}",
    )


def test_criterion_07_entropy_formula_cross_check():
    worst = 0.0
    for d in (1, 2, 3):
        inst = harness.generate_instance("gaussian", d, 200 + d, "gaussian-random-spd")
        bridge = gs.schrodinger_bridge_gaussian(inst)
        b_joint = gs.bridge_joint(inst.mu, bridge)
        run = gs.run_sinkhorn(inst, 40)
        for n in range(21):
            formula = gs.bridge_entropy(run, n, bridge)
            oracle = dv.gaussian_kl(gs.sinkhorn_joint(run, 2 * n), b_joint)
            worst = max(worst, abs(formula - oracle))
    _verdict(7, "entropy formula vs joint KL", worst <= 1e-9, f"worst gap {worst:.3e}")


def test_criterion_08_envelope_domination():
    # The envelope rule: the entropy and refined bounds to 1e-12 (relative to
    # max(1, H_0)) and every step and chained W2 bound (squared to 1e-14).
    envelope = harness.REGIMES["gaussian"].checks["envelope"]
    worst = -math.inf
    rules_ok = True
    gates = 0
    cases = [(1, 300), (2, 301), (3, 302)]
    for d, seed in cases:
        inst = harness.generate_instance("gaussian", d, seed, "gaussian-random-spd")
        run = gs.run_sinkhorn(inst, 200)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        report = gs.envelope_report(run, bridge)
        assert math.isfinite(report.eps)
        for row in report.entropy_rows:
            worst = max(worst, row.value - row.bound)
        gates += report.gate_contractive
        rules_ok = rules_ok and envelope.rule(envelope.rows(inst, run, bridge))[0]
    # a strongly regularized scalar instance exercises the contractive gate
    inst = gs.GaussianInstance(
        mu=dv.Gaussian(np.array([0.2]), np.array([[0.8]])),
        eta=dv.Gaussian(np.array([-0.1]), np.array([[0.9]])),
        kernel=gs.LinearGaussianKernel(np.array([0.0]), np.array([[1.0]]), np.array([[2.0]])),
    )
    run = gs.run_sinkhorn(inst, 200)
    bridge = gs.schrodinger_bridge_gaussian(inst)
    report = gs.envelope_report(run, bridge)
    assert report.gate_contractive
    gates += 1
    for row in report.entropy_rows:
        worst = max(worst, row.value - row.bound)
    rules_ok = rules_ok and envelope.rule(envelope.rows(inst, run, bridge))[0]
    _verdict(
        8, "transport-inequality envelopes", worst <= 1e-10 and rules_ok and gates >= 1,
        f"worst envelope excess {worst:.3e}, contractive gates {gates}",
    )


def test_criterion_09_lyapunov_certificate():
    model = harness.generate_instance("discrete", (10, 10), 17, "bounded", osc_cap=1.0)
    run = discrete.run_sinkhorn(model, 21)
    g = np.exp(0.25 * model.u_potential)
    h = np.exp(0.25 * model.v_potential)
    evens = list(run.kernel_even[1:])
    odds = list(run.kernel_odd[1:])
    cert = contraction.lyapunov_search(evens, odds, g, h)
    assert isinstance(cert, contraction.ContractionCertificate), cert
    pair = contraction.WeightPair(g=g, h=h, a=cert.a)
    base_even = base_odd = None
    worst = 0.0
    for n in range(1, 21):
        dist_even = float(np.sum(pair.h_a * np.abs(run.pi_even[n] - model.eta)))
        dist_odd = float(np.sum(pair.g_a * np.abs(run.pi_odd[n] - model.mu)))
        if base_even is None:
            base_even, base_odd, base_n = dist_even, dist_odd, n
            continue
        factor = cert.rho ** (2 * (n - base_n))
        worst = max(worst, dist_even - factor * base_even, dist_odd - factor * base_odd)
    _verdict(
        9, "lyapunov certificate and weighted-TV decay",
        cert.rho < 1.0 and worst <= 1e-10,
        f"rho {cert.rho:.4f}, worst decay excess {worst:.3e}",
    )


def _enumerate_transport(cost, a, b):
    nx, ny = cost.shape
    m = nx + ny - 1
    best = math.inf
    rhs = np.concatenate([a, b])[:-1]
    for subset in itertools.combinations(list(itertools.product(range(nx), range(ny))), m):
        mat = np.zeros((m, m))
        for k, (i, j) in enumerate(subset):
            mat[i, k] = 1.0
            if nx + j < nx + ny - 1:
                mat[nx + j, k] += 1.0
        try:
            x = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.any(x < -1e-9):
            continue
        plan = np.zeros((nx, ny))
        for k, (i, j) in enumerate(subset):
            plan[i, j] = x[k]
        if max(
            np.max(np.abs(plan.sum(axis=1) - a)), np.max(np.abs(plan.sum(axis=0) - b))
        ) > 1e-9:
            continue
        best = min(best, float(np.sum(plan * cost)))
    return best


def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(1000)
    worst = 0.0
    # dobrushin and lip_norm versus exhaustive pair enumeration
    for _ in range(8):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        kernel = rng.dirichlet(np.ones(m), size=n)
        brute_dob = max(
            0.5 * float(np.sum(np.abs(kernel[i] - kernel[j])))
            for i in range(n) for j in range(n)
        )
        worst = max(worst, abs(contraction.dobrushin(kernel) - brute_dob))
        g = rng.uniform(0.3, 2.0, size=n)
        h = rng.uniform(0.3, 2.0, size=m)
        brute_lip = max(
            (
                float(np.sum(h * np.abs(kernel[i] - kernel[j]))) / (g[i] + g[j])
                for i in range(n) for j in range(n) if i != j
            ),
            default=0.0,
        )
        worst = max(worst, abs(contraction.lip_norm(kernel, g, h) - brute_lip))
    # exact transport versus basic-solution enumeration
    for nx, ny in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4)):
        for _ in range(2):
            m1 = dv.DiscreteMeasure(rng.dirichlet(np.ones(nx)))
            m2 = dv.DiscreteMeasure(rng.dirichlet(np.ones(ny)))
            cost = rng.uniform(0.0, 3.0, size=(nx, ny))
            value = dv.kantorovich_discrete(cost, m1, m2).value
            worst = max(worst, abs(value - _enumerate_transport(cost, m1.weights, m2.weights)))
    # data-processing inequality over 1000 sampled tuples
    dp_violation = 0.0
    tuples = 0
    while tuples < 1000:
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        kernel = rng.dirichlet(np.ones(m), size=n)
        m1 = rng.dirichlet(np.ones(n))
        m2 = rng.dirichlet(np.ones(n))
        for phi in dv.PHI_CATALOG.values():
            before = dv.phi_entropy(phi, m1, m2)
            after = dv.phi_entropy(phi, m1 @ kernel, m2 @ kernel)
            if math.isfinite(before):
                dp_violation = max(dp_violation, after - before)
            tuples += 1
    _verdict(
        10, "oracle equivalence + data processing",
        worst <= 1e-12 and dp_violation <= 1e-11,
        f"worst oracle gap {worst:.3e}, dp excess {dp_violation:.3e} over {tuples} tuples",
    )


def test_criterion_11_determinism(tmp_path):
    configs = [
        {
            "regime": "discrete",
            "instance": {"profile": "bounded", "size": [5, 7], "osc_cap": 1.0},
            "iterations": 20,
            "seed": 5,
            "checks": list(harness.DISCRETE_CHECKS),
        },
        {
            "regime": "gaussian",
            "instance": {"profile": "gaussian-random-spd", "size": 2},
            "iterations": 25,
            "seed": 6,
            "checks": list(harness.GAUSSIAN_CHECKS),
        },
    ]
    identical = True
    for idx, payload in enumerate(configs):
        out_a = tmp_path / f"{idx}-a"
        out_b = tmp_path / f"{idx}-b"
        config = harness.ExperimentConfig.from_json(payload)
        harness.run_experiment(config, out_dir=out_a)
        harness.run_experiment(config, out_dir=out_b)
        identical = identical and (
            (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
        )
        identical = identical and (
            (out_a / "verdicts.json").read_bytes() == (out_b / "verdicts.json").read_bytes()
        )
    _verdict(11, "byte-identical reports", identical)
