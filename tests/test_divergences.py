import itertools
import math
import re
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bridgelab import divergences as dv
from bridgelab import harness, matcore
from bridgelab.errors import DomainError, NumericalError


def random_measure(rng, n):
    return dv.DiscreteMeasure(rng.dirichlet(np.ones(n)))


class TestDiscreteMeasure:
    def test_normalizes(self):
        m = dv.DiscreteMeasure(np.array([2.0, 2.0]))
        np.testing.assert_allclose(m.weights, [0.5, 0.5])
        assert m.support_size == 2

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            dv.DiscreteMeasure(np.array([1.0, -0.1]))

    def test_rejects_zero_mass(self):
        with pytest.raises(DomainError):
            dv.DiscreteMeasure(np.zeros(3))


class TestPhiCatalog:
    @pytest.mark.parametrize("phi", dv.PHI_CATALOG.values(), ids=lambda p: p.name)
    def test_diagonal_is_zero(self, phi):
        assert phi.evaluate(1.0, 1.0) == 0.0

    @pytest.mark.parametrize("phi", dv.PHI_CATALOG.values(), ids=lambda p: p.name)
    def test_homogeneity(self, phi):
        rng = np.random.default_rng(1)
        for _ in range(50):
            u, v = rng.uniform(0.01, 3.0, size=2)
            a = rng.uniform(0.1, 5.0)
            assert phi.evaluate(a * u, a * v) == pytest.approx(a * phi.evaluate(u, v))

    @pytest.mark.parametrize("phi", dv.PHI_CATALOG.values(), ids=lambda p: p.name)
    def test_convexity_on_segments(self, phi):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = rng.uniform(0.01, 2.0, size=2)
            q = rng.uniform(0.01, 2.0, size=2)
            lam = rng.uniform(0.0, 1.0)
            mid = lam * p + (1 - lam) * q
            lhs = phi.evaluate(*mid)
            rhs = lam * phi.evaluate(*p) + (1 - lam) * phi.evaluate(*q)
            assert lhs <= rhs + 1e-12


class TestPhiEntropy:
    def test_tv_identical(self):
        m = dv.DiscreteMeasure(np.array([0.3, 0.7]))
        assert dv.phi_entropy(dv.TOTAL_VARIATION, m, m) == 0.0

    def test_tv_disjoint(self):
        m1 = dv.DiscreteMeasure(np.array([1.0, 0.0]))
        m2 = dv.DiscreteMeasure(np.array([0.0, 1.0]))
        assert dv.phi_entropy(dv.TOTAL_VARIATION, m1, m2) == pytest.approx(1.0)

    def test_kl_scalar_value(self):
        m1 = dv.DiscreteMeasure(np.array([0.5, 0.5]))
        m2 = dv.DiscreteMeasure(np.array([0.25, 0.75]))
        expected = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        value = dv.phi_entropy(dv.KL, m1, m2)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.143841, abs=1e-6)

    def test_kl_infinite_without_absolute_continuity(self):
        m1 = dv.DiscreteMeasure(np.array([0.5, 0.5]))
        m2 = dv.DiscreteMeasure(np.array([1.0, 0.0]))
        assert dv.phi_entropy(dv.KL, m1, m2) == math.inf

    def test_support_mismatch(self):
        with pytest.raises(DomainError):
            dv.phi_entropy(dv.KL, np.array([1.0]), np.array([0.5, 0.5]))

    def test_matches_vectorized_relative_entropy(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            m1, m2 = random_measure(rng, n), random_measure(rng, n)
            assert dv.phi_entropy(dv.KL, m1, m2) == pytest.approx(
                dv.relative_entropy(m1.weights, m2.weights), abs=1e-13
            )


# Scalar integrands and the running sum, as phi_entropy evaluated them one
# entry at a time before it took stacks.
SCALAR_PHIS = {
    "kl": lambda u, v: 0.0 if u == 0.0 else (math.inf if v == 0.0 else u * math.log(u / v)),
    "tv": lambda u, v: abs(u - v) / 2.0,
    "hellinger-sq": lambda u, v: (math.sqrt(u) - math.sqrt(v)) ** 2,
    "chi-square": lambda u, v: ((0.0 if u == 0.0 else math.inf) if v == 0.0
                                else (u - v) ** 2 / v),
}


def scalar_terms(name, p, q):
    return [SCALAR_PHIS[name](u, v) for u, v in zip(p.tolist(), q.tolist())]


def running_sum(terms):
    """The scalar loop's value: a running sum in support order, +inf on a divergent term."""
    total = 0.0
    for term in terms:
        if math.isinf(term):
            return math.inf
        total += term
    return total


def assert_near_scalar_loop(value, terms):
    """``value`` is within 4 m eps sum|terms| of the scalar loop over the m ``terms``.

    The bound is set from the arithmetic, not measured: each term differs from
    its scalar twin by at most 2 ulps (``np.log`` against ``math.log``, or
    ``np.square`` against ``pow``), and numpy's pairwise sum and the running
    sum each lie within (m - 1) eps sum|terms| of the exact sum of the terms.
    """
    expected = running_sum(terms)
    if math.isinf(expected):
        assert value == math.inf
        return
    bound = 4 * max(1, len(terms)) * np.finfo(float).eps * math.fsum(map(abs, terms))
    assert abs(value - expected) <= bound


# The integrands and the per-row sum of phi_entropy, applied to one row: a
# stacked value must equal these bit for bit.
ROW_PHIS = {
    "kl": lambda u, v: np.where(u > 0, u * np.log(u / v), 0.0),
    "tv": lambda u, v: np.abs(u - v) / 2.0,
    "hellinger-sq": lambda u, v: np.square(np.sqrt(u) - np.sqrt(v)),
    "chi-square": lambda u, v: np.where(v != 0, np.square(u - v) / v,
                                        np.where(u == 0, 0.0, math.inf)),
}


def row_phi_entropy(name, w1, w2):
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.sum(ROW_PHIS[name](w1 / w1.sum(), w2 / w2.sum())))


def row_relative_entropy(p, q):
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.sum(ROW_PHIS["kl"](p, q)))


def weights_with_zeros(rng, shape, zero_frac, spread):
    """Nonnegative weights spread over many binades, with exact zeros."""
    w = rng.uniform(0.0, 1.0, size=shape) ** spread
    w[rng.uniform(size=shape) < zero_frac] = 0.0
    return w


class TestStacks:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 9), m=st.integers(1, 70),
           zero_frac=st.sampled_from([0.0, 0.2, 0.6]), spread=st.sampled_from([1.0, 30.0]))
    def test_stacked_phi_entropy_equals_scalar_loop(self, seed, rows, m, zero_frac, spread):
        rng = np.random.default_rng(seed)
        w1 = weights_with_zeros(rng, (rows, m), zero_frac, spread)
        w1[:, 0] += 0.5  # every row keeps positive mass
        w2 = weights_with_zeros(rng, m, zero_frac, spread)  # v = 0 where w2 vanishes
        w2[-1] += 0.5
        u, v = w1 / w1.sum(axis=-1, keepdims=True), w2 / w2.sum()
        for name, phi in dv.PHI_CATALOG.items():
            with np.errstate(divide="ignore", invalid="ignore"):
                assert phi.evaluate(u, v).tobytes() == ROW_PHIS[name](u, v).tobytes()
            stacked = dv.phi_entropy(phi, w1, w2)
            assert stacked.shape == (rows,)
            expected = [row_phi_entropy(name, row, w2) for row in w1]
            assert stacked.tolist() == expected
            assert [math.copysign(1.0, x) for x in stacked.tolist()] == [
                math.copysign(1.0, x) for x in expected]
            one = dv.phi_entropy(phi, w1[0], w2)
            assert type(one) is float and one == expected[0]
            for row, value in zip(w1, stacked.tolist()):
                assert_near_scalar_loop(
                    value, scalar_terms(name, row / float(row.sum()), w2 / float(w2.sum())))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 9), m=st.integers(0, 70),
           zero_frac=st.sampled_from([0.0, 0.1, 0.5]), shared=st.sampled_from([None, "p", "q"]),
           zeros_in_q=st.booleans())
    def test_relative_entropy_rows_equal_scalar(self, seed, rows, m, zero_frac, shared,
                                                zeros_in_q):
        # Zeros in p add 0 log 0 = 0 terms; zeros in q under p give +inf.
        rng = np.random.default_rng(seed)
        p = weights_with_zeros(rng, (rows, m), zero_frac, 1.0)
        q = weights_with_zeros(rng, (rows, m), zero_frac if zeros_in_q else 0.0, 1.0)
        if shared == "p":
            p = p[0]
        elif shared == "q":
            q = q[0]
        pairs = [(p if p.ndim == 1 else p[i], q if q.ndim == 1 else q[i]) for i in range(rows)]
        expected = [row_relative_entropy(a, b) for a, b in pairs]
        assert dv.relative_entropy_rows(p, q).tolist() == expected
        assert [dv.relative_entropy(a, b) for a, b in pairs] == expected
        for (a, b), value in zip(pairs, expected):
            assert_near_scalar_loop(value, scalar_terms("kl", a, b))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 70),
           zero_frac=st.sampled_from([0.0, 0.2, 0.6]), spread=st.sampled_from([1.0, 30.0]))
    def test_one_kl_evaluator(self, seed, m, zero_frac, spread):
        rng = np.random.default_rng(seed)
        w1 = weights_with_zeros(rng, m, zero_frac, spread)
        w2 = weights_with_zeros(rng, m, zero_frac, spread)
        w1[0] += 0.5
        w2[-1] += 0.5
        m1, m2 = dv.DiscreteMeasure(w1), dv.DiscreteMeasure(w2)
        value = dv.phi_entropy(dv.KL, m1, m2)
        assert value == dv.relative_entropy(m1.weights, m2.weights)
        assert dv.phi_entropy(dv.KL, np.stack([w1, w1]), m2).tolist() == [value, value]

    def test_two_dimensional_mu1_is_a_stack(self):
        stack = np.array([[1.0, 3.0], [2.0, 2.0]])
        values = dv.phi_entropy(dv.TOTAL_VARIATION, stack, [0.5, 0.5])
        assert values.tolist() == [0.25, 0.0]

    @pytest.mark.parametrize("row, message", [
        ([1.0, -0.5], "mu1[2] weights must be nonnegative"),
        ([np.nan, 1.0], "mu1[2] weights must be finite"),
        ([0.0, 0.0], "mu1[2] weights must have positive total mass"),
    ])
    def test_stack_errors_name_the_row(self, row, message):
        stack = np.array([[1.0, 1.0], [2.0, 1.0], row, [1.0, np.inf]])
        with pytest.raises(DomainError, match=rf"^{re.escape(message)}$"):
            dv.phi_entropy(dv.KL, stack, [0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1])
    def test_kl_rejects_a_bad_entry_of_p(self, bad):
        # _phi_kl maps a NaN or negative entry of p to a 0 term; the screen
        # raises before it can drop one.
        p, q = np.array([0.6, bad, 0.5]), np.array([0.3, 0.3, 0.4])
        with pytest.raises(DomainError, match="^relative_entropy: entries of p must be finite"):
            dv.relative_entropy(p, q)
        with pytest.raises(DomainError, match="^relative_entropy: entries of p must be finite"):
            dv.relative_entropy(np.stack([p, p]), np.stack([q, q]))
        for stack, one in ((np.stack([[0.5, 0.2, 0.3], p]), q), (p, np.stack([q, q]))):
            with pytest.raises(DomainError,
                               match="^relative_entropy_rows: entries of p must be finite"):
                dv.relative_entropy_rows(stack, one)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1])
    def test_kl_rejects_a_bad_entry_of_q(self, bad):
        # A NaN or negative entry of q once gave NaN, and q = [inf, 1] gave -inf.
        p, q = np.array([0.3, 0.3, 0.4]), np.array([0.6, bad, 0.5])
        with pytest.raises(DomainError, match="^relative_entropy: entries of q must be finite"):
            dv.relative_entropy(p, q)
        for stack, one in ((np.stack([p, p]), q), (p, np.stack([[0.5, 0.2, 0.3], q]))):
            with pytest.raises(DomainError,
                               match="^relative_entropy_rows: entries of q must be finite"):
                dv.relative_entropy_rows(stack, one)

    def test_kl_of_q_inf_one_is_rejected_and_a_zero_of_q_is_infinite(self):
        with pytest.raises(DomainError, match="^relative_entropy: entries of q must be finite"):
            dv.relative_entropy([0.5, 0.5], [np.inf, 1.0])
        assert dv.relative_entropy([0.5, 0.5], [0.0, 1.0]) == math.inf
        assert dv.relative_entropy_rows([0.5, 0.5], [[0.0, 1.0], [0.5, 0.5]]).tolist() == [
            math.inf, 0.0]

    def test_stack_shapes_rejected(self):
        with pytest.raises(DomainError, match="mu1 must be a weight vector or an"):
            dv.phi_entropy(dv.KL, np.ones((2, 2, 2)), np.ones(2))
        with pytest.raises(DomainError, match="support mismatch: 3 vs 2"):
            dv.phi_entropy(dv.KL, np.ones((2, 3)), np.ones(2))
        for p, q in ((np.ones(3), np.ones(3)), (np.ones((2, 3)), np.ones((3, 3))),
                     (np.ones((2, 3)), np.ones(2))):
            with pytest.raises(DomainError):
                dv.relative_entropy_rows(p, q)


class TestWeightedTv:
    def test_zero_on_equal(self):
        m = dv.DiscreteMeasure(np.array([0.4, 0.6]))
        assert dv.weighted_tv(m, m, np.ones(2)) == 0.0

    def test_unit_weight_is_twice_tv(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            m1, m2 = random_measure(rng, n), random_measure(rng, n)
            assert dv.weighted_tv(m1, m2, np.ones(n)) == pytest.approx(
                2.0 * dv.phi_entropy(dv.TOTAL_VARIATION, m1, m2)
            )

    def test_direct_sum(self):
        m1 = dv.DiscreteMeasure(np.array([1.0, 0.0]))
        m2 = dv.DiscreteMeasure(np.array([0.0, 1.0]))
        assert dv.weighted_tv(m1, m2, np.array([3.0, 5.0])) == pytest.approx(8.0)

    def test_rejects_nonpositive_weight(self):
        m = dv.DiscreteMeasure(np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            dv.weighted_tv(m, m, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_rejects_a_non_finite_or_negative_weight(self, bad):
        # A NaN weight once gave NaN and an infinite one inf.
        m1 = dv.DiscreteMeasure(np.array([0.5, 0.5]))
        m2 = dv.DiscreteMeasure(np.array([0.25, 0.75]))
        with pytest.raises(DomainError, match="^weight vector must be finite and strictly positive$"):
            dv.weighted_tv(m1, m2, np.array([1.0, bad]))


class TestGaussianDivergences:
    def test_kl_zero_on_equal(self):
        g = dv.Gaussian(np.array([1.0, -1.0]), np.diag([2.0, 3.0]))
        assert dv.gaussian_kl(g, g) == pytest.approx(0.0, abs=1e-14)

    def test_kl_scalar_mean_shift(self):
        p = dv.Gaussian(np.array([0.0]), np.array([[1.0]]))
        q = dv.Gaussian(np.array([1.0]), np.array([[1.0]]))
        assert dv.gaussian_kl(p, q) == pytest.approx(0.5)

    def test_kl_scalar_variance(self):
        p = dv.Gaussian(np.array([0.0]), np.array([[2.0]]))
        q = dv.Gaussian(np.array([0.0]), np.array([[1.0]]))
        assert dv.gaussian_kl(p, q) == pytest.approx((1.0 - math.log(2.0)) / 2.0)
        assert dv.burg_divergence(p.covariance, q.covariance) == pytest.approx(
            2.0 - 1.0 - math.log(2.0)
        )

    def test_kl_dimension_mismatch(self):
        p = dv.Gaussian(np.zeros(1), np.eye(1))
        q = dv.Gaussian(np.zeros(2), np.eye(2))
        with pytest.raises(DomainError):
            dv.gaussian_kl(p, q)

    def test_w2_zero_and_translation(self):
        cov = np.array([[1.0, 0.2], [0.2, 2.0]])
        p = dv.Gaussian(np.array([0.0, 0.0]), cov)
        q = dv.Gaussian(np.array([3.0, 4.0]), cov)
        assert dv.gaussian_w2(p, p) == pytest.approx(0.0, abs=1e-8)
        assert dv.gaussian_w2(p, q) == pytest.approx(5.0)

    def test_w2_scalar_bures(self):
        p = dv.Gaussian(np.array([0.0]), np.array([[4.0]]))
        q = dv.Gaussian(np.array([0.0]), np.array([[1.0]]))
        assert dv.gaussian_w2(p, q) == pytest.approx(1.0)

    def test_w2_symmetric_and_triangle(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            gs = []
            for _ in range(3):
                q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
                cov = (q * rng.uniform(0.2, 2.0, 2)) @ q.T
                gs.append(dv.Gaussian(rng.normal(size=2), cov))
            a, b, c = gs
            assert dv.gaussian_w2(a, b) == pytest.approx(dv.gaussian_w2(b, a), abs=1e-9)
            assert dv.gaussian_w2(a, c) <= dv.gaussian_w2(a, b) + dv.gaussian_w2(b, c) + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
           log_scale=st.floats(-20.0, 0.0), log_gap=st.floats(-5.0, 0.0))
    def test_w2_is_accurate_near_zero(self, d, seed, log_scale, log_gap):
        # Commuting covariances Q diag(a) Q' and Q diag(b) Q' are W2-apart by
        # sqrt(|dm|^2 + sum ((a - b) / (sqrt(a) + sqrt(b)))^2), an oracle that
        # cancels nothing.  b differs from a by a relative gap of 1e-5 to 1
        # and the covariances have scale 1e-20 to 1, so W2 reaches below
        # 1e-14.  The W2 error is of the order of eps times the scale, so it
        # stays within 1e-9 of W2 down to these gaps; the difference of
        # traces it replaced was off by 2e-5 at a gap of 1e-5.
        rng = np.random.default_rng(seed)
        scale, gap = 10.0 ** log_scale, 10.0 ** log_gap
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        a = scale * rng.uniform(0.2, 2.0, d)
        b = a * (1.0 + gap * rng.choice([-0.25, 1.0], d) * rng.uniform(1.0, 2.0, d))
        shift = rng.normal(size=d) * math.sqrt(scale) * gap * rng.uniform(0.0, 1.0)
        p = dv.Gaussian(shift, (q * a) @ q.T)
        r = dv.Gaussian(np.zeros(d), (q * b) @ q.T)
        exact = math.sqrt(math.fsum(shift ** 2)
                          + math.fsum(((a - b) / (np.sqrt(a) + np.sqrt(b))) ** 2))
        assert abs(dv.gaussian_w2(p, r) - exact) <= 1e-9 * exact
        assert abs(dv.gaussian_w2(r, p) - exact) <= 1e-9 * exact
        # Symmetric, to the same accuracy, for covariances that do not commute.
        push = rng.normal(size=(d, d))
        t = dv.Gaussian(np.zeros(d), p.covariance + gap * scale * (push @ push.T + np.eye(d)))
        forward, back = dv.gaussian_w2(p, t), dv.gaussian_w2(t, p)
        assert abs(forward - back) <= 1e-9 * forward


class TestGaussianFactors:
    @staticmethod
    def gaussian(d=3, seed=4):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        return dv.Gaussian(rng.normal(size=d), (q * rng.uniform(0.2, 2.0, d)) @ q.T)

    @staticmethod
    def inv_sqrt(v):
        """The inverse principal root as the retired ``matcore.inv_sqrt`` computed it."""
        w, q = np.linalg.eigh(matcore.assert_spd(v))
        r = (q / np.sqrt(w)) @ q.T
        return (r + r.T) / 2.0

    @pytest.mark.parametrize("factor, routine", [
        ("precision", "spd_inverse"), ("root", "principal_sqrt"), ("inv_root", "inv_sqrt"),
    ])
    def test_computed_once_and_read_only(self, factor, routine):
        # Each factor is read from the covariance's one eigh, bit for bit what
        # the stand-alone routine gives.
        g = self.gaussian()
        reference = self.inv_sqrt if routine == "inv_sqrt" else getattr(matcore, routine)
        value = getattr(g, factor)
        assert getattr(g, factor) is value
        assert not value.flags.writeable
        assert value.tobytes() == reference(g.covariance).tobytes()

    def test_one_eigh_for_validation_and_every_factor(self, linalg_calls):
        g = self.gaussian()
        for factor in ("precision", "root", "inv_root"):
            getattr(g, factor)
        assert linalg_calls == ["eigh"]

    def test_rejects_a_stacked_covariance(self):
        with pytest.raises(DomainError, match=r"^covariance must be square, got shape \(2, 2, 2\)"):
            dv.Gaussian(np.zeros(2), np.stack([np.eye(2)] * 2))

    def test_kl_trusts_validated_covariances(self, monkeypatch):
        p, q = self.gaussian(seed=5), self.gaussian(seed=6)
        expected = 0.5 * (
            dv.burg_divergence(p.covariance, q.covariance)
            + float((p.mean - q.mean) @ np.linalg.solve(q.covariance, p.mean - q.mean))
        )
        calls = []
        original = np.linalg.eigvalsh

        def counting(a):
            calls.append(a)
            return original(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        assert dv.gaussian_kl(p, q) == expected
        assert calls == []

    def test_burg_validates_both_arguments(self):
        indefinite = np.diag([1.0, -1.0])
        with pytest.raises(DomainError, match="^sigma_bar is not positive definite"):
            dv.burg_divergence(np.eye(2), indefinite)
        with pytest.raises(DomainError, match="^sigma is not positive definite"):
            dv.burg_divergence(indefinite, np.eye(2))
        with pytest.raises(DomainError, match="dimension mismatch"):
            dv.burg_divergence(np.eye(2), np.eye(3))

    def test_near_singular_boundary(self):
        # Smallest eigenvalue half of, then twice, the SPD_RTOL floor.
        q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(3, 3)))
        floor = matcore.SPD_RTOL * 2.0
        below = (q * [2.0, 1.0, 0.5 * floor]) @ q.T
        above = (q * [2.0, 1.0, 2.0 * floor]) @ q.T
        with pytest.raises(DomainError, match="^covariance is not positive definite"):
            dv.Gaussian(np.zeros(3), below)
        g = dv.Gaussian(np.zeros(3), above)
        assert np.all(np.isfinite(g.precision))
        np.testing.assert_allclose(g.precision @ g.covariance, np.eye(3), atol=1e-5)
        assert np.linalg.eigvalsh(g.precision)[-1] == pytest.approx(1.0 / (2.0 * floor), rel=1e-5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_mean(self, bad):
        with pytest.raises(DomainError, match="^mean has non-finite entries"):
            dv.Gaussian(np.array([0.0, bad]), np.eye(2))


# --- exact OT against a basic-solution enumeration oracle ---------------------


def lp_enumeration_oracle(cost, a, b):
    """Minimum over all basic feasible solutions of the transportation LP."""
    nx, ny = cost.shape
    m = nx + ny - 1
    best = math.inf
    rhs = np.concatenate([a, b])[:-1]
    for subset in itertools.combinations(list(itertools.product(range(nx), range(ny))), m):
        mat = np.zeros((nx + ny - 1, m))
        for k, (i, j) in enumerate(subset):
            if i < nx:
                mat[i, k] = 1.0
            if nx + j < nx + ny - 1:
                mat[nx + j, k] = 1.0
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


class TestKantorovich:
    def test_zero_diagonal_cost(self):
        m = dv.DiscreteMeasure(np.array([0.25, 0.75]))
        cost = 1.0 - np.eye(2)
        result = dv.kantorovich_discrete(cost, m, m)
        assert result.value == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(result.plan, np.diag(m.weights), atol=1e-12)

    def test_discrete_metric_equals_tv(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            m1, m2 = random_measure(rng, n), random_measure(rng, n)
            cost = 1.0 - np.eye(n)
            value = dv.kantorovich_discrete(cost, m1, m2).value
            assert value == pytest.approx(
                dv.phi_entropy(dv.TOTAL_VARIATION, m1, m2), abs=1e-12
            )

    def test_single_feasible_transport(self):
        m1 = dv.DiscreteMeasure(np.array([1.0, 0.0]))
        m2 = dv.DiscreteMeasure(np.array([0.0, 1.0]))
        cost = np.array([[0.0, 7.0], [3.0, 0.0]])
        assert dv.kantorovich_discrete(cost, m1, m2).value == pytest.approx(7.0)

    def test_plan_marginals(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            nx, ny = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            m1, m2 = random_measure(rng, nx), random_measure(rng, ny)
            cost = rng.uniform(0.0, 5.0, size=(nx, ny))
            result = dv.kantorovich_discrete(cost, m1, m2)
            np.testing.assert_allclose(result.plan.sum(axis=1), m1.weights, atol=1e-10)
            np.testing.assert_allclose(result.plan.sum(axis=0), m2.weights, atol=1e-10)
            assert np.all(result.plan >= -1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(14)
        for nx, ny in [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]:
            m1, m2 = random_measure(rng, nx), random_measure(rng, ny)
            cost = rng.uniform(0.0, 3.0, size=(nx, ny))
            value = dv.kantorovich_discrete(cost, m1, m2).value
            oracle = lp_enumeration_oracle(cost, m1.weights, m2.weights)
            assert value == pytest.approx(oracle, abs=1e-12)

    def test_weighted_discrete_metric_identity(self):
        # Cost 1_{x != y} (g(x) + g(y)) transports at exactly the weighted TV norm.
        rng = np.random.default_rng(15)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            m1, m2 = random_measure(rng, n), random_measure(rng, n)
            g = rng.uniform(0.2, 3.0, size=n)
            cost = (g[:, None] + g[None, :]) * (1.0 - np.eye(n))
            value = dv.kantorovich_discrete(cost, m1, m2).value
            assert value == pytest.approx(dv.weighted_tv(m1, m2, g), abs=1e-10)

    def test_rejects_negative_cost(self):
        m = dv.DiscreteMeasure(np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            dv.kantorovich_discrete(np.array([[0.0, -1.0], [1.0, 0.0]]), m, m)

    def test_degenerate_instances_match_oracle(self):
        # Tied masses and tied costs force degenerate pivots; the first-match
        # scan after each one must still reach the optimum.
        rng = np.random.default_rng(16)
        for _ in range(20):
            nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            m1 = dv.DiscreteMeasure(rng.integers(1, 4, size=nx).astype(float))
            m2 = dv.DiscreteMeasure(rng.integers(1, 4, size=ny).astype(float))
            cost = rng.integers(0, 3, size=(nx, ny)).astype(float)
            value = dv.kantorovich_discrete(cost, m1, m2).value
            oracle = lp_enumeration_oracle(cost, m1.weights, m2.weights)
            assert value == pytest.approx(oracle, abs=1e-12)

    def test_uniform_marginals_tied_costs(self):
        m = dv.DiscreteMeasure(np.ones(4))
        cost = np.ones((4, 4)) - np.eye(4)
        result = dv.kantorovich_discrete(cost, m, m)
        assert result.value == pytest.approx(0.0, abs=1e-15)


# --------------------------------------------------------------------------
# Oracle: the list-basis transportation simplex (a list plus a set for the
# basis, two adjacency builds and two DFS walks per pivot, and a Python double
# loop for the entering rule).  The mask-and-subtree-walk solver must return
# the same plan bytes and the same value (==, not approx).
# --------------------------------------------------------------------------


def _reference_adjacency(basis, nx, ny):
    adj = [[] for _ in range(nx + ny)]
    for cell in basis:
        i, j = cell
        adj[i].append((nx + j, cell))
        adj[nx + j].append((i, cell))
    return adj


def _reference_duals(basis, cost, nx, ny):
    adj = _reference_adjacency(basis, nx, ny)
    u = np.zeros(nx)
    v = np.zeros(ny)
    seen = np.zeros(nx + ny, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        node = stack.pop()
        for other, (i, j) in adj[node]:
            if seen[other]:
                continue
            if other >= nx:
                v[other - nx] = cost[i, j] - u[i]
            else:
                u[other] = cost[i, j] - v[j]
            seen[other] = True
            stack.append(other)
    assert seen.all()
    return u, v


def _reference_cycle(basis, entering, nx, ny):
    adj = _reference_adjacency(basis, nx, ny)
    start, goal = entering[0], nx + entering[1]
    parent = {start: (start, entering)}
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            break
        for other, cell in adj[node]:
            if other not in parent:
                parent[other] = (node, cell)
                stack.append(other)
    path_cells = []
    node = goal
    while node != start:
        node, cell = parent[node]
        path_cells.append(cell)
    return [entering] + path_cells[::-1]


class Reference(NamedTuple):
    plan: np.ndarray
    value: float
    pivots: int
    degenerate: int


def reference_northwest(a, b):
    """The north-west-corner start as (plan, list of basis cells)."""
    nx, ny = a.size, b.size
    plan = np.zeros((nx, ny))
    basis = []
    supply, demand = a.copy(), b.copy()
    i = j = 0
    while True:
        move = min(supply[i], demand[j])
        plan[i, j] = move
        basis.append((i, j))
        supply[i] -= move
        demand[j] -= move
        if i == nx - 1 and j == ny - 1:
            break
        if j == ny - 1 or (supply[i] <= demand[j] and i < nx - 1):
            i += 1
        else:
            j += 1
    return plan, basis


def reference_least_cost(cost, a, b):
    """The matrix-minimum start as (plan, list of basis cells).

    Cells in (cost, row, column) order; each allocation closes the row if its
    supply is used up and another row is open, else the column (the row when
    only one column is open), and the last one closes both.
    """
    nx, ny = a.size, b.size
    plan = np.zeros((nx, ny))
    basis = []
    supply, demand = a.copy(), b.copy()
    rows, cols = set(range(nx)), set(range(ny))
    for _, i, j in sorted((cost[i, j], i, j) for i in range(nx) for j in range(ny)):
        if i not in rows or j not in cols:
            continue
        move = min(supply[i], demand[j])
        plan[i, j] = move
        basis.append((i, j))
        supply[i] -= move
        demand[j] -= move
        if len(rows) == len(cols) == 1:
            break
        if len(cols) == 1 or (supply[i] <= demand[j] and len(rows) > 1):
            rows.remove(i)
        else:
            cols.remove(j)
    return plan, basis


def reference_kantorovich(cost, mu1, mu2, rule="dantzig"):
    """The list-basis simplex with a Python scan for the entering cell.

    ``rule="dantzig"`` is the solver's: it starts from the cheaper of the
    north-west-corner and least-cost starts (the corner on a tie), enters at
    the most negative reduced cost (first row-major cell among ties), and at
    the first match after a degenerate pivot.  ``rule="bland"`` starts from
    the corner and takes the first match at every pivot.
    """
    cost = np.asarray(cost, dtype=float)
    a, b = dv.as_measure(mu1).weights.copy(), dv.as_measure(mu2).weights.copy()
    nx, ny = a.size, b.size
    plan, basis = reference_northwest(a, b)
    if rule == "dantzig":
        greedy, greedy_basis = reference_least_cost(cost, a, b)
        if float(np.sum(greedy * cost)) < float(np.sum(plan * cost)):
            plan, basis = greedy, greedy_basis
    basis_set = set(basis)
    tol = 1e-13 * (1.0 + float(np.abs(cost).max(initial=0.0)))
    pivots = degenerate = 0
    first_match = rule == "bland"
    while True:
        u, v = _reference_duals(basis, cost, nx, ny)
        reduced = cost - u[:, None] - v[None, :]
        entering, best = None, -tol
        for i in range(nx):
            for j in range(ny):
                if (i, j) not in basis_set and reduced[i, j] < best:
                    entering, best = (i, j), reduced[i, j]
                    if first_match:
                        break
            if first_match and entering is not None:
                break
        if entering is None:
            return Reference(plan, float(np.sum(plan * cost)), pivots, degenerate)
        cycle = _reference_cycle(basis, entering, nx, ny)
        minus = cycle[1::2]
        theta = min(plan[c] for c in minus)
        leaving = min(c for c in minus if plan[c] <= theta)
        degenerate += theta == 0.0
        first_match = rule == "bland" or theta == 0.0
        for k, cell in enumerate(cycle):
            plan[cell] += theta if k % 2 == 0 else -theta
        plan[leaving] = 0.0
        basis_set.remove(leaving)
        basis_set.add(entering)
        basis = [entering if c == leaving else c for c in basis]
        pivots += 1


def assert_matches_reference(cost, mu1, mu2):
    result = dv.kantorovich_discrete(cost, mu1, mu2)
    reference = reference_kantorovich(cost, mu1, mu2)
    assert result.plan.tobytes() == reference.plan.tobytes()
    assert result.value == reference.value


@st.composite
def transport_problems(draw):
    """(cost, a, b) on 1-12 x 1-12 supports, possibly tied and zero-mass."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nx, ny = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    style = draw(st.sampled_from(["uniform", "tied", "zero-mass"]))
    if style == "uniform":
        a, b = rng.uniform(0.1, 1.0, size=nx), rng.uniform(0.1, 1.0, size=ny)
        cost = rng.uniform(0.0, 3.0, size=(nx, ny))
    else:
        low = 0 if style == "zero-mass" else 1
        a = rng.integers(low, 4, size=nx).astype(float)
        b = rng.integers(low, 4, size=ny).astype(float)
        a[rng.integers(nx)] += 1.0
        b[rng.integers(ny)] += 1.0
        cost = rng.integers(0, 3, size=(nx, ny)).astype(float)
    return cost, a, b


class TestSimplexOracle:
    @settings(max_examples=150, deadline=None)
    @given(problem=transport_problems())
    def test_equals_list_basis_simplex(self, problem):
        assert_matches_reference(*problem)

    @pytest.mark.parametrize("side", [16, 32])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bounded_instances_equal_list_basis_simplex(self, side, seed):
        model = harness.generate_instance("discrete", (side, side), seed, "bounded")
        assert_matches_reference(model.cost, model.mu, model.eta)

    @settings(max_examples=100, deadline=None)
    @given(problem=transport_problems())
    def test_value_equals_bland_reference(self, problem):
        # The Bland reference starts from the corner, the solver from the
        # cheaper start: two starts, one optimal value.
        cost, a, b = problem
        value = dv.kantorovich_discrete(cost, a, b).value
        bland = reference_kantorovich(cost, a, b, rule="bland").value
        assert abs(value - bland) <= 1e-12 * (1.0 + float(cost.max()))

    @settings(max_examples=200, deadline=None)
    @given(problem=transport_problems())
    @example(problem=(np.array([[2.0, 0.0, 1.0, 0.0]]), np.array([3.0]),
                      np.array([0.0, 2.0, 0.0, 1.0])))
    @example(problem=(np.array([[1.0], [0.0], [1.0]]), np.array([1.0, 0.0, 2.0]),
                      np.array([3.0])))
    def test_both_starts_are_spanning_trees(self, problem):
        # One walk makes both starts: row-major it is the north-west corner,
        # cheapest first the least-cost start.
        cost, a, b = problem
        a, b = dv.as_measure(a).weights, dv.as_measure(b).weights
        nx, ny = a.size, b.size
        starts = [(np.arange(nx * ny), reference_northwest(a, b)),
                  (np.argsort(cost, axis=None, kind="stable"), reference_least_cost(cost, a, b))]
        for order, (reference, basis) in starts:
            plan, in_basis = dv._initial_basis(a, b, order)
            assert int(in_basis.sum()) == nx + ny - 1
            adj = [set() for _ in range(nx + ny)]
            for i, j in zip(*np.nonzero(in_basis)):
                adj[i].add(nx + j)
                adj[nx + j].add(i)
            depth = [0] + [-1] * (nx + ny - 1)
            dv._hang(adj, cost.reshape(-1).tolist(), [0.0] * nx, [0.0] * ny,
                     [None] * (nx + ny), depth, [(0, other) for other in adj[0]])
            assert min(depth) >= 0
            assert np.all(plan >= 0.0)
            assert np.all(plan[~in_basis] == 0.0)
            assert np.abs(plan.sum(axis=1) - a).max() <= 1e-12
            assert np.abs(plan.sum(axis=0) - b).max() <= 1e-12
            assert plan.tobytes() == reference.tobytes()
            assert sorted(basis) == list(zip(*np.nonzero(in_basis)))

    def test_degenerate_pivot_falls_back_to_first_match(self):
        # Three of the reference's six pivots move no mass.  Had the solver
        # kept the most negative reduced cost after them, it would end at
        # another optimal plan with other bytes.
        a, b = np.array([2.0, 2.0, 2.0]), np.array([2.0, 1.0, 2.0, 1.0])
        cost = np.array([[0.0, 2.0, 1.0, 0.0], [1.0, 0.0, 0.0, 2.0], [0.0, 1.0, 3.0, 2.0]])
        reference = reference_kantorovich(cost, a, b)
        assert (reference.pivots, reference.degenerate) == (6, 3)
        result = dv.kantorovich_discrete(cost, a, b)
        assert result.plan.tobytes() == reference.plan.tobytes()
        m1, m2 = dv.as_measure(a), dv.as_measure(b)
        oracle = lp_enumeration_oracle(cost, m1.weights, m2.weights)
        assert result.value == pytest.approx(oracle, abs=1e-12)

    def test_bounded_32_solves_within_100_pivots(self):
        # 43 pivots from the least-cost start; 129 from the north-west
        # corner, and 1383 with Bland's rule at every pivot from there.
        model = harness.generate_instance("discrete", (32, 32), 0, "bounded")
        result = dv.kantorovich_discrete(model.cost, model.mu, model.eta, max_pivots=100)
        assert result.value == reference_kantorovich(model.cost, model.mu, model.eta).value

    @pytest.mark.parametrize("side", [16, 32, 48, 64])
    def test_matches_linprog(self, side):
        optimize = pytest.importorskip("scipy.optimize")
        model = harness.generate_instance("discrete", (side, side), side, "bounded")
        a, b = dv.as_measure(model.mu).weights, dv.as_measure(model.eta).weights
        result = dv.kantorovich_discrete(model.cost, a, b)
        row_sums = np.kron(np.eye(side), np.ones(side))
        col_sums = np.kron(np.ones(side), np.eye(side))
        lp = optimize.linprog(
            model.cost.ravel(), A_eq=np.vstack([row_sums, col_sums]),
            b_eq=np.concatenate([a, b]), bounds=(0.0, None), method="highs",
        )
        assert lp.status == 0
        assert result.value == pytest.approx(lp.fun, abs=1e-12)

    def test_zero_pivots_raises_when_corner_not_optimal(self):
        model = harness.generate_instance("discrete", (6, 6), 0, "bounded")
        assert reference_kantorovich(model.cost, model.mu, model.eta).pivots > 0
        with pytest.raises(NumericalError, match="did not terminate"):
            dv.kantorovich_discrete(model.cost, model.mu, model.eta, max_pivots=0)

    def test_zero_pivots_returns_optimal_corner(self):
        # A Monge cost: the corner is optimal, and no start is cheaper.
        for side in (8, 64):
            model = harness.generate_instance("discrete", (side, side), 0, "quadratic-grid")
            plan, value, pivots, _ = reference_kantorovich(model.cost, model.mu, model.eta)
            assert pivots == 0
            corner, _ = reference_northwest(dv.as_measure(model.mu).weights,
                                            dv.as_measure(model.eta).weights)
            assert plan.tobytes() == corner.tobytes()
            result = dv.kantorovich_discrete(model.cost, model.mu, model.eta, max_pivots=0)
            assert result.plan.tobytes() == plan.tobytes()
            assert result.value == value

    @pytest.mark.parametrize("max_pivots, message", [
        (-1, r"^max_pivots must be >= 0, got -1$"),
        (2.5, r"^max_pivots must be an int, got 2\.5$"),
    ])
    def test_max_pivots_is_validated(self, max_pivots, message):
        # Both were once accepted without a word.
        model = harness.generate_instance("discrete", (4, 4), 0, "quadratic-grid")
        with pytest.raises(DomainError, match=message):
            dv.kantorovich_discrete(model.cost, model.mu, model.eta, max_pivots=max_pivots)

    def test_max_pivots_bounds_pivot_count(self):
        model = harness.generate_instance("discrete", (7, 9), 3, "bounded")
        plan, value, pivots, _ = reference_kantorovich(model.cost, model.mu, model.eta)
        result = dv.kantorovich_discrete(model.cost, model.mu, model.eta, max_pivots=pivots)
        assert result.plan.tobytes() == plan.tobytes()
        assert result.value == value
        with pytest.raises(NumericalError, match="did not terminate"):
            dv.kantorovich_discrete(model.cost, model.mu, model.eta, max_pivots=pivots - 1)

    def test_pivots_keep_row_zero_as_root(self, monkeypatch):
        # Each pivot re-walks only the subtree the leaving cell cuts off, so
        # row 0 keeps u[0] = 0 and depth 0, and every dual stays the chain of
        # subtractions from row 0 that the reference computes.
        after = []
        hang = dv._hang

        def recording(adj, cost, u, v, link, depth, edges):
            hang(adj, cost, u, v, link, depth, edges)
            after.append((u[0], depth[0]))

        monkeypatch.setattr(dv, "_hang", recording)
        model = harness.generate_instance("discrete", (16, 16), 0, "bounded")
        dv.kantorovich_discrete(model.cost, model.mu, model.eta)
        assert len(after) > 10
        assert set(after) == {(0.0, 0)}

    def test_walk_round_a_cycle_raises(self):
        # Rows 0, 1 and columns 0, 1 (nodes 2, 3) joined by all four cells.
        adj = [{2, 3}, {2, 3}, {0, 1}, {0, 1}]
        u, v = [0.0, 0.0], [0.0, 0.0]
        link, depth = [None] * 4, [0, -1, -1, -1]
        with pytest.raises(NumericalError, match="not a spanning tree"):
            dv._hang(adj, [1.0] * 4, u, v, link, depth, [(0, 2), (0, 3)])


def test_grid_discretized_gaussian_kl_smoke():
    # Discretizing two scalar Gaussians on a fine grid, the counting-measure
    # KL approaches the closed form.
    p = dv.Gaussian(np.array([0.1]), np.array([[0.7]]))
    q = dv.Gaussian(np.array([-0.2]), np.array([[1.1]]))
    grid = np.linspace(-12.0, 12.0, 20001)
    dens_p = np.exp(-0.5 * (grid - p.mean[0]) ** 2 / p.covariance[0, 0])
    dens_q = np.exp(-0.5 * (grid - q.mean[0]) ** 2 / q.covariance[0, 0])
    discrete_kl = dv.phi_entropy(dv.KL, dens_p / dens_p.sum(), dens_q / dens_q.sum())
    assert discrete_kl == pytest.approx(dv.gaussian_kl(p, q), abs=1e-6)


def test_data_processing_inequality_sampled():
    rng = np.random.default_rng(21)
    for _ in range(100):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        kernel = rng.dirichlet(np.ones(m), size=n)
        m1, m2 = random_measure(rng, n), random_measure(rng, n)
        for phi in dv.PHI_CATALOG.values():
            before = dv.phi_entropy(phi, m1, m2)
            after = dv.phi_entropy(phi, m1.weights @ kernel, m2.weights @ kernel)
            assert after <= before + 1e-11
