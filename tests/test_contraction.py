import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgelab import contraction, discrete
from bridgelab.divergences import KL, TOTAL_VARIATION, weighted_tv
from bridgelab.errors import DomainError, NumericalError


def random_kernel(rng, n, m):
    return rng.dirichlet(np.ones(m), size=n)


def brute_force_dobrushin(kernel):
    worst = 0.0
    for i in range(kernel.shape[0]):
        for j in range(kernel.shape[0]):
            worst = max(worst, 0.5 * float(np.sum(np.abs(kernel[i] - kernel[j]))))
    return worst


def brute_force_lip(kernel, g, h):
    worst = 0.0
    for i in range(kernel.shape[0]):
        for j in range(kernel.shape[0]):
            if i == j:
                continue
            num = float(np.sum(h * np.abs(kernel[i] - kernel[j])))
            worst = max(worst, num / (g[i] + g[j]))
    return worst


class TestDobrushin:
    def test_identical_rows(self):
        k = np.tile(np.array([0.2, 0.3, 0.5]), (4, 1))
        assert contraction.dobrushin(k) == 0.0

    def test_identity_kernel(self):
        assert contraction.dobrushin(np.eye(3)) == pytest.approx(1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            k = random_kernel(rng, 6, 6)
            assert contraction.dobrushin(k) == pytest.approx(
                brute_force_dobrushin(k), abs=1e-14
            )

    def test_submultiplicative_on_products(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            k = random_kernel(rng, 5, 4)
            l = random_kernel(rng, 4, 5)
            assert contraction.dobrushin(k @ l) <= (
                contraction.dobrushin(k) * contraction.dobrushin(l) + 1e-12
            )


class TestPhiProbe:
    def test_rank_one_kernel_kills_entropy(self):
        k = np.tile(np.array([0.1, 0.9]), (3, 1))
        report = contraction.phi_contraction_probe(k, KL, samples=50, seed=3)
        assert report.dobrushin_bound == 0.0
        assert report.max_ratio <= 1e-12
        assert report.ok

    def test_tv_ratio_achieved_by_dirac_pairs(self):
        rng = np.random.default_rng(4)
        k = random_kernel(rng, 5, 5)
        report = contraction.phi_contraction_probe(k, TOTAL_VARIATION, samples=200, seed=5)
        assert report.ok
        assert report.max_ratio <= report.dobrushin_bound + 1e-12
        # Dirac pairs at the maximizing rows realize the Dobrushin coefficient.
        best = 0.0
        for i in range(5):
            for j in range(5):
                if i == j:
                    continue
                m1 = np.eye(5)[i]
                m2 = np.eye(5)[j]
                after = 0.5 * float(np.sum(np.abs(m1 @ k - m2 @ k)))
                best = max(best, after)
        assert best == pytest.approx(report.dobrushin_bound, abs=1e-14)

    def test_kl_probe_no_violations(self):
        rng = np.random.default_rng(6)
        k = random_kernel(rng, 6, 4)
        report = contraction.phi_contraction_probe(k, KL, samples=300, seed=7)
        assert report.ok


class TestLipNorm:
    def test_identical_rows(self):
        k = np.tile(np.array([0.4, 0.6]), (3, 1))
        assert contraction.lip_norm(k, np.ones(3), np.ones(2)) == 0.0

    def test_half_weights_reduce_to_dobrushin(self):
        rng = np.random.default_rng(8)
        k = random_kernel(rng, 5, 6)
        value = contraction.lip_norm(k, np.full(5, 0.5), np.full(6, 0.5))
        assert value == pytest.approx(contraction.dobrushin(k), abs=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            k = random_kernel(rng, 6, 5)
            g = rng.uniform(0.2, 2.0, size=6)
            h = rng.uniform(0.2, 2.0, size=5)
            assert contraction.lip_norm(k, g, h) == pytest.approx(
                brute_force_lip(k, g, h), abs=1e-14
            )

    def test_submultiplicative(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            k = random_kernel(rng, 4, 5)
            l = random_kernel(rng, 5, 4)
            g = rng.uniform(0.5, 2.0, size=4)
            h = rng.uniform(0.5, 2.0, size=5)
            lhs = contraction.lip_norm(k @ l, g, g)
            rhs = contraction.lip_norm(k, g, h) * contraction.lip_norm(l, h, g)
            assert lhs <= rhs + 1e-12


class TestDrift:
    def test_constructed_pass(self):
        k = np.tile(np.array([0.5, 0.5]), (2, 1))
        h = np.array([1.0, 2.0])
        report = contraction.drift_check(k, k.T, h, h, epsilon=0.6, c=1.0)
        assert report.passed
        assert report.rescaled_passed
        assert report.worst_slack <= 0.0

    def test_violation_locates_worst_state(self):
        k = np.tile(np.array([0.5, 0.5]), (2, 1))
        h = np.array([1.0, 10.0])
        report = contraction.drift_check(k, k, h, h, epsilon=0.01, c=0.5)
        assert not report.passed
        assert report.worst_state == ("K", 0)

    def test_sinkhorn_kernels_satisfy_drift(self):
        rng = np.random.default_rng(11)
        model = discrete.build_model(
            rng.uniform(0.0, 1.0, size=(8, 8)),
            rng.uniform(0.5, 1.5, 8), rng.uniform(0.5, 1.5, 8),
            rng.uniform(0.0, 1.0, 8), rng.uniform(0.0, 1.0, 8),
        )
        it = discrete.run_sinkhorn(model, 2)[1]
        g = np.exp(0.25 * model.u_potential)
        h = np.exp(0.25 * model.v_potential)
        c = max(float(np.max(it.kernel_even @ h)), float(np.max(it.kernel_odd @ g)))
        report = contraction.drift_check(it.kernel_even, it.kernel_odd, g, h, 0.5, c)
        assert report.passed

    def test_parameter_validation(self):
        k = np.eye(2)
        with pytest.raises(DomainError):
            contraction.drift_check(k, k, np.ones(2), np.ones(2), 1.5, 1.0)
        with pytest.raises(DomainError):
            contraction.drift_check(k, k, np.ones(2), np.ones(2), 0.5, 0.0)


class TestMinorization:
    def test_rank_one_full_level(self):
        k = np.tile(np.array([0.3, 0.7]), (2, 1))
        g = np.array([1.0, 2.0])
        rows = contraction.minorization_table(k, k, g, g, levels=[2.0])
        assert rows[0].iota == pytest.approx(1.0)

    def test_monotone_in_level(self):
        rng = np.random.default_rng(12)
        k = random_kernel(rng, 5, 5)
        g = rng.uniform(0.5, 3.0, size=5)
        rows = contraction.minorization_table(k, k, g, g, levels=[1.0, 2.0, 3.0])
        feasible = [r for r in rows if not r.skipped]
        # larger level -> more rows in the min - mass can only wiggle, but the
        # full-level value is what the contraction argument consumes
        assert all(0.0 <= r.iota <= 1.0 for r in feasible)

    def test_zero_entry_gives_zero_mass(self):
        rows = contraction.minorization_table(
            np.eye(2), np.eye(2), np.ones(2), np.ones(2), levels=[1.0]
        )
        assert rows[0].iota == 0.0

    def test_empty_level_skipped(self):
        k = np.tile(np.array([0.5, 0.5]), (2, 1))
        rows = contraction.minorization_table(
            k, k, np.array([2.0, 3.0]), np.array([2.0, 3.0]), levels=[1.0]
        )
        assert rows[0].skipped


class TestLyapunovSearch:
    def test_rank_one_kernels_give_zero_rho(self):
        k = np.tile(np.array([0.3, 0.7]), (2, 1))
        cert = contraction.lyapunov_search(k, k, np.ones(2), np.ones(2))
        assert isinstance(cert, contraction.ContractionCertificate)
        assert cert.rho == pytest.approx(0.0, abs=1e-14)

    def test_identity_kernels_fail(self):
        result = contraction.lyapunov_search(np.eye(3), np.eye(3), np.ones(3), np.ones(3))
        assert isinstance(result, contraction.SearchFailure)
        assert result.best_rho >= 1.0

    def test_sinkhorn_pair_certificate_and_decay(self):
        rng = np.random.default_rng(13)
        model = discrete.build_model(
            rng.uniform(0.0, 1.0, size=(10, 10)),
            rng.uniform(0.5, 1.5, 10), rng.uniform(0.5, 1.5, 10),
            rng.uniform(0.0, 1.0, 10), rng.uniform(0.0, 1.0, 10),
        )
        iterates = discrete.run_sinkhorn(model, 21)
        g = np.exp(0.25 * model.u_potential)
        h = np.exp(0.25 * model.v_potential)
        evens = [it.kernel_even for it in iterates[1:]]
        odds = [it.kernel_odd for it in iterates[1:]]
        cert = contraction.lyapunov_search(evens, odds, g, h)
        assert isinstance(cert, contraction.ContractionCertificate)
        assert cert.rho < 1.0
        assert contraction.reverify(cert, evens, odds, g, h)
        # certificate implies weighted-TV decay of the loop iterates
        pair = contraction.WeightPair(g=g, h=h, a=cert.a)
        rng2 = np.random.default_rng(14)
        for _ in range(5):
            m1 = rng2.dirichlet(np.ones(10))
            m2 = rng2.dirichlet(np.ones(10))
            base = weighted_tv(m1, m2, pair.g_a)
            cur1, cur2 = m1, m2
            for n in range(1, 21):
                cur1 = (cur1 @ evens[n - 1]) @ odds[n - 1]
                cur2 = (cur2 @ evens[n - 1]) @ odds[n - 1]
                # measures stay normalized, so weighted_tv applies directly
                assert weighted_tv(cur1, cur2, pair.g_a) <= (
                    cert.rho ** (2 * n) * base + 1e-10
                )

    def test_certificate_json_round_trip(self):
        k = np.tile(np.array([0.3, 0.7]), (2, 1))
        cert = contraction.lyapunov_search(k, k, np.ones(2), np.ones(2))
        clone = contraction.ContractionCertificate.from_json(cert.to_json())
        assert clone.a == cert.a
        assert clone.rho == cert.rho
        assert clone.iota_table == cert.iota_table


class TestNonFiniteWeights:
    """NaN or inf weights must raise, never yield a (false) certificate."""

    k = np.array([[0.2, 0.8], [0.6, 0.4], [0.5, 0.5]])
    l = np.array([[0.3, 0.3, 0.4], [0.1, 0.6, 0.3]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_lip_norm(self, bad):
        with pytest.raises(DomainError, match="finite"):
            contraction.lip_norm(self.k, [bad, 1.0, 1.0], np.ones(2))
        with pytest.raises(DomainError, match="finite"):
            contraction.lip_norm(self.k, np.ones(3), [1.0, bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_weight_pair(self, bad):
        with pytest.raises(DomainError):
            contraction.WeightPair(g=np.array([bad, 1.0]), h=np.ones(2), a=1.0)
        with pytest.raises(DomainError):
            contraction.WeightPair(g=np.ones(2), h=np.ones(2), a=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_lyapunov_search(self, bad):
        with pytest.raises(DomainError, match="finite"):
            contraction.lyapunov_search(self.k, self.l, [bad, 1.0, 1.0], np.ones(2))
        with pytest.raises(DomainError, match="finite"):
            contraction.lyapunov_search(self.k, self.l, np.ones(3), [1.0, bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_drift_check(self, bad):
        with pytest.raises(DomainError, match="finite"):
            contraction.drift_check(self.k, self.l, [bad, 1.0, 1.0], np.ones(2), 0.5, 1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_weights_raise_numerical_error(self):
        huge = np.full(2, 1e308)
        with pytest.raises(NumericalError):
            contraction.lip_norm(np.eye(2), huge, huge)


# --------------------------------------------------------------------------
# Oracle: the per-pair loops that the chunked pair primitive replaced.  The
# chunked code must agree with them exactly (==, not approx).
# --------------------------------------------------------------------------


def loop_dobrushin(k):
    worst = 0.0
    for i in range(k.shape[0]):
        diff = np.abs(k[i + 1:] - k[i]).sum(axis=1)
        if diff.size:
            worst = max(worst, 0.5 * float(diff.max()))
    return min(worst, 1.0)


def loop_lip_norm(k, g, h):
    worst = 0.0
    for i in range(k.shape[0]):
        for j in range(i + 1, k.shape[0]):
            num = float(np.sum(h * np.abs(k[i] - k[j])))
            worst = max(worst, num / (g[i] + g[j]))
    return worst


def loop_search(ks, ls, g, h, grid):
    """(best_a, best_rho) of the per-grid-point, per-pair search."""
    best_a = float("nan")
    best_rho = float("inf")
    for a in grid:
        g_a = 0.5 + a * g
        h_a = 0.5 + a * h
        rho = 0.0
        for k in ks:
            rho = max(rho, loop_lip_norm(k, g_a, h_a))
        for l_mat in ls:
            rho = max(rho, loop_lip_norm(l_mat, h_a, g_a))
        if rho < best_rho:
            best_rho, best_a = rho, a
    return best_a, best_rho


def assert_search_matches_loop(ks, ls, g, h, grid=None):
    result = contraction.lyapunov_search(ks, ls, g, h, grid=grid)
    ks = [ks] if isinstance(ks, np.ndarray) else list(ks)
    ls = [ls] if isinstance(ls, np.ndarray) else list(ls)
    loop_grid = contraction.DEFAULT_GRID if grid is None else tuple(float(a) for a in grid)
    best_a, best_rho = loop_search(ks, ls, g, h, loop_grid)
    if best_rho < 1.0:
        assert isinstance(result, contraction.ContractionCertificate)
        assert (result.a, result.rho) == (float(best_a), float(best_rho))
    else:
        assert isinstance(result, contraction.SearchFailure)
        assert (result.best_a, result.best_rho) == (best_a, best_rho)
        assert result.reason == "no grid point produced rho < 1"


@st.composite
def weighted_kernels(draw):
    """Kernel lists K (n x m) and L (m x n) with weights g (n) and h (m)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 8))
    count = draw(st.integers(1, 3))
    style = draw(st.sampled_from(["dense", "sparse", "repeated-rows"]))

    def kernel(rows, cols):
        k = rng.dirichlet(np.ones(cols), size=rows)
        if style == "sparse":
            k[rng.random(k.shape) < 0.5] = 0.0
            k[np.arange(rows), rng.integers(0, cols, size=rows)] += 1.0
            k /= k.sum(axis=1, keepdims=True)
        elif style == "repeated-rows":
            k = k[rng.integers(0, rows, size=rows)]
        return k

    ks = [kernel(n, m) for _ in range(count)]
    ls = [kernel(m, n) for _ in range(count)]
    g = np.exp(rng.uniform(-3.0, 3.0, size=n))
    h = np.exp(rng.uniform(-3.0, 3.0, size=m))
    return ks, ls, g, h


# A few fixed levels so that drawn grids contain ties.
GRID_LEVELS = (1e-4, 0.01, 0.5, 1.0, 3.0, 1e4)
grids = st.none() | st.lists(
    st.sampled_from(GRID_LEVELS) | st.floats(1e-5, 1e5), min_size=1, max_size=8,
)
# 8192 is the default; the small sizes put chunk boundaries inside every kernel.
chunk_sizes = st.sampled_from([1, 5, 16, 8192])


class TestChunkedOracle:
    @settings(max_examples=60, deadline=None)
    @given(data=weighted_kernels(), chunk=chunk_sizes)
    def test_dobrushin_and_lip_norm_equal_loop(self, data, chunk):
        ks, ls, g, h = data
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(contraction, "_PAIR_CHUNK_ELEMENTS", chunk)
            for k in ks + ls:
                assert contraction.dobrushin(k) == loop_dobrushin(k)
            for k in ks:
                assert contraction.lip_norm(k, g, h) == loop_lip_norm(k, g, h)
            for l_mat in ls:
                assert contraction.lip_norm(l_mat, h, g) == loop_lip_norm(l_mat, h, g)

    @settings(max_examples=60, deadline=None)
    @given(data=weighted_kernels(), grid=grids, chunk=chunk_sizes,
           as_single=st.booleans())
    def test_lyapunov_search_equals_loop(self, data, grid, chunk, as_single):
        ks, ls, g, h = data
        if as_single:
            ks, ls = ks[0], ls[0]
        else:
            ks, ls = tuple(ks), list(ls)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(contraction, "_PAIR_CHUNK_ELEMENTS", chunk)
            assert_search_matches_loop(ks, ls, g, h, grid)

    def test_one_row_kernel_has_no_pairs(self):
        k = np.array([[0.25, 0.25, 0.5]])
        l = np.ones((3, 1))
        assert contraction.dobrushin(k) == 0.0
        assert contraction.lip_norm(k, np.ones(1), np.ones(3)) == 0.0
        assert_search_matches_loop(k, l, np.ones(1), np.array([1.0, 2.0, 3.0]))

    def test_pair_count_across_default_chunks(self):
        # 40 x 40: 780 pairs in 4 default-size chunks; 40 x 500: 49 chunks.
        rng = np.random.default_rng(15)
        k = random_kernel(rng, 40, 40)
        l = random_kernel(rng, 40, 40)
        g = rng.uniform(0.5, 5.0, size=40)
        h = rng.uniform(0.5, 5.0, size=40)
        assert contraction.dobrushin(k) == loop_dobrushin(k)
        assert contraction.lip_norm(k, g, h) == loop_lip_norm(k, g, h)
        assert_search_matches_loop(k, l, g, h)
        wide = random_kernel(rng, 40, 500)
        h_wide = rng.uniform(0.5, 5.0, size=500)
        assert contraction.dobrushin(wide) == loop_dobrushin(wide)
        assert contraction.lip_norm(wide, g, h_wide) == loop_lip_norm(wide, g, h_wide)

    def test_chunks_are_bounded_and_in_triu_order(self):
        k = random_kernel(np.random.default_rng(16), 40, 500)
        chunks = list(contraction._pair_chunks(k))
        assert len(chunks) == 49
        assert all(diff.size <= contraction._PAIR_CHUNK_ELEMENTS for diff, _, _ in chunks)
        rows, cols = np.triu_indices(40, 1)
        assert np.array_equal(np.concatenate([i for _, i, _ in chunks]), rows)
        assert np.array_equal(np.concatenate([j for _, _, j in chunks]), cols)

    def test_mismatched_weight_length_raises(self):
        rng = np.random.default_rng(17)
        k = random_kernel(rng, 4, 3)
        l = random_kernel(rng, 3, 4)
        with pytest.raises(DomainError):
            contraction.lip_norm(k, np.ones(3), np.ones(3))
        with pytest.raises(DomainError):
            contraction.lyapunov_search(k, l, np.ones(4), np.ones(4))
        with pytest.raises(DomainError):
            contraction.lyapunov_search(k, random_kernel(rng, 4, 4), np.ones(4), np.ones(3))
