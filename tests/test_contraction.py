import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgelab import contraction, discrete, harness, matcore
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
        run = discrete.run_sinkhorn(model, 21)
        g = np.exp(0.25 * model.u_potential)
        h = np.exp(0.25 * model.v_potential)
        evens = list(run.kernel_even[1:])
        odds = list(run.kernel_odd[1:])
        cert = contraction.lyapunov_search(evens, odds, g, h)
        assert isinstance(cert, contraction.ContractionCertificate)
        assert cert.rho < 1.0
        # Oracle: every kernel's Lipschitz norm at (g_a, h_a) is at most rho,
        # and rho - 1e-9 is not a bound.
        pair = contraction.WeightPair(g=g, h=h, a=cert.a)
        worst = max([contraction.lip_norm(k, pair.g_a, pair.h_a) for k in evens]
                    + [contraction.lip_norm(l_mat, pair.h_a, pair.g_a) for l_mat in odds])
        assert worst <= cert.rho + 1e-12
        assert not worst <= cert.rho - 1e-9 + 1e-12
        # certificate implies weighted-TV decay of the loop iterates
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


class TestNonFiniteWeights:
    """NaN, inf or wrongly sized weights must raise a DomainError, never yield a
    (false) certificate or a bare numpy broadcasting error."""

    k = np.array([[0.2, 0.8], [0.6, 0.4], [0.5, 0.5]])
    l = np.array([[0.3, 0.3, 0.4], [0.1, 0.6, 0.3]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_lip_norm(self, bad):
        with pytest.raises(DomainError, match="finite"):
            contraction.lip_norm(self.k, [bad, 1.0, 1.0], np.ones(2))
        with pytest.raises(DomainError, match="finite"):
            contraction.lip_norm(self.k, np.ones(3), [1.0, bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, -1e-300])
    def test_weight_pair(self, bad):
        with pytest.raises(DomainError):
            contraction.WeightPair(g=np.array([bad, 1.0]), h=np.ones(2), a=1.0)
        with pytest.raises(DomainError, match="mixing level"):
            contraction.WeightPair(g=np.ones(2), h=np.ones(2), a=bad)
        # a = 0 is the unweighted total variation certificate.
        pair = contraction.WeightPair(g=np.ones(2), h=np.ones(2), a=0.0)
        assert np.array_equal(pair.g_a, [0.5, 0.5]) and np.array_equal(pair.h_a, [0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_lyapunov_search(self, bad):
        with pytest.raises(DomainError, match="finite"):
            contraction.lyapunov_search(self.k, self.l, [bad, 1.0, 1.0], np.ones(2))
        with pytest.raises(DomainError, match="finite"):
            contraction.lyapunov_search(self.k, self.l, np.ones(3), [1.0, bad])

    @pytest.mark.parametrize("g_len, h_len, l_shape, name", [
        (2, 2, (2, 3), "g"),
        (3, 3, (2, 3), "h"),
        (3, 2, (3, 2), "kernel_l"),
    ])
    def test_mismatched_lengths_name_the_argument(self, g_len, h_len, l_shape, name):
        l_mat = np.full(l_shape, 1.0 / l_shape[1])
        g, h = np.ones(g_len), np.ones(h_len)
        with pytest.raises(DomainError, match=f"^{name} "):
            contraction.lyapunov_search(self.k, l_mat, g, h)

    @pytest.mark.parametrize("ks, ls, g, name", [
        ([], [l], None, "kernel_k"),
        ([k], [], None, "kernel_l"),
        ([k], [l], [], "g"),
    ])
    def test_empty_argument_is_named(self, ks, ls, g, name):
        # With no kernels every level scores rho = 0: a certificate from nothing.
        g = np.ones(3) if g is None else g
        with pytest.raises(DomainError, match=f"^{name} "):
            contraction.lyapunov_search(ks, ls, g, np.ones(2))

    def test_kernel_without_rows(self):
        with pytest.raises(DomainError, match="^kernel must have at least one row"):
            contraction.dobrushin(np.empty((0, 3)))
        with pytest.raises(DomainError, match="^kernel_k must have at least one row"):
            contraction.lyapunov_search(np.empty((0, 3)), np.empty((3, 0)), [], np.ones(3))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_weights_raise_numerical_error(self):
        huge = np.full(2, 1e308)
        with pytest.raises(NumericalError):
            contraction.lip_norm(np.eye(2), huge, huge)


# --------------------------------------------------------------------------
# Oracle: plain per-pair loops that share no code with the chunked pair
# primitive.  The chunked code must agree with them to a tolerance derived from
# the rounding of each side.
# --------------------------------------------------------------------------

# The 50 mixing levels the certificate search used to score.
OLD_GRID = tuple(np.logspace(-4.0, 4.0, 50))


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


def loop_rhos(ks, ls, g, h, levels):
    """The per-pair loop's rho at each mixing level: per pair, every level's
    ``sum(h_a * |k[i] - k[j]|) / (g_a[i] + g_a[j])`` with ``g_a = 0.5 + a * g``."""
    a = np.asarray(levels, dtype=float)[:, None]
    g_a, h_a = 0.5 + a * g, 0.5 + a * h
    rhos = np.zeros(a.shape[0])
    for kernels, src, tgt in ((ks, g_a, h_a), (ls, h_a, g_a)):
        for k in kernels:
            for i in range(k.shape[0]):
                for j in range(i + 1, k.shape[0]):
                    num = np.sum(tgt * np.abs(k[i] - k[j]), axis=1)
                    rhos = np.maximum(rhos, num / (src[:, i] + src[:, j]))
    return rhos


def lip_tolerance(n_cols):
    """Relative distance allowed between the chunked code and the per-pair loop.

    Each sums n_cols nonnegative products.  The loop's ratio lies within
    (n_cols + 4) eps (relative) of the exact one; the search's
    ``(alpha + a beta) / (1 + a gamma)`` within (n_cols + 6) eps; the norms'
    ``beta / gamma`` within (n_cols + 2) eps.
    """
    return (2 * n_cols + 10) * np.finfo(float).eps


def assert_near_loop(value, reference, n_cols):
    assert abs(value - reference) <= lip_tolerance(n_cols) * reference


def assert_search_is_exact(ks, ls, g, h, levels=()):
    """lyapunov_search against the loop: the loop's rho at the returned a is the
    returned rho, and no level of the old grid or of ``levels`` does better."""
    result = contraction.lyapunov_search(ks, ls, g, h)
    ks = [ks] if isinstance(ks, np.ndarray) else list(ks)
    ls = [ls] if isinstance(ls, np.ndarray) else list(ls)
    if isinstance(result, contraction.ContractionCertificate):
        a, rho = result.a, result.rho
        assert rho < 1.0
    else:
        a, rho = result.best_a, result.best_rho
        assert result.reason == "no mixing level in [0, 10000] gives rho < 1"
        assert rho >= 1.0
    assert 0.0 <= a <= contraction.A_MAX
    n_cols = max(g.size, h.size)
    assert_near_loop(rho, loop_rhos(ks, ls, g, h, [a])[0], n_cols)
    others = loop_rhos(ks, ls, g, h, OLD_GRID + tuple(levels))
    assert np.all(rho <= others * (1.0 + lip_tolerance(n_cols)))
    return result


@st.composite
def weighted_kernels(draw):
    """Kernel lists K (n x m) and L (m x n) with weights g (n) and h (m).

    Beside generic kernels, the styles put many (pair, weight) ratios at or
    next to the maximum: rows equal to within 1e-13, permutation rows (every
    pair at total variation 1), and with spread 0 unit weights.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    style = draw(st.sampled_from(
        ["dense", "sparse", "repeated-rows", "near-ties", "permutation"]))
    n = draw(st.integers(1, 24))
    # Permutation rows are pairwise distinct on both sides only when square.
    m = n if style == "permutation" else draw(st.integers(1, 24))
    count = draw(st.integers(1, 3))
    spread = draw(st.sampled_from([0.0, 3.0, 30.0]))

    def kernel(rows, cols):
        k = rng.dirichlet(np.ones(cols), size=rows)
        if style == "sparse":
            k[rng.random(k.shape) < 0.5] = 0.0
            k[np.arange(rows), rng.integers(0, cols, size=rows)] += 1.0
            k /= k.sum(axis=1, keepdims=True)
        elif style == "repeated-rows":
            k = k[rng.integers(0, rows, size=rows)]
        elif style == "near-ties":
            k = k[rng.integers(0, min(rows, 2), size=rows)]
            k += rng.uniform(0.0, 1e-13, size=k.shape)
            k /= k.sum(axis=1, keepdims=True)
        elif style == "permutation":
            k = np.eye(cols)[rng.permutation(rows)]
        return k

    ks = [kernel(n, m) for _ in range(count)]
    ls = [kernel(m, n) for _ in range(count)]
    g = np.exp(rng.uniform(-spread, spread, size=n))
    h = np.exp(rng.uniform(-spread, spread, size=m))
    return ks, ls, g, h


# Random levels, with the ends of the search range among them.
mixing_levels = st.lists(st.sampled_from([0.0, 1e4]) | st.floats(0.0, 1e4), max_size=8)
# 8192 is the default; the small sizes put chunk boundaries inside every kernel.
chunk_sizes = st.sampled_from([1, 5, 16, 8192])


class TestChunkedOracle:
    @settings(max_examples=60, deadline=None)
    @given(data=weighted_kernels(), chunk=chunk_sizes)
    def test_dobrushin_and_lip_norm_equal_loop(self, data, chunk):
        ks, ls, g, h = data
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matcore, "CHUNK_ELEMENTS", chunk)
            for k in ks + ls:
                assert_near_loop(contraction.dobrushin(k), loop_dobrushin(k), k.shape[1])
            for k in ks:
                assert_near_loop(contraction.lip_norm(k, g, h), loop_lip_norm(k, g, h), h.size)
            for l_mat in ls:
                assert_near_loop(contraction.lip_norm(l_mat, h, g), loop_lip_norm(l_mat, h, g),
                                 g.size)

    @settings(max_examples=60, deadline=None)
    @given(data=weighted_kernels(), levels=mixing_levels, chunk=chunk_sizes,
           as_single=st.booleans())
    def test_lyapunov_search_equals_loop(self, data, levels, chunk, as_single):
        ks, ls, g, h = data
        if as_single:
            ks, ls = ks[0], ls[0]
        else:
            ks, ls = tuple(ks), list(ls)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matcore, "CHUNK_ELEMENTS", chunk)
            assert_search_is_exact(ks, ls, g, h, levels)

    def test_last_bit_ties_equal_loop(self):
        # Rows from two bases plus noise in the last bits: pairs across the
        # bases tie to within an ulp, and the matrix product and the per-pair
        # sum often round them in opposite orders.
        rng = np.random.default_rng(20)
        for _ in range(100):
            n, m = int(rng.integers(3, 7)), int(rng.integers(9, 40))
            bases = rng.dirichlet(np.ones(m), size=2)
            k = bases[rng.integers(0, 2, size=n)] + rng.uniform(0.0, 1e-16, size=(n, m))
            k /= k.sum(axis=1, keepdims=True)
            g, h = np.ones(n), np.ones(m)
            assert_near_loop(contraction.lip_norm(k, g, h), loop_lip_norm(k, g, h), m)

    def test_one_row_kernel_has_no_pairs(self):
        k = np.array([[0.25, 0.25, 0.5]])
        l = np.ones((3, 1))
        assert contraction.dobrushin(k) == 0.0
        assert contraction.lip_norm(k, np.ones(1), np.ones(3)) == 0.0
        cert = assert_search_is_exact(k, l, np.ones(1), np.array([1.0, 2.0, 3.0]))
        assert (cert.a, cert.rho) == (0.0, 0.0)

    def test_pair_count_across_default_chunks(self):
        # 40 x 40: 780 pairs in 4 default-size chunks; 40 x 500: 49 chunks.
        rng = np.random.default_rng(15)
        k = random_kernel(rng, 40, 40)
        l = random_kernel(rng, 40, 40)
        g = rng.uniform(0.5, 5.0, size=40)
        h = rng.uniform(0.5, 5.0, size=40)
        assert_near_loop(contraction.dobrushin(k), loop_dobrushin(k), 40)
        assert_near_loop(contraction.lip_norm(k, g, h), loop_lip_norm(k, g, h), 40)
        assert_search_is_exact(k, l, g, h)
        wide = random_kernel(rng, 40, 500)
        h_wide = rng.uniform(0.5, 5.0, size=500)
        assert_near_loop(contraction.dobrushin(wide), loop_dobrushin(wide), 500)
        assert_near_loop(contraction.lip_norm(wide, g, h_wide), loop_lip_norm(wide, g, h_wide),
                         500)

    def test_chunks_are_bounded_and_in_triu_order(self):
        rng = np.random.default_rng(16)
        k = random_kernel(rng, 40, 500)
        g, h = rng.uniform(0.5, 5.0, size=40), rng.uniform(0.5, 5.0, size=500)
        chunks = list(contraction._pair_sums([k, k], g, h))
        assert len(chunks) == 98
        assert all(chunk.shape[1] * 500 <= matcore.CHUNK_ELEMENTS for chunk in chunks)
        alpha, beta, gamma = np.hstack(chunks[:49])
        for p, (i, j) in enumerate(zip(*np.triu_indices(40, 1))):
            diff = np.abs(k[i] - k[j])
            assert_near_loop(alpha[p], 0.5 * np.sum(diff), 500)
            assert_near_loop(beta[p], np.sum(h * diff), 500)
            assert gamma[p] == g[i] + g[j]
        assert np.array_equal(np.hstack(chunks[49:]), np.hstack(chunks[:49]))

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


class TestScreenResources:
    def test_all_ties_memory_is_bounded(self):
        # Every pair of a permutation kernel ties at every level under unit
        # weights, so no term is dropped: all 8064 of them are kept.
        rng = np.random.default_rng(19)
        perms = [np.eye(64)[rng.permutation(64)] for _ in range(2)]
        ones = np.ones(64)
        tracemalloc.start()
        try:
            result = contraction.lyapunov_search(perms, perms, ones, ones)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(result, contraction.SearchFailure)
        assert result.best_rho == 1.0
        assert peak <= 1 << 20

    def test_memory_does_not_grow_with_kernel_count(self):
        # 200 kernels of 64 x 64 hold 403 200 pair terms (9.7 MB as triples);
        # the search keeps batches of chunk size and the few undropped terms.
        model = harness.generate_instance("discrete", (64, 64), 0, "bounded")
        run = discrete.run_sinkhorn(model, 100)
        g = np.exp(0.25 * model.u_potential)
        h = np.exp(0.25 * model.v_potential)
        evens = list(run.kernel_even[1:])
        odds = list(run.kernel_odd[1:])
        tracemalloc.start()
        try:
            cert = contraction.lyapunov_search(evens, odds, g, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(cert, contraction.ContractionCertificate)
        assert peak <= 1 << 20

    def test_bounded_64x64_search_warns_nothing(self):
        model = harness.generate_instance("discrete", (64, 64), 0, "bounded")
        run = discrete.run_sinkhorn(model, 5)
        g = np.exp(0.25 * model.u_potential)
        h = np.exp(0.25 * model.v_potential)
        evens = list(run.kernel_even[1:])
        odds = list(run.kernel_odd[1:])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = contraction.lyapunov_search(evens, odds, g, h)
        assert isinstance(cert, contraction.ContractionCertificate)
