import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgelab import matcore
from bridgelab.errors import DomainError


def random_spd(rng, d, lam_lo=0.1, lam_hi=3.0):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    vals = rng.uniform(lam_lo, lam_hi, size=d)
    return (q * vals) @ q.T


class TestPrincipalSqrt:
    def test_identity(self):
        np.testing.assert_allclose(matcore.principal_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(
            matcore.principal_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0])
        )

    def test_multiply_back(self):
        rng = np.random.default_rng(7)
        for d in (2, 3, 5, 8):
            v = random_spd(rng, d)
            root = matcore.principal_sqrt(v)
            np.testing.assert_allclose(root @ root, v, atol=1e-12)
            # principal root is itself SPD
            assert np.linalg.eigvalsh(root)[0] > 0

    def test_psd_input_clamped(self):
        v = np.diag([0.0, 4.0])
        np.testing.assert_allclose(matcore.principal_sqrt(v), np.diag([0.0, 2.0]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(DomainError, match="eigenvalue"):
            matcore.principal_sqrt(np.diag([1.0, -0.5]))

    def test_monotone_on_commuting_diagonals(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = np.diag(rng.uniform(0.1, 2.0, size=4))
            b = a + np.diag(rng.uniform(0.0, 1.0, size=4))
            assert matcore.loewner_leq(
                matcore.principal_sqrt(a), matcore.principal_sqrt(b), tol=1e-12
            )


class TestLoewner:
    def test_zero_below_identity(self):
        assert matcore.loewner_leq(np.zeros((2, 2)), np.eye(2))

    def test_indefinite_difference(self):
        # eigenvalues of b - a are -1 and +1
        assert not matcore.loewner_leq(np.diag([2.0, 1.0]), np.diag([1.0, 2.0]))

    def test_reflexive_at_zero_tol(self):
        rng = np.random.default_rng(3)
        v = random_spd(rng, 3)
        assert matcore.loewner_leq(v, v, tol=0.0)

    def test_transitive_on_diagonals(self):
        a = np.diag([1.0, 2.0])
        b = np.diag([1.5, 2.0])
        c = np.diag([2.0, 2.5])
        assert matcore.loewner_leq(a, b) and matcore.loewner_leq(b, c)
        assert matcore.loewner_leq(a, c)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            matcore.loewner_leq(np.eye(2), np.eye(3))


class TestNorms:
    def test_identity(self):
        for d in (1, 3, 6):
            assert matcore.spectral_norm(np.eye(d)) == pytest.approx(1.0)

    def test_column_vector(self):
        x = np.array([3.0, 4.0])
        assert matcore.spectral_norm(x) == pytest.approx(5.0)
        assert matcore.spectral_norm(x) == matcore.spectral_norm(x[:, None])

    def test_spectral_below_frobenius(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            v = rng.normal(size=(3, 3))
            assert matcore.spectral_norm(v) <= np.linalg.norm(v, "fro") + 1e-12
            assert matcore.spectral_norm(v) == pytest.approx(np.linalg.norm(v, 2))

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            matcore.spectral_norm(np.array([[1.0, np.inf], [0.0, 1.0]]))


def test_ando_hemmen_inequality():
    rng = np.random.default_rng(17)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        u = random_spd(rng, d)
        v = random_spd(rng, d)
        ru, rv = matcore.principal_sqrt(u), matcore.principal_sqrt(v)
        factor = 1.0 / (
            np.sqrt(np.linalg.eigvalsh(u)[0]) + np.sqrt(np.linalg.eigvalsh(v)[0])
        )
        assert matcore.spectral_norm(ru - rv) <= factor * matcore.spectral_norm(u - v) + 1e-12
        assert np.linalg.norm(ru - rv, "fro") <= factor * np.linalg.norm(u - v, "fro") + 1e-12


def test_symmetrize_returns_symmetric_part():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    np.testing.assert_array_equal(matcore.symmetrize(a), [[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(DomainError, match="must be square"):
        matcore.symmetrize(np.ones((2, 3)))


@pytest.mark.parametrize("value", [0, 7, np.int64(7), np.int32(7), np.uint8(7)])
def test_integer_takes_plain_and_numpy_ints(value):
    # A plain int takes the fast path; numpy integers the numbers.Integral check.
    assert matcore._integer(value, "n", 0) == int(value)
    assert type(matcore._integer(value, "n", 0)) is int


@pytest.mark.parametrize("value, message", [
    (True, r"^n must be an int, got True$"),
    (False, r"^n must be an int, got False$"),
    (np.bool_(True), r"^n must be an int, got (np\.)?True_?$"),
    (2.5, r"^n must be an int, got 2\.5$"),
    (np.float64(2.0), r"^n must be an int, got (np\.float64\()?2\.0\)?$"),
    ("4", r"^n must be an int, got '4'$"),
    (-1, r"^n must be >= 0, got -1$"),
    (np.int64(-1), r"^n must be >= 0, got -1$"),
])
def test_integer_rejects_bools_non_integers_and_small_values(value, message):
    with pytest.raises(DomainError, match=message):
        matcore._integer(value, "n", 0)


def test_assert_spd_rejects_indefinite():
    np.testing.assert_array_equal(matcore.assert_spd(np.eye(2)), np.eye(2))
    with pytest.raises(DomainError, match="^m is not positive definite"):
        matcore.assert_spd(np.diag([1.0, -1.0]), "m")


def test_spd_inverse():
    rng = np.random.default_rng(23)
    v = random_spd(rng, 4)
    np.testing.assert_allclose(matcore.spd_inverse(v) @ v, np.eye(4), atol=1e-10)


def test_validated_factorization_holds_the_spd_floor():
    # The near-singular boundary of test_divergences: smallest eigenvalue
    # half of, then twice, the SPD_RTOL floor.
    q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(3, 3)))
    floor = matcore.SPD_RTOL * 2.0
    below = (q * [2.0, 1.0, 0.5 * floor]) @ q.T
    above = (q * [2.0, 1.0, 2.0 * floor]) @ q.T
    message = "^covariance is not positive definite: smallest eigenvalue "
    for validate in (matcore.assert_spd, matcore.spd_eigh):
        with pytest.raises(DomainError, match=message):
            validate(below, "covariance")
    with pytest.raises(DomainError, match=r"^covariance\[1\] is not positive definite"):
        matcore.spd_eigh(np.stack([above, below, below]), "covariance")
    s, w, _ = matcore.spd_eigh(above, "covariance")
    assert w[0] > 0 and same(s, matcore.assert_spd(above))


def test_single_matrix_routines_reject_stacks():
    stack = np.stack([np.eye(2)] * 2)
    for call in (matcore.spd_inverse, lambda m: matcore.loewner_leq(m, m)):
        with pytest.raises(DomainError, match="must be square"):
            call(stack)


# --------------------------------------------------------------------------
# Stacks against loops of 2-D calls.  The ref_* functions are the 2-D
# routines as they were before stacks were accepted; every stacked result
# must equal the loop of them bit for bit.
# --------------------------------------------------------------------------


def ref_assert_spd(a, name="matrix"):
    a = np.asarray(a, dtype=float)
    s = (a + a.T) / 2.0
    w = np.linalg.eigvalsh(s)
    floor = matcore.SPD_RTOL * float(np.max(np.abs(w), initial=0.0))
    if w[0] <= floor:
        raise DomainError(f"{name} is not positive definite: smallest eigenvalue {w[0]:.6e}")
    return s


def ref_principal_sqrt(v):
    v = np.asarray(v, dtype=float)
    s = (v + v.T) / 2.0
    w, q = np.linalg.eigh(s)
    if w[0] < matcore.SQRT_CLAMP:
        raise DomainError(f"matrix is not positive semi-definite: eigenvalue {w[0]:.6e}")
    w = np.clip(w, 0.0, None)
    root = (q * np.sqrt(w)) @ q.T
    root = (root + root.T) / 2.0
    err = float(np.linalg.norm(root @ root - s))
    assert err <= matcore.SQRT_TOL * max(1.0, float(np.linalg.norm(s)))
    return root


def ref_spectral_norm(v):
    v = np.asarray(v, dtype=float)
    return float(np.sqrt(max(np.linalg.eigvalsh(v.T @ v)[-1], 0.0)))


def same(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def spd_stacks(draw, max_dim=16):
    """(stack, bad): a stack of SPD matrices, some made indefinite (``bad`` lists them)."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    spread = draw(st.sampled_from([(0.1, 3.0), (1e-6, 1.0), (1.0, 1e6)]))
    stack = np.stack([random_spd(rng, d, *spread) for _ in range(n)])
    # Round-off leaves the generated matrices slightly asymmetric; keep that.
    bad = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
    for i in bad:
        stack[i] -= 2.0 * np.linalg.eigvalsh(stack[i])[-1] * np.eye(d)
    return stack, sorted(bad)


class TestStacks:
    @settings(max_examples=80, deadline=None)
    @given(data=spd_stacks())
    def test_assert_spd_and_symmetrize_equal_loop(self, data):
        stack, bad = data
        assert same(matcore.symmetrize(stack), [matcore.symmetrize(a) for a in stack])
        if bad:
            with pytest.raises(DomainError) as stacked:
                matcore.assert_spd(stack, "m")
            with pytest.raises(DomainError) as single:
                ref_assert_spd(stack[bad[0]], f"m[{bad[0]}]")
            assert str(stacked.value) == str(single.value)
            return
        expected = [ref_assert_spd(a) for a in stack]
        assert same(matcore.assert_spd(stack), expected)
        assert all(same(matcore.assert_spd(a), e) for a, e in zip(stack, expected))

    @settings(max_examples=80, deadline=None)
    @given(data=spd_stacks())
    def test_principal_sqrt_equals_loop(self, data):
        stack, bad = data
        if bad:
            with pytest.raises(DomainError, match=rf"^matrix\[{bad[0]}\] is not positive semi"):
                matcore.principal_sqrt(stack)
            return
        expected = [ref_principal_sqrt(a) for a in stack]
        assert same(matcore.principal_sqrt(stack), expected)
        assert all(same(matcore.principal_sqrt(a), e) for a, e in zip(stack, expected))

    @settings(max_examples=80, deadline=None)
    @given(data=spd_stacks())
    def test_validated_factorization_equals_the_two_call_routines(self, data):
        # spd_eigh validates from the eigh it returns, and its inverse and
        # root equal spd_inverse and principal_sqrt bit for bit.
        stack, bad = data
        if bad:
            with pytest.raises(DomainError, match=rf"^m\[{bad[0]}\] is not positive definite"):
                matcore.spd_eigh(stack, "m")
            return
        for a in (stack, *stack):
            s, w, q = matcore.spd_eigh(a)
            assert same(s, matcore.assert_spd(a))
            inverse = matcore.spd_inverse(a) if a.ndim == 2 else [matcore.spd_inverse(m) for m in a]
            assert same(matcore.eigh_inverse(w, q), inverse)
            assert same(matcore.eigh_sqrt(s, w, q), matcore.principal_sqrt(a))

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 6), rows=st.integers(1, 16), cols=st.integers(1, 16),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_spectral_and_vector_norms_equal_loop(self, n, rows, cols, seed):
        stack = np.random.default_rng(seed).normal(size=(n, rows, cols))
        expected = [ref_spectral_norm(a) for a in stack]
        assert same(matcore.spectral_norm(stack), expected)
        assert all(matcore.spectral_norm(a) == e for a, e in zip(stack, expected))
        vectors = stack[:, 0, :]
        expected = [float(np.linalg.norm(v)) for v in vectors]
        assert same(matcore.vector_norm(vectors), expected)
        assert all(matcore.vector_norm(v) == e for v, e in zip(vectors, expected))

    def test_non_finite_entry_names_its_matrix(self):
        stack = np.stack([np.eye(2)] * 3)
        stack[1, 0, 1] = np.nan
        with pytest.raises(DomainError, match=r"^m\[1\] must be finite$"):
            matcore.assert_spd(stack, "m")
        with pytest.raises(DomainError, match=r"^matrix\[1\] must be finite$"):
            matcore.spectral_norm(stack)

    def test_one_label_per_matrix_names_the_failing_one(self):
        labels = ["state 0", "state 2", "state 4"]
        stack = np.stack([np.eye(2)] * 3)
        stack[1] = np.diag([1.0, -1.0])
        for validate in (matcore.assert_spd, matcore.spd_eigh):
            with pytest.raises(DomainError, match=r"^state 2 is not positive definite"):
                validate(stack, labels)
        stack[1, 0, 1] = np.inf
        with pytest.raises(DomainError, match=r"^state 2 must be finite$"):
            matcore.assert_spd(stack, labels)
