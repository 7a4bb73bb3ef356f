import numpy as np
import pytest

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


def test_assert_spd_rejects_indefinite():
    np.testing.assert_array_equal(matcore.assert_spd(np.eye(2)), np.eye(2))
    with pytest.raises(DomainError, match="^m is not positive definite"):
        matcore.assert_spd(np.diag([1.0, -1.0]), "m")


def test_spd_inverse_and_inv_sqrt():
    rng = np.random.default_rng(23)
    v = random_spd(rng, 4)
    np.testing.assert_allclose(matcore.spd_inverse(v) @ v, np.eye(4), atol=1e-10)
    isq = matcore.inv_sqrt(v)
    np.testing.assert_allclose(isq @ v @ isq, np.eye(4), atol=1e-10)
