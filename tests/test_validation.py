"""Every public array argument goes through one validator, ``matcore._array``.

One table, one row per argument: each bad value (a NaN, an infinity, a
negative entry where the argument has a sign floor, a string, a ragged list,
a wrong shape, an empty array where a nonempty one is needed) must raise a
:class:`DomainError` whose message starts with the argument's name, never a
bare numpy error, a NaN or a silent result.
"""

import functools
from typing import Callable, NamedTuple

import numpy as np
import pytest

from bridgelab import contraction, discrete, matcore
from bridgelab import divergences as dv
from bridgelab import gaussian as gs
from bridgelab.errors import DomainError

KERNEL = [[0.2, 0.8], [0.6, 0.4]]
HALVES = [0.5, 0.5]
STANDARD = dv.Gaussian(np.zeros(2), np.eye(2))


class Argument(NamedTuple):
    name: str                     # what the error message starts with
    call: Callable[[object], object]
    good: object                  # a valid value, which the bad entries are written into
    floor: bool = False           # whether a negative entry is rejected
    wrong_shape: object = None    # a value of a wrong shape, where the shape is the argument's own
    empty: object = None          # an empty value, where a nonempty one is needed


@functools.cache
def ladder_run():
    # Uniform reference weights and zero potentials: mu and eta are uniform.
    cost = np.arange(6.0).reshape(2, 3) % 4
    return discrete.run_sinkhorn(discrete.build_model(cost, np.ones(2), np.ones(3)), 2)


def ladder(q):
    return discrete.entropy_ladder(ladder_run(), q)


def model_with(**arrays):
    args = {"cost": np.zeros((2, 3)), "lambda_weights": np.ones(2), "nu_weights": np.ones(3),
            "u": np.zeros(2), "v": np.zeros(3), **arrays}
    return discrete.build_model(**args)


def lyapunov(**arrays):
    args = {"kernel_k": KERNEL, "kernel_l": KERNEL, "g": np.ones(2), "h": np.ones(2), **arrays}
    return contraction.lyapunov_search(**args)


def linear_kernel(**arrays):
    args = {"alpha": np.zeros(2), "beta": np.eye(2), "tau": np.eye(2), **arrays}
    return gs.LinearGaussianKernel(**args)


ARGUMENTS = {
    "relative_entropy.p": Argument(
        "relative_entropy: entries of p", lambda x: dv.relative_entropy(x, HALVES), HALVES,
        floor=True),
    "relative_entropy.q": Argument(
        "relative_entropy: entries of q", lambda x: dv.relative_entropy(HALVES, x), HALVES,
        floor=True),
    "relative_entropy_rows.p": Argument(
        "relative_entropy_rows: entries of p",
        lambda x: dv.relative_entropy_rows(x, HALVES), [HALVES, HALVES], floor=True),
    "relative_entropy_rows.q": Argument(
        "relative_entropy_rows: entries of q",
        lambda x: dv.relative_entropy_rows([HALVES, HALVES], x), HALVES, floor=True),
    "DiscreteMeasure.weights": Argument(
        "measure", dv.DiscreteMeasure, HALVES, floor=True, empty=[]),
    "phi_entropy.mu1": Argument(
        "mu1", lambda x: dv.phi_entropy(dv.KL, x, HALVES), [HALVES, HALVES], floor=True,
        wrong_shape=np.ones((2, 2, 2)), empty=np.empty((2, 0))),
    "phi_entropy.mu2": Argument(
        "mu2", lambda x: dv.phi_entropy(dv.KL, HALVES, x), HALVES, floor=True, empty=[]),
    "weighted_tv.mu1": Argument(
        "mu1", lambda x: dv.weighted_tv(x, HALVES, [1.0, 2.0]), HALVES, floor=True, empty=[]),
    "weighted_tv.mu2": Argument(
        "mu2", lambda x: dv.weighted_tv(HALVES, x, [1.0, 2.0]), HALVES, floor=True, empty=[]),
    "weighted_tv.g": Argument(
        "weight vector", lambda x: dv.weighted_tv(HALVES, [0.25, 0.75], x), [1.0, 2.0],
        floor=True, wrong_shape=np.ones(3), empty=[]),
    "kantorovich_discrete.cost": Argument(
        "cost", lambda x: dv.kantorovich_discrete(x, HALVES, HALVES), [[0.0, 1.0], [1.0, 0.0]],
        floor=True, wrong_shape=np.ones((2, 3)), empty=np.empty((0, 2))),
    "kantorovich_discrete.mu1": Argument(
        "mu1", lambda x: dv.kantorovich_discrete(np.ones((2, 2)), x, HALVES), HALVES,
        floor=True, empty=[]),
    "kantorovich_discrete.mu2": Argument(
        "mu2", lambda x: dv.kantorovich_discrete(np.ones((2, 2)), HALVES, x), HALVES,
        floor=True, empty=[]),
    "Gaussian.mean": Argument(
        "mean", lambda x: dv.Gaussian(x, np.eye(2)), [0.0, 0.0],
        wrong_shape=np.zeros(3), empty=[]),
    "Gaussian.covariance": Argument(
        "covariance", lambda x: dv.Gaussian([0.0, 0.0], x), np.eye(2),
        wrong_shape=np.eye(3)[:2]),
    "build_model.cost": Argument(
        "cost", lambda x: model_with(cost=x), np.zeros((2, 3)),
        wrong_shape=np.zeros(6), empty=np.empty((0, 3))),
    "build_model.lambda_weights": Argument(
        "lambda_weights", lambda x: model_with(lambda_weights=x), np.ones(2), floor=True,
        wrong_shape=np.ones(3), empty=[]),
    "build_model.nu_weights": Argument(
        "nu_weights", lambda x: model_with(nu_weights=x), np.ones(3), floor=True,
        wrong_shape=np.ones((3, 1)), empty=[]),
    "build_model.u": Argument(
        "u", lambda x: model_with(u=x), np.zeros(2), wrong_shape=np.zeros(3), empty=[]),
    "build_model.v": Argument(
        "v", lambda x: model_with(v=x), np.zeros(3), wrong_shape=np.zeros(2), empty=[]),
    "dual_kernel.kernel": Argument(
        "kernel", lambda x: discrete.dual_kernel(x, HALVES), KERNEL, floor=True,
        wrong_shape=np.full(2, 0.5)),
    "dual_kernel.mu": Argument(
        "mu weights", lambda x: discrete.dual_kernel(KERNEL, x), HALVES, floor=True,
        wrong_shape=np.full(3, 1.0 / 3.0), empty=[]),
    "entropy_ladder.q": Argument(
        "coupling entries", ladder, np.full((2, 3), 1.0 / 6.0), floor=True,
        wrong_shape=np.full((3, 2), 1.0 / 6.0), empty=np.empty((0, 3))),
    "LinearGaussianKernel.alpha": Argument(
        "alpha", lambda x: linear_kernel(alpha=x), np.zeros(2)),
    "LinearGaussianKernel.beta": Argument(
        "beta", lambda x: linear_kernel(beta=x), np.eye(2)),
    "dobrushin.kernel": Argument(
        "kernel", contraction.dobrushin, KERNEL, floor=True, wrong_shape=np.full(2, 0.5),
        empty=np.empty((0, 2))),
    "lip_norm.kernel": Argument(
        "kernel", lambda x: contraction.lip_norm(x, np.ones(2), np.ones(2)), KERNEL, floor=True,
        wrong_shape=np.full((2, 2, 2), 0.5), empty=np.empty((0, 2))),
    "lip_norm.source_weight": Argument(
        "source_weight", lambda x: contraction.lip_norm(KERNEL, x, np.ones(2)), np.ones(2),
        floor=True, wrong_shape=np.ones(3), empty=[]),
    "lip_norm.target_weight": Argument(
        "target_weight", lambda x: contraction.lip_norm(KERNEL, np.ones(2), x), np.ones(2),
        floor=True, wrong_shape=np.ones((2, 1)), empty=[]),
    "lyapunov_search.kernel_k": Argument(
        "kernel_k", lambda x: lyapunov(kernel_k=x), [KERNEL, KERNEL], floor=True,
        wrong_shape=np.full(2, 0.5), empty=np.empty((0, 2, 2))),
    "lyapunov_search.kernel_l": Argument(
        "kernel_l", lambda x: lyapunov(kernel_l=x), KERNEL, floor=True,
        wrong_shape=np.full((2, 3), 1.0 / 3.0), empty=[]),
    "lyapunov_search.g": Argument(
        "g", lambda x: lyapunov(g=x), np.ones(2), floor=True, wrong_shape=np.ones(3), empty=[]),
    "lyapunov_search.h": Argument(
        "h", lambda x: lyapunov(h=x), np.ones(2), floor=True, wrong_shape=np.ones(1), empty=[]),
    "WeightPair.g": Argument(
        "g", lambda x: contraction.WeightPair(x, np.ones(2), 1.0), np.ones(2), floor=True,
        wrong_shape=np.ones((2, 2))),
    "WeightPair.h": Argument(
        "h", lambda x: contraction.WeightPair(np.ones(2), x, 1.0), np.ones(2), floor=True,
        wrong_shape=np.ones((2, 2))),
    "affine_joint.intercept": Argument(
        "intercept", lambda x: gs.affine_joint(STANDARD, x, np.eye(2), np.eye(2)), np.zeros(2),
        wrong_shape=np.zeros(3), empty=[]),
    "affine_joint.gain": Argument(
        "gain", lambda x: gs.affine_joint(STANDARD, np.zeros(2), x, np.eye(2)), np.eye(2),
        wrong_shape=np.eye(3)),
    "affine_joint.noise": Argument(
        "noise", lambda x: gs.affine_joint(STANDARD, np.zeros(2), np.eye(2), x), np.eye(2),
        wrong_shape=np.ones(2)),
    "RiccatiProblem.gamma": Argument(
        "gamma", gs.RiccatiProblem, np.eye(2), wrong_shape=np.ones(2)),
    "riccati_apply.v": Argument(
        "v", lambda x: gs.riccati_apply(gs.RiccatiProblem(np.eye(2)), x), np.eye(2),
        wrong_shape=np.eye(3)),
    "riccati_iterates.v0": Argument(
        "v0", lambda x: gs.riccati_iterates(gs.RiccatiProblem(np.eye(2)), x, [1]), np.eye(2),
        wrong_shape=np.eye(1)),
    "assert_spd.a": Argument(
        "m", lambda x: matcore.assert_spd(x, "m"), np.eye(2), wrong_shape=np.ones((2, 3))),
}


def with_entry(good, value):
    bad = np.array(good, dtype=float)
    bad.flat[bad.size - 1] = value
    return bad


def cases():
    for key, arg in ARGUMENTS.items():
        bad = {"nan": with_entry(arg.good, np.nan), "inf": with_entry(arg.good, np.inf),
               "-inf": with_entry(arg.good, -np.inf), "string": "abc",
               "ragged": [[1.0, 0.0], [1.0]]}
        if arg.floor:
            bad["negative"] = with_entry(arg.good, -0.5)
        if arg.wrong_shape is not None:
            bad["shape"] = arg.wrong_shape
        if arg.empty is not None:
            bad["empty"] = arg.empty
        for label, value in bad.items():
            yield pytest.param(arg, value, id=f"{key}-{label}")


@pytest.mark.parametrize("arg, value", cases())
def test_bad_array_is_a_domain_error_naming_the_argument(arg, value):
    with pytest.raises(DomainError) as raised:
        arg.call(value)
    assert str(raised.value).startswith(arg.name), str(raised.value)


@pytest.mark.parametrize("key", ARGUMENTS)
def test_good_value_passes(key):
    # The table's good values are valid, so each bad case fails for its own entry.
    arg = ARGUMENTS[key]
    arg.call(arg.good)


class TestArray:
    def test_messages(self):
        cases = [
            (("abc", "x"), "x must be an array of numbers, got 'abc'"),
            (([[1.0], [1.0, 2.0]], "x"), "x must be an array of numbers, got [[1.0], [1.0, 2.0]]"),
            ((np.ones(3), "x", (2,)), "x must have shape (2,), got (3,)"),
            ((np.ones(3), "x", (None, None)), "x must have shape (*, *), got (3,)"),
            (([1.0, np.nan], "x"), "x must be finite"),
            (([1.0, -1.0], "x", None, "nonnegative"), "x must be finite and nonnegative"),
            (([1.0, 0.0], "x", None, "strictly positive"), "x must be finite and strictly positive"),
        ]
        for args, message in cases:
            with pytest.raises(DomainError) as raised:
                matcore._array(*args)
            assert str(raised.value) == message

    def test_passing_values(self):
        a = np.ones((2, 3))
        assert matcore._array(a, "x", (None, 3), "strictly positive") is a
        assert matcore._array([0.0, -0.0], "x", (2,), "nonnegative").tolist() == [0.0, 0.0]
        assert matcore._array([np.nan, -np.inf], "x", floor=None).size == 2
        assert matcore._array(np.empty((0, 2)), "x", (None, 2), "strictly positive").size == 0

    def test_payload_arrays_pass_through_it(self):
        # A JSON NaN or overflowing number reaches _array; an integer past
        # int64 is still a number, one past the float range is not.
        payload = {"W": [1.0, float("nan")], "V": [1e308, float("inf")], "U": [10**20, 1],
                   "X": [10**400, 1]}
        for key in ("W", "V"):
            with pytest.raises(DomainError, match=f"^{key} must be finite$"):
                matcore._payload_array(payload, key)
        assert matcore._payload_array(payload, "U").tolist() == [1e20, 1.0]
        with pytest.raises(DomainError, match="^X must be a list of finite numbers, got "):
            matcore._payload_array(payload, "X")
        with pytest.raises(DomainError, match="^x must be an array of numbers, got "):
            matcore._array([10**400, 1], "x")
