"""Byte-identity of experiment reports.

Pins the sha256 of ``report.csv`` and ``verdicts.json`` for six
configs that pass every check of their regime.  A refactor of the engines or
the harness must keep every float, and so every byte, of these reports.  The
digests were recorded under numpy 2.4.6; other numpy versions may round
differently in their BLAS or ufunc loops, so the test skips there.

The gaussian-d2, -d8 and -d16 digests were re-pinned once when each SPD
matrix of the Gaussian engine came to be factorized by one ``eigh``:
``riccati_apply`` became Q W (W + I)^{-1} Q' of one ``eigh`` (it was two
inversions), and the rate diagnostics read (I + varpi)^{-1} and the rate
base 1 + (w + sqrt(w (w + 4))) / 2 from varpi's ``eigh`` (they were an
inversion and an ``eigvalsh`` of r + varpi).  Those values move in the last
ulps at d >= 2; at d = 1 every formula rounds as before, so gaussian-d1
holds, and the discrete digests hold.  No verdict flipped on a 96-config
Gaussian sweep.
"""

import hashlib

import numpy as np
import pytest

from bridgelab import harness

RECORDED_NUMPY = "2.4.6"

CASES = {
    "discrete-bounded-5x7": (
        {"regime": "discrete", "instance": {"profile": "bounded", "size": [5, 7]},
         "seed": 0, "iterations": 12},
        "fb364bcf21dca2e6cc6a8002da091435c14875ba3696fff2a135c7e7b3924128",
        "73bfc4da3a65ef70ccfbdcac5d3acc7834f88b6d5c5f90538bb6d30e1dcb3575",
    ),
    "discrete-bounded-16x16": (
        {"regime": "discrete", "instance": {"profile": "bounded", "size": [16, 16]},
         "seed": 1, "iterations": 12},
        "e402dffef989236a3f401907702bf8e636173bfa1bf037d5439f107b228e091b",
        "cb58290ee81de247a578707012a4c2027d310470452ab0ff085bddecee546532",
    ),
    "gaussian-d2": (
        {"regime": "gaussian", "instance": {"profile": "gaussian-random-spd", "size": 2},
         "seed": 0, "iterations": 12},
        "92ce447ce1d704f6b76d40dc37b4064a846e47cfd17d3644fd8acb082b31c8fb",
        "23f7406ff0b92f280dca1a6bfe0483008a46ff1f6c974198a746c9bf3cac3c3d",
    ),
    "gaussian-d8": (
        {"regime": "gaussian", "instance": {"profile": "gaussian-random-spd", "size": 8},
         "seed": 1, "iterations": 12},
        "34c36749d3dc3e26f8a39254b206bb060242e8dd31365f36a0024c5b0f6da9c4",
        "211ce583de5f9128e9e45e83ca42f18fb49e3a93bf3d8d3f3f94b83fba8580bd",
    ),
    # gate-contractive: the only case whose envelope check writes the 12
    # chained W2 rows.
    "gaussian-d1": (
        {"regime": "gaussian", "instance": {"profile": "gaussian-random-spd", "size": 1},
         "seed": 1, "iterations": 12},
        "1b4a7f98c0ad2262131a1bec9de2bc00711431400dc8d5d27bc2c69f12014ed1",
        "58acc52c403740bf89dff1777854b6c20cd89301a53022c310cdcfad7437607d",
    ),
    # The gaussian-riccati benchmark's large dimension.
    "gaussian-d16": (
        {"regime": "gaussian", "instance": {"profile": "gaussian-random-spd", "size": 16},
         "seed": 0, "iterations": 12},
        "d47723eb9e6625bf6215262999179445cf6d251b589469906cd01648774c12c5",
        "e1f1bf2b8ea90982479650fa6cc7808bdee77e409e85addc9a7eabe391e4f986",
    ),
}


@pytest.mark.skipif(
    np.__version__ != RECORDED_NUMPY,
    reason=f"report digests were recorded under numpy {RECORDED_NUMPY}",
)
@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_pinned(name, tmp_path):
    payload, report_sha, verdicts_sha = CASES[name]
    config = harness.ExperimentConfig.from_json(payload)
    assert config.checks == tuple(harness.REGIMES[payload["regime"]].checks)
    report = harness.run_experiment(config, tmp_path)
    assert report.all_passed, [v for v in report.verdicts if not v.passed]
    digest = lambda f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
    assert digest("report.csv") == report_sha
    assert digest("verdicts.json") == verdicts_sha
