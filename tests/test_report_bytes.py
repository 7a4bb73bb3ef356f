"""Byte-identity of experiment reports.

Pins the sha256 of ``report.csv`` and ``verdicts.json`` for nine
configs that pass every check they run.  A refactor of the engines or
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

The discrete-bounded-5x7 and -16x16 ``report.csv`` digests were re-pinned
once when the identities check came to test each half step of the first pair
by the exact I-projection identities (``identity_projection-*``).  Those four
rows now appear at every size; before, only supports of at most 4 x 4 wrote
half-bridge rows, from a descent search.  Every other row keeps its bytes,
both ``verdicts.json`` digests hold, and no verdict flipped on a 122-config
discrete sweep.

discrete-grid-64x64 and discrete-bounded-16x16-2 were added, with digests
recorded before the bridge solve came to continue the run and the identity
products came to run as stacked matmuls.  In the first (the discrete-engine
benchmark's quadratic-grid shape, at the size cap, without ``lyapunov``)
the solve stops inside the 100-pair run and the stacked products run at the
size cap; in the second the 2-pair run ends before the solve does, so the
solve resumes the sweeps at the run's last row.

gaussian-d16-100 was added, with digests recorded before the Gaussian run
came to be whole-run stacks read in slices of a parity view.  It is the
gaussian-riccati benchmark's large shape: d = 16 with 100 iterations and
every check, so 201 half steps read at 8 rows per chunk, 13 chunks of even
rows and 26 chunks in all.  gaussian-d16 runs 12 iterations, which fit in
two chunks per parity, so a slip at a chunk boundary past the second, or in
the odd gains the rate report slices across chunks, shows only here.

The five Gaussian digests (gaussian-d1, -d2, -d8, -d16 and -d16-100) were
re-pinned once when the riccati-equivalence check came to compare each even
row with the closed-form iterate of ``gaussian.riccati_iterates`` (one
batched ``solve`` per chunk of even rows), not with a chain of
``riccati_apply`` calls.  Only the ``riccati_equiv_error`` rows of
``report.csv`` and that check's ``worst_residual`` in ``verdicts.json``
move, in the last ulps; row n = 0 now holds the closed form's rounding at
n = 0, where the chain started from the row itself and read 0.  Every other
row keeps its bytes, the four discrete digests hold, and no verdict flipped
on the 198-config sweep grid of ROADMAP Measured or on gaussian d = 16,
seed 3, 1000 iterations.

The five Gaussian digests were re-pinned once more when both Gaussian joint
entropies came to be read by the chain rule, ``gaussian._kernel_kl``: an
expectation of d x d kernel divergences over the shared source marginal, not
a KL of two 2d x 2d joints.  Only the ``entropy_to_iterate``,
``entropy_envelope``, ``entropy_formula`` and ``entropy_formula_error`` rows
of ``report.csv`` move, by at most 1.3e-10 absolute (3.3e-13 relative), and,
in ``verdicts.json``, the ``worst_residual`` of entropy-formula.  Every W2
row keeps its bytes, the four discrete digests hold, and no verdict flipped
on the 198-config grid or on gaussian d = 16, seed 3, 1000 iterations.

The five Gaussian ``report.csv`` digests were re-pinned once more when each
Gaussian matrix came to be factorized once: W2 is read from the target's
cached roots as the sum of squares ||A^1/2 - A^-1/2 C||_F^2, not as a
difference of traces, and the rate report reads tau_2n^1/2 from the
eigenvalues and eigenvectors the run kept.  Only the ``w2_step_value``,
``w2_step_bound``, ``w2_chained_value`` and ``sqrt_error`` rows move (at most
4.3e-12 and 6.5e-16 absolute here).  Every ``verdicts.json`` digest holds,
the four discrete digests hold, and on the 198-config grid and gaussian
d = 16, seed 3, 1000 iterations the only flips are four ``envelope``
failures that now pass.
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
        "ab5fb58452727dfa943d1da24e0176c72801ad2137fb2b04812bc8f4390cd43c",
        "73bfc4da3a65ef70ccfbdcac5d3acc7834f88b6d5c5f90538bb6d30e1dcb3575",
    ),
    "discrete-bounded-16x16": (
        {"regime": "discrete", "instance": {"profile": "bounded", "size": [16, 16]},
         "seed": 1, "iterations": 12},
        "2c1ba49d3742f0790578edac73ef4126f7f8d45d91deb9f79981bcd3fe0f5687",
        "cb58290ee81de247a578707012a4c2027d310470452ab0ff085bddecee546532",
    ),
    "gaussian-d2": (
        {"regime": "gaussian", "instance": {"profile": "gaussian-random-spd", "size": 2},
         "seed": 0, "iterations": 12},
        "7bf3ae04b89b5d3860e2ef84a94fad7bfc20bb19b9633614d20a96d8e3c4df59",
        "7d0ecb0ae8c3bbc31b45569925d832dce96f24599a3f89148865cf13a690cb4d",
    ),
    "gaussian-d8": (
        {"regime": "gaussian", "instance": {"profile": "gaussian-random-spd", "size": 8},
         "seed": 1, "iterations": 12},
        "c612305d242249d7364c683968a46dce4c17eb3b8cde756bd749761d11a1830f",
        "7a534b96457768d2e0cb18bd61358dbdb0ea56fa3d6dc1b92c546e7b074796d6",
    ),
    # gate-contractive: the only case whose envelope check writes the 12
    # chained W2 rows.
    "gaussian-d1": (
        {"regime": "gaussian", "instance": {"profile": "gaussian-random-spd", "size": 1},
         "seed": 1, "iterations": 12},
        "761991b0b14005712e136a3e960198cd52c072392298adbdc0d6983292a6773d",
        "9e366ad8558c8c186a78f4386e6ce91dbb73f76abd4ab6206cbc8dbaa7be4ee6",
    ),
    "discrete-grid-64x64": (
        {"regime": "discrete",
         "instance": {"profile": "quadratic-grid", "size": [64, 64], "t": 0.05},
         "seed": 0, "iterations": 100,
         "checks": ["ladder", "linear-decay", "geometric-rate", "identities",
                    "bridge-feasibility"]},
        "568636aff4e36b379b2201ee84ed17f41b0ac8f9c3b6bf5ec884cc2c700c7ba3",
        "ad11a2cf9709f5963143592bbb566826e2e0c2d48dc69c5419dfbb1251af18c5",
    ),
    "discrete-bounded-16x16-2": (
        {"regime": "discrete", "instance": {"profile": "bounded", "size": [16, 16]},
         "seed": 0, "iterations": 2},
        "ed41c782b0da91b6e5eb43e93cc9d270fef609323c6759b9773c6ebd26d3e14e",
        "902e11588cdee03e995ed682004aa24b24a51b95aa0b4ce7e020b1b2b1909088",
    ),
    # The gaussian-riccati benchmark's large dimension.
    "gaussian-d16": (
        {"regime": "gaussian", "instance": {"profile": "gaussian-random-spd", "size": 16},
         "seed": 0, "iterations": 12},
        "f68271df2dabfcf555f45c1d43bc8b7ba2a888ecb7f1b703227fa6afddc81bba",
        "8eab199d1ad51390af51717445bde65d89a79a5e163feee612078896db7d6127",
    ),
    "gaussian-d16-100": (
        {"regime": "gaussian", "instance": {"profile": "gaussian-random-spd", "size": 16},
         "seed": 0, "iterations": 100},
        "cae6ba52fdefe5d35791cc1bb78782e27f83866032852bfb6088073341186f5f",
        "1c3b96db8ff3084ffdc7edc468bde2d1f89cae64d7738e9eac6ee54d3db9eddf",
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
    default = harness.REGIMES[payload["regime"]].checks
    assert config.checks == tuple(payload.get("checks", default))
    report = harness.run_experiment(config, tmp_path)
    assert report.all_passed, [v for v in report.verdicts if not v.passed]
    digest = lambda f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
    assert digest("report.csv") == report_sha
    assert digest("verdicts.json") == verdicts_sha
