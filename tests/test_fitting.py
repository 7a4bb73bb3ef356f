import math

import pytest

from bridgelab.fitting import fit_rate


def test_exact_geometric_series():
    q = 0.37
    series = [(n, q ** n) for n in range(20)]
    fit = fit_rate(series)
    assert fit is not None
    assert fit.slope == pytest.approx(math.log(q), abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 20


def test_saturated_tail_trimmed():
    q = 0.1
    series = [(n, max(q ** n, 3e-15)) for n in range(30)]
    fit = fit_rate(series)
    assert fit is not None
    # only the points above the floor enter the fit
    assert fit.n_points == sum(1 for n in range(30) if q ** n > 1e-14)
    assert fit.slope == pytest.approx(math.log(q), abs=1e-9)


def test_all_saturated_unavailable():
    series = [(n, 1e-16) for n in range(10)]
    assert fit_rate(series) is None
