"""Runs every acceptance criterion at its pinned tolerance.

Each criterion prints its own pass/fail line; the asserts make pytest track
them individually.
"""

import pytest

from matprox import acceptance, lseminorm, metric_core
from matprox.bridge import beta_fixed


@pytest.mark.parametrize(
    "runner",
    acceptance.CRITERIA,
    ids=[f"criterion_{i}" for i in range(1, len(acceptance.CRITERIA) + 1)],
)
def test_acceptance_criterion(runner):
    result = runner()
    print(result.line())
    assert result.passed, result.line()


def test_criterion_4_fails_under_a_fixed_beta(monkeypatch):
    # A fixed beta keeps the bound above 0.01, so it no longer halves per
    # doubling of n and no longer matches pi/n + 2pi/n^2.
    monkeypatch.setattr(acceptance, "beta_delta_over_n", beta_fixed(0.01))
    result = acceptance.criterion_4()
    assert not result.passed
    assert any("!= pi/n + 2pi/n^2" in f for f in result.failures)
    assert any("is not <= half of" in f for f in result.failures)


# Each criterion below checks the routine the CLI runs, not a copy of it: a
# fault injected into that routine fails the criterion.


def test_criterion_2_checks_the_shipped_leibniz_suites(monkeypatch):
    # Every suite's worst Jordan residual is moved to -1e-8, past -1e-9.
    shipped = lseminorm.unit_leibniz_residuals

    def faulty(pair, a, b):
        jres, lres = shipped(pair, a, b)
        return jres - jres.min() - 1e-8, lres

    monkeypatch.setattr(lseminorm, "unit_leibniz_residuals", faulty)
    result = acceptance.criterion_2()
    assert not result.passed
    assert any("below -1e-9" in f for f in result.failures)


def test_criterion_6_checks_the_shipped_dirac_table(monkeypatch):
    shipped = metric_core.mk_distance
    monkeypatch.setattr(metric_core, "mk_distance", lambda space, p, q: shipped(space, p, q) + 1e-8)
    result = acceptance.criterion_6()
    assert not result.passed
    assert any("vs enumeration" in f for f in result.failures)


def test_criterion_8_checks_the_shipped_sweep(monkeypatch):
    shipped = acceptance.fixed_point_sweep

    def rising(q_list, count, seed):
        rows = shipped(q_list, count=count, seed=seed)
        return [{**row, "gap_sampled": float(i)} for i, row in enumerate(rows)]

    monkeypatch.setattr(acceptance, "fixed_point_sweep", rising)
    result = acceptance.criterion_8()
    assert not result.passed
    assert any("gaps not weakly decreasing" in f for f in result.failures)
    assert any("gap at the limit subgroup" in f for f in result.failures)
