"""Acceptance suite: one test per advertised criterion.

Each test drives the same check functions as the ``verify`` subcommand,
prints a PASS/FAIL line with the measured runtime, and enforces the
stated tolerance and runtime budget.
"""

import math
import random
from fractions import Fraction

import pytest

from rollmix import verify
from rollmix.fixtures import population_b
from rollmix.model import Schema
from rollmix.recombine import enumerate_inflated_orbit


def report(result, budget_s):
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name} [{result.seconds:.1f}s / budget {budget_s}s]: {result.detail}")
    assert result.passed, result.detail
    assert result.seconds < budget_s, f"runtime {result.seconds:.1f}s exceeds {budget_s}s"


def test_criterion_01_involution_and_conservation():
    report(verify.check_involution_conservation(seed=101, populations=1000), 30)


def test_criterion_02_statistic_invariance():
    report(verify.check_stat_invariance(seed=202, populations=200, steps=100), 30)


def test_criterion_03_homologous_exactness():
    report(verify.check_homologous_exactness(seed=303, populations=20), 120)


def test_criterion_04_chain_convergence():
    report(verify.check_chain_convergence(seed=404, steps=100_000), 60)


def test_criterion_05_uniform_stationarity(stationarity_run):
    report(stationarity_run[0], 120)


def test_chi_square_matches_scipy():
    # Criterion 05's p-value is computed in closed form; scipy is the
    # reference, on a fixed grid of degrees of freedom and statistics.
    stats = pytest.importorskip("scipy.stats")
    xs = [i / 4 for i in range(801)]
    for k in range(1, 61):
        for x, ref in zip(xs, stats.chi2.sf(xs, k)):
            if ref > 1e-300:
                assert verify._chi2_sf(x, k) == pytest.approx(ref, rel=1e-12, abs=0), (x, k)
    rng = random.Random(5)
    for _ in range(200):
        observed = [rng.randint(0, 40) for _ in range(rng.randint(2, 50))]
        observed[0] += 1
        stat, p = verify._chi_square(observed)
        ref = stats.chisquare(observed)
        assert stat == pytest.approx(ref.statistic, rel=1e-12, abs=1e-12)
        assert p == pytest.approx(ref.pvalue, rel=1e-12)


def test_chi_square_edges():
    assert verify._chi_square([7, 7, 7]) == (0.0, 1.0)
    for k in range(1, 61):
        assert verify._chi2_sf(0.0, k) == 1.0
    for x in (0.5, 3.0, 40.0, 200.0):
        assert verify._chi2_sf(x, 2) == math.exp(-x / 2)
    # A far-off chain drives p to zero, never to nan.
    assert verify._chi2_sf(1e6, 11) == verify._chi2_sf(1e6, 12) == 0.0


def test_criterion_06_inflation_trend():
    report(verify.check_inflation_trend(max_factor=4), 300)


def test_inflation_gap_closed_form():
    # Exact finite-population values behind criterion 06.  Each equals
    # 1/8 + 1/(24(2m-1)^2): an observed fit to the Geiringer limit 1/8,
    # not a proven law.
    target = Schema("alpha", (1, 2), "f1")
    expected = [Fraction(1, 6), Fraction(7, 54), Fraction(19, 150),
                Fraction(37, 294), Fraction(61, 486), Fraction(91, 726)]
    for m, value in enumerate(expected, 1):
        assert value == Fraction(1, 8) + Fraction(1, 24 * (2 * m - 1) ** 2)
        orbit = enumerate_inflated_orbit(population_b(), m, cap=10**40)
        assert orbit.family_frequency(target) == value


def test_criterion_07_evaluator_vs_oracle():
    report(verify.check_evaluator_oracle(seed=606, walks=100_000), 60)


def test_criterion_08_flow_conservation():
    report(verify.check_flow_conservation(seed=707, populations=100), 60)


def test_criterion_09_terminal_count_identity():
    report(verify.check_terminal_count_identity(seed=808, populations=1000), 10)


def test_criterion_10_pipeline_determinism(tmp_path):
    report(verify.check_pipeline_determinism(str(tmp_path), seed=909), 120)


def test_chain_budget_covers_shared_trace(million_step_trace):
    # Criterion 05's million-step chain, which the oracle-agreement test
    # also reads; rerunning it here would double the suite cost.
    assert million_step_trace.steps == 1_000_000
    gap = abs(million_step_trace.phi(Schema("alpha", (1, 2), "f1")) - Fraction(1, 6))
    assert gap <= Fraction(1, 100)
