"""Unit tests for migration rules and the alpha-smoothness machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BetterResponseMigration,
    LinearMigration,
    ScaledLinearMigration,
    SmoothedBetterResponseMigration,
    check_alpha_smoothness,
    max_safe_alpha,
    migration_rule_for_period,
    safe_update_period,
    safe_update_period_for_rule,
)
from repro.instances import braess_network, two_link_network
from repro.wardrop.paths import CommodityBlocks


class TestBetterResponse:
    def test_switches_iff_strictly_better(self):
        rule = BetterResponseMigration()
        assert rule.probability(1.0, 0.5) == 1.0
        assert rule.probability(0.5, 0.5) == 0.0
        assert rule.probability(0.5, 1.0) == 0.0

    def test_not_smooth(self):
        rule = BetterResponseMigration()
        assert rule.smoothness is None
        check = check_alpha_smoothness(rule, max_latency=1.0, claimed_alpha=1000.0)
        # A tiny positive gap yields probability 1, violating any finite alpha.
        assert check.violations > 0
        assert check.estimated_alpha > 1000.0


class TestLinearMigration:
    def test_probability_formula(self):
        rule = LinearMigration(max_latency=2.0)
        assert rule.probability(1.5, 0.5) == pytest.approx(0.5)
        assert rule.probability(0.5, 1.5) == 0.0

    def test_probability_capped_at_one(self):
        rule = LinearMigration(max_latency=0.5)
        assert rule.probability(10.0, 0.0) == 1.0

    def test_smoothness_is_inverse_lmax(self):
        rule = LinearMigration(max_latency=4.0)
        assert rule.smoothness == pytest.approx(0.25)
        check = check_alpha_smoothness(rule, max_latency=4.0)
        assert check.is_smooth
        assert check.estimated_alpha <= 0.25 + 1e-9

    def test_rejects_non_positive_lmax(self):
        with pytest.raises(ValueError):
            LinearMigration(0.0)

    def test_matrix_is_zero_diagonal_and_selfish(self):
        rule = LinearMigration(max_latency=1.0)
        latencies = np.array([0.2, 0.8, 0.5])
        matrix = rule.matrix(CommodityBlocks.from_slices([(0, 3)]), latencies[None, None])[0, 0]
        assert np.allclose(np.diag(matrix), 0.0)
        for p in range(3):
            for q in range(3):
                if latencies[p] <= latencies[q]:
                    assert matrix[p, q] == 0.0


class TestScaledAndSmoothed:
    def test_scaled_linear_smoothness(self):
        rule = ScaledLinearMigration(alpha=3.0)
        assert rule.smoothness == 3.0
        assert rule.probability(1.0, 0.9) == pytest.approx(0.3)
        check = check_alpha_smoothness(rule, max_latency=1.0)
        assert check.is_smooth

    def test_smoothed_better_response(self):
        rule = SmoothedBetterResponseMigration(width=0.01)
        assert rule.smoothness == pytest.approx(100.0)
        assert rule.probability(1.0, 0.5) == 1.0
        assert rule.probability(0.505, 0.5) == pytest.approx(0.5)

    def test_reject_bad_parameters(self):
        with pytest.raises(ValueError):
            ScaledLinearMigration(0.0)
        with pytest.raises(ValueError):
            SmoothedBetterResponseMigration(0.0)


@pytest.mark.parametrize(
    "make, name",
    [
        (LinearMigration, "max_latency"),
        (ScaledLinearMigration, "alpha"),
        (SmoothedBetterResponseMigration, "width"),
    ],
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_constructors_reject_non_finite_or_non_positive_parameters(make, name, value):
    with pytest.raises(ValueError, match=name):
        make(value)


RAGGED = CommodityBlocks.from_slices([(0, 3), (3, 5)])
FORMULAS = [
    (BetterResponseMigration(), lambda gap: 1.0),
    (LinearMigration(2.5), lambda gap: min(1.0, gap / 2.5)),
    (ScaledLinearMigration(3.0), lambda gap: min(1.0, 3.0 * gap)),
    (SmoothedBetterResponseMigration(0.2), lambda gap: min(1.0, gap / 0.2)),
]


@pytest.mark.parametrize("rule, formula", FORMULAS, ids=lambda x: type(x).__name__)
def test_matrix_blocks_match_the_formula_on_a_ragged_layout(rule, formula):
    """``mu[r, c, j, k] = mu(l_j, l_k)`` within each commodity, zero on the
    diagonal, on equal or worse targets and on the padded slot."""
    latencies = np.array([[0.9, 0.2, 0.5, 1.4, 0.3], [0.1, 0.1, 0.7, 0.2, 0.25]])
    mu = rule.matrix(RAGGED, RAGGED.gather(latencies))
    assert mu.shape == (2, 2, 3, 3)
    for row in range(2):
        for c, (start, stop) in enumerate([(0, 3), (3, 5)]):
            for j in range(3):
                for k in range(3):
                    expected = 0.0
                    if j < stop - start and k < stop - start:
                        gap = latencies[row, start + j] - latencies[row, start + k]
                        expected = formula(gap) if gap > 0 else 0.0
                    assert mu[row, c, j, k] == pytest.approx(expected, abs=1e-15)


def test_stacked_parameters_equal_their_rows():
    """A rule with an ``(R, 1, 1, 1)`` parameter equals its one-row matrices bit for bit."""
    latencies = RAGGED.gather(np.random.default_rng(2).random((3, 5)))
    alphas = [0.5, 2.0, 7.0]
    stacked = ScaledLinearMigration(1.0)
    stacked.alpha = np.array(alphas).reshape(-1, 1, 1, 1)
    together = stacked.matrix(RAGGED, latencies)
    for row, alpha in enumerate(alphas):
        alone = ScaledLinearMigration(alpha).matrix(RAGGED, latencies[row : row + 1])
        assert np.array_equal(together[row], alone[0])


class TestSafeUpdatePeriod:
    def test_formula(self):
        network = two_link_network(beta=4.0)
        # T* = 1 / (4 * D * alpha * beta) with D = 1.
        assert safe_update_period(network, alpha=0.5) == pytest.approx(1.0 / 8.0)

    def test_braess_longer_paths_shrink_period(self):
        two = two_link_network(beta=1.0)
        braess = braess_network()
        assert safe_update_period(braess, 1.0) < safe_update_period(two, 1.0)

    def test_for_rule(self):
        network = two_link_network(beta=2.0)
        rule = LinearMigration(network.max_latency())
        expected = 1.0 / (4.0 * 1 * rule.smoothness * 2.0)
        assert safe_update_period_for_rule(network, rule) == pytest.approx(expected)

    def test_for_non_smooth_rule_raises(self):
        with pytest.raises(ValueError):
            safe_update_period_for_rule(two_link_network(), BetterResponseMigration())

    def test_max_safe_alpha_inverts_period(self):
        network = braess_network()
        period = 0.05
        alpha = max_safe_alpha(network, period)
        assert safe_update_period(network, alpha) == pytest.approx(period)

    def test_migration_rule_for_period(self):
        network = two_link_network(beta=2.0)
        rule = migration_rule_for_period(network, 0.1)
        assert safe_update_period_for_rule(network, rule) == pytest.approx(0.1)

    def test_invalid_arguments(self):
        network = two_link_network()
        with pytest.raises(ValueError):
            safe_update_period(network, 0.0)
        with pytest.raises(ValueError):
            max_safe_alpha(network, 0.0)

    def test_nan_arguments_are_rejected_naming_the_field(self):
        network = two_link_network()
        with pytest.raises(ValueError, match="alpha"):
            safe_update_period(network, float("nan"))
        with pytest.raises(ValueError, match="update_period"):
            max_safe_alpha(network, float("nan"))
