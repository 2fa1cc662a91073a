"""Unit tests for EdgeLatencyTable: one grid of latency functions, evaluated
group by group on arrays.

Values must be bit-identical to the scalar ``value`` calls (``atol=0``);
derivatives and integrals agree within 1e-12 relative.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.instances import get_instance, pigou_network
from repro.wardrop import FlowVector, NetworkFamily
from repro.wardrop.latency import (
    AffineLatency,
    BPRLatency,
    ConstantLatency,
    EdgeLatencyTable,
    LatencyFunction,
    LinearLatency,
    MM1Latency,
    ModulatedLatency,
    MonomialLatency,
    PiecewiseLinearLatency,
    PolynomialLatency,
    ScaledLatency,
    SumLatency,
    ThresholdLatency,
)
from repro.wardrop.social_cost import MarginalCostLatency


class Quadratic(LatencyFunction):
    """A custom latency class: no stacked form, evaluated per cell."""

    def __init__(self, a):
        self.a = a

    def value(self, x):
        return self.a * x * x

    def derivative(self, x):
        return 2.0 * self.a * x

    def integral(self, x):
        return self.a * x**3 / 3.0


class ShiftedAffine(AffineLatency):
    """A built-in subclass overriding the arithmetic: must not be stacked."""

    def value(self, x):
        return float(super().value(x)) + 1.0


# Four members per column: same class, different coefficients (and, where a
# class has a structure key, different exponents or counts).
COLUMNS = {
    "constant": [ConstantLatency(c) for c in (0.5, 1.0, 1.5, 2.5)],
    "linear": [LinearLatency(a) for a in (0.5, 1.0, 2.0, 3.5)],
    "affine": [AffineLatency(a, b) for a, b in ((0.5, 0.1), (1.0, 0.0), (2.0, 0.7), (0.1, 1.3))],
    "polynomial": [
        PolynomialLatency(c)
        for c in ([0.5, 0.0, 2.0], [1.0, 2.0], [0.0, 2.0, 0.5, 1.0], [0.3, 0.1, 0.0])
    ],
    "monomial": [MonomialLatency(a, d) for a, d in ((0.5, 1), (1.5, 2), (2.0, 3), (1.0, 2))],
    "bpr": [BPRLatency(1.0, 0.9, beta=b) for b in (1, 2, 4, 4)],
    "mm1": [MM1Latency(c) for c in (1.3, 1.5, 2.0, 3.0)],
    "threshold": [ThresholdLatency(beta=b) for b in (1.0, 2.0, 4.0, 8.0)],
    # Per-row breakpoints, of different lengths.
    "piecewise": [
        PiecewiseLinearLatency([(0.0, 0.0), (0.4, 0.1), (1.0, 2.0)]),
        PiecewiseLinearLatency([(0.0, 0.0), (0.6, 0.1), (1.0, 2.0)]),
        PiecewiseLinearLatency([(0.0, 0.0), (0.2, 0.05), (0.7, 0.4), (1.0, 2.0)]),
        PiecewiseLinearLatency([(0.0, 0.2), (1.0, 0.4)]),
    ],
    "scaled": [LinearLatency(a).scaled(s) for a, s in ((1.0, 0.5), (2.0, 0.25), (0.5, 2.0), (1.5, 1.0))],
    "modulated": [
        ModulatedLatency(BPRLatency(1.0, 0.5), gain=1.5),
        ModulatedLatency(BPRLatency(2.0, 0.7), stretch=1.0 / 0.35),
        ModulatedLatency(BPRLatency(1.0, 0.5), offset=50.0),
        ModulatedLatency(BPRLatency(1.5, 0.9)),
    ],
    "sum": [
        SumLatency([LinearLatency(a), ConstantLatency(b)])
        for a, b in ((1.0, 0.3), (2.0, 0.0), (0.5, 1.0), (0.1, 0.7))
    ],
    "nested": [
        ModulatedLatency(ScaledLatency(LinearLatency(1.0), 2.0), gain=1.5),
        ModulatedLatency(ModulatedLatency(AffineLatency(1.0, 0.5), stretch=2.0), offset=1.0),
        ScaledLatency(SumLatency([LinearLatency(1.0), ConstantLatency(0.2)]), 3.0),
        ModulatedLatency(Quadratic(1.0), gain=2.0),
    ],
    "custom": [Quadratic(a) for a in (0.5, 1.0, 2.0, 4.0)],
    "subclass": [ShiftedAffine(a, 0.5) for a in (0.5, 1.0, 2.0, 4.0)],
    "marginal": [
        MarginalCostLatency(f)
        for f in (LinearLatency(1.0), BPRLatency(1.0, 0.8), MonomialLatency(2.0, 3), AffineLatency(1.0, 0.5))
    ],
    # Different classes on one edge across members.
    "mixed": [ConstantLatency(1.0), MonomialLatency(1.0, 2), ThresholdLatency(8.0), LinearLatency(2.0)],
}
NAMES = list(COLUMNS)
GRID = [[COLUMNS[name][b] for name in NAMES] for b in range(4)]
SAMPLES = np.array([-0.2, 0.0, 0.1, 0.25, 0.4, 0.5, 0.65, 0.7, 0.9, 1.0, 1.3])
RTOL = 1e-12


def scalar(functions, operation, flows):
    """Evaluate ``functions[e].operation(flows[..., e])`` one call at a time."""
    flows = np.asarray(flows, dtype=float)
    rows = flows.reshape(-1, len(functions))
    result = [[getattr(f, operation)(float(x)) for f, x in zip(functions, row)] for row in rows]
    return np.array(result).reshape(flows.shape)


def random_flows(shape, seed=5):
    return np.random.default_rng(seed).uniform(-0.1, 1.3, size=shape)


def check(table, functions, flows, rows=None):
    """Assert a ``(E,)``-row table or a per-row grid matches the scalar calls."""
    members = functions if isinstance(functions[0], list) else None
    for operation, method in (
        ("value", table.values),
        ("derivative", table.derivatives),
        ("integral", table.integrals),
    ):
        got = method(flows, rows) if rows is not None else method(flows)
        if members is None:
            expected = scalar(functions, operation, flows)
        else:
            order = range(len(members)) if rows is None else rows
            expected = np.array(
                [scalar(members[b], operation, row) for b, row in zip(order, flows)]
            )
        assert got.shape == np.shape(flows)
        if operation == "value":
            np.testing.assert_array_equal(got, expected)
        else:
            np.testing.assert_allclose(got, expected, rtol=RTOL, atol=0)


class TestOneRow:
    @pytest.mark.parametrize("name", NAMES)
    def test_each_class_matches_scalar_over_edges(self, name):
        functions = COLUMNS[name]
        table = EdgeLatencyTable(functions)
        for x in SAMPLES:
            check(table, functions, np.full(len(functions), x))
        check(table, functions, random_flows(len(functions)))

    @pytest.mark.parametrize("name", NAMES)
    def test_each_class_matches_scalar_over_rows(self, name):
        # A one-row table applies its functions to every row of (R, E) flows.
        functions = COLUMNS[name]
        check(EdgeLatencyTable(functions), functions, random_flows((6, len(functions))))

    def test_every_class_in_one_table(self):
        functions = [f for column in COLUMNS.values() for f in column]
        table = EdgeLatencyTable(functions)
        check(table, functions, random_flows(len(functions)))
        check(table, functions, random_flows((3, len(functions)), seed=9))

    def test_groups_by_class_and_structure(self):
        assert repr(EdgeLatencyTable(COLUMNS["threshold"])).endswith("groups=1)")
        # Scaled and modulated cells join their base class's group.
        assert repr(EdgeLatencyTable(COLUMNS["scaled"] + COLUMNS["linear"])).endswith("groups=1)")
        # Exponents 1, 2, 4: three BPR groups.
        assert repr(EdgeLatencyTable(COLUMNS["bpr"])).endswith("groups=3)")
        # Custom classes, overriding subclasses and nested wrappers share one loop.
        loop = COLUMNS["custom"] + COLUMNS["subclass"] + COLUMNS["nested"] + COLUMNS["sum"]
        assert repr(EdgeLatencyTable(loop)).endswith("groups=1)")

    def test_rejects_mismatched_shapes(self):
        table = EdgeLatencyTable(COLUMNS["linear"])
        with pytest.raises(ValueError, match="flows of shape"):
            table.values(np.zeros(3))
        with pytest.raises(ValueError, match="one function per edge"):
            EdgeLatencyTable([COLUMNS["linear"], COLUMNS["affine"][:3]])


class TestGrid:
    def test_members_match_scalar(self):
        check(EdgeLatencyTable(GRID), GRID, random_flows((4, len(NAMES))))

    def test_row_subsets(self):
        table = EdgeLatencyTable(GRID)
        rows = np.array([2, 0, 3])
        check(table, GRID, random_flows((3, len(NAMES)), seed=7), rows=rows)
        check(table, GRID, random_flows((1, len(NAMES)), seed=8), rows=np.array([1]))

    def test_requires_one_row_per_member_without_rows(self):
        with pytest.raises(ValueError, match="table of shape"):
            EdgeLatencyTable(GRID).values(np.zeros((3, len(NAMES))))


class TestNetworks:
    def test_fused_family_with_different_classes_per_edge(self):
        # The paper sweep fuses these two same-topology instances.
        steep = get_instance("two-links-steep")
        quadratic = get_instance("pigou-quadratic")
        members = [steep, quadratic, quadratic, steep]
        family = NetworkFamily(members)
        rng = np.random.default_rng(3)
        flows = np.stack([FlowVector.random(net, rng).values() for net in members])
        edge_flows = family.base.edge_flows(flows)
        latencies = family.edge_latencies_batch(edge_flows)
        for row, network in enumerate(members):
            np.testing.assert_array_equal(latencies[row], network.edge_latencies(edge_flows[row]))
        rows = np.array([3, 1])
        np.testing.assert_array_equal(
            family.edge_latencies_batch(edge_flows[rows], rows), latencies[rows]
        )

    def test_replicated_family_shares_the_network_table(self):
        network = get_instance("braess")
        family = NetworkFamily.replicate(network, 3)
        assert family.latency_table() is network.latency_table()
        edge_flows = random_flows((3, network.num_edges))
        np.testing.assert_array_equal(
            family.edge_latencies_batch(edge_flows), network.edge_latencies(edge_flows)
        )

    def test_network_tables_match_scalar(self):
        network = get_instance("sioux-falls")
        functions = [network.latency_function(edge) for edge in network.edges]
        edge_flows = random_flows((2, network.num_edges))
        np.testing.assert_array_equal(
            network.edge_latencies(edge_flows), scalar(functions, "value", edge_flows)
        )
        np.testing.assert_allclose(
            network.edge_latency_derivatives(edge_flows[0]),
            scalar(functions, "derivative", edge_flows[0]),
            rtol=RTOL,
            atol=0,
        )

    def test_clone_made_after_the_parent_table_sees_its_overrides(self):
        base = pigou_network(degree=1)
        flows = np.array([0.3, 0.7])
        before = base.edge_latencies(flows)
        clone = base.with_latencies({0: ConstantLatency(9.0), 1: LinearLatency(5.0)})
        assert clone.latency_table() is not base.latency_table()
        np.testing.assert_array_equal(clone.edge_latencies(flows), [9.0, 3.5])
        np.testing.assert_array_equal(base.edge_latencies(flows), before)
