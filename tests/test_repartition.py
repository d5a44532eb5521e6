"""Tests for bulk-synchronous repartitioning (Algorithm 4)."""

import importlib

import numpy as np
import pytest

from repro.core import repartition
from repro.geometry import AABB
from repro.obs import MemorySink, Tracer
from repro.obs.events import EV_REPARTITION_DECISION
from repro.partition import loads_of, partition_block
from repro.runtime import ClusterTopology
from repro.subdivision import UniformSubdivision

#: the module, which ``repro.core``'s ``repartition`` function shadows.
repartition_module = importlib.import_module("repro.core.repartition")


def _setup(num_regions=64, P=4, skew=True, seed=0):
    sub = UniformSubdivision(AABB([0, 0], [8, 8]), num_regions)
    g = sub.graph
    rng = np.random.default_rng(seed)
    weights = {}
    for rid in g.region_ids():
        if skew:
            weights[rid] = 100.0 if rid < num_regions // 8 else 1.0
        else:
            weights[rid] = 1.0
    old = partition_block(g, P)
    topo = ClusterTopology(P, cores_per_node=2)
    return g, weights, old, topo


class TestRepartition:
    def test_improves_balance_on_skewed_load(self):
        g, w, old, topo = _setup(skew=True)
        res = repartition(g, w, old, topo)
        old_loads = loads_of(g, w, old, topo.num_pes)
        new_loads = loads_of(g, w, res.assignment, topo.num_pes)
        assert new_loads.max() < old_loads.max()
        assert res.moved_regions > 0
        assert res.overhead > 0

    def test_skips_when_balanced(self):
        g, w, old, topo = _setup(skew=False)
        res = repartition(g, w, old, topo)
        assert res.assignment == old
        assert res.moved_regions == 0
        assert res.max_migration_payload == 0.0
        # Only the all-reduce is charged.
        assert res.overhead == pytest.approx(
            2.0 * np.ceil(np.log2(topo.num_pes)) * topo.latency_remote
        )

    def test_traced_decision_to_keep_the_old_map(self):
        g, w, old, topo = _setup(skew=False)
        sink = MemorySink()
        res = repartition(g, w, old, topo, tracer=Tracer(sinks=[sink]))
        assert res.assignment == old
        (event,) = [e for e in sink.events if e.name == EV_REPARTITION_DECISION]
        attrs = dict(event.attrs)
        assert attrs["accepted"] is False
        assert attrs["moved"] == 0
        assert attrs["overhead"] == res.overhead == (
            2.0 * np.ceil(np.log2(topo.num_pes)) * topo.latency_remote
        )

    def test_weights_are_checked_and_left_alone(self):
        g, w, old, topo = _setup(skew=True)
        given = dict(w)
        repartition(g, w, old, topo)
        assert w == given
        for bad in ({**w, 0: -1.0}, {rid: x for rid, x in w.items() if rid != 3}):
            with pytest.raises(ValueError):
                repartition(g, bad, old, topo)

    def test_migration_payload_scales_with_weight(self, monkeypatch):
        g, w, old, topo = _setup(skew=True)
        monkeypatch.setattr(repartition_module, "PAYLOAD_PER_WEIGHT", 0.0)
        light = repartition(g, w, old, topo)
        monkeypatch.setattr(repartition_module, "PAYLOAD_PER_WEIGHT", 10.0)
        heavy = repartition(g, w, old, topo)
        assert heavy.max_migration_payload > light.max_migration_payload

    def test_min_gain_zero_always_installs(self, monkeypatch):
        g, w, old, topo = _setup(skew=False)
        monkeypatch.setattr(repartition_module, "MIN_GAIN", 0.0)
        res = repartition(g, w, old, topo)
        # With uniform weights LPT may reassign but balance stays perfect.
        new_loads = loads_of(g, w, res.assignment, topo.num_pes)
        assert new_loads.max() <= loads_of(g, w, old, topo.num_pes).max() + 1e-9

    def test_refine_does_not_break_completeness(self):
        g, w, old, topo = _setup(skew=True)
        res = repartition(g, w, old, topo)
        assert set(res.assignment) == set(g.region_ids())
