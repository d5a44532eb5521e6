"""Parity battery for the batched (predict-validate-replay) RRT growth path.

The batched path must be *field-for-field identical* to the sequential
oracle: same PlannerStats, same CollisionCounters, same tree topology
(edges with exact float weights), same parent pointers, same generator
end state.  Every test here runs both paths and diffs the complete
observable surface; the ``...InCone`` classes re-run a battery with
``q_rand`` drawn from a cone (``grow(within=...)``), the way a regional
branch grows.
"""

import numpy as np
import pytest
from dataclasses import asdict

from repro.core.parallel_rrt import build_rrt_workload, simulate_rrt
from repro.cspace.local_planner import StraightLinePlanner
from repro.cspace.space import ConfigurationSpace, EuclideanCSpace
from repro.geometry.environment import Environment
from repro.geometry.environments import med_cube, mixed_30_env
from repro.geometry.primitives import AABB
from repro.planners.roadmap import Roadmap
from repro.planners.rrt import RRT
from repro.runtime.faults import Fault, FaultInjector
from repro.subdivision.radial import ConeRegion, RadialSubdivision


def _fresh_cspace():
    env = Environment(
        AABB(np.array([-5.0, -5.0]), np.array([5.0, 5.0])),
        [
            AABB(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
            AABB(np.array([2.0, 2.0]), np.array([4.0, 4.0])),
        ],
    )
    return EuclideanCSpace(env)


def _corner_cone(dim, lo=-4.0, hi=4.0):
    """The cone from the corner root the battery grows from toward the
    opposite corner — the region the predicate tests guard with."""
    return ConeRegion(
        id=0, root=np.full(dim, lo), target=np.full(dim, hi),
        half_angle=0.8, overlap=0.1, radius=float(np.sqrt(dim)) * (hi - lo),
    )


def _observe(result, env, rng=None):
    """The full parity surface of one grow() call."""
    edges = sorted((min(u, v), max(u, v), w) for u, v, w in result.tree.edges())
    return (
        asdict(result.stats),
        dict(result.parents),
        edges,
        result.root_id,
        (env.counters.point_checks, env.counters.segment_checks),
        rng.bit_generator.state if rng is not None else None,
    )


def _grow_both(seed, n_nodes=60, step=0.5, goal_bias=0.2, grow_kwargs=None, rrt_kwargs=None,
               within=None):
    """Run sequential and batched growth from identical fresh state."""
    out = []
    for batched in (False, True):
        cspace = _fresh_cspace()
        rrt = RRT(cspace, step_size=step, goal_bias=goal_bias, batched=batched,
                  **(rrt_kwargs or {}))
        rng = np.random.default_rng(seed)
        result = rrt.grow(np.array([-4.0, -4.0]), n_nodes, rng, within=within,
                          **(grow_kwargs or {}))
        out.append(_observe(result, cspace.env, rng))
    return out


def _assert_same(seq, bat):
    names = ("stats", "parents", "edges", "root_id", "counters", "generator state")
    for name, a, b in zip(names, seq, bat):
        assert a == b, f"batched RRT diverged from oracle in {name}"


class TestGrowParity:
    #: ``dim -> sampling domain`` handed to every ``grow`` of the battery
    #: (None: whole-space draws); the ``InCone`` subclass swaps it.
    domain = staticmethod(lambda dim: None)

    def _both(self, seed, **kwargs):
        return _grow_both(seed, within=self.domain(2), **kwargs)

    @pytest.mark.parametrize("seed", range(6))
    def test_plain_growth(self, seed):
        _assert_same(*self._both(seed))

    @pytest.mark.parametrize("seed", range(6))
    def test_bias_target(self, seed):
        # Bias draws repeat the same q_rand, exercising verdict sharing
        # and dist == 0 skips once the tree reaches the bias point.
        _assert_same(*self._both(seed, grow_kwargs={"bias_target": np.array([4.0, 4.0])}))

    @pytest.mark.parametrize("seed", range(6))
    def test_goal_early_exit(self, seed):
        # The goal draw lands mid-block: growth must stop on the exact
        # iteration the oracle stops on, not at the block boundary.
        _assert_same(
            *self._both(
                seed,
                grow_kwargs={"goal": np.array([4.5, -4.5]), "goal_tolerance": 0.6},
            )
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_bias_and_goal(self, seed):
        _assert_same(
            *self._both(
                seed,
                grow_kwargs={
                    "bias_target": np.array([4.0, 4.0]),
                    "goal": np.array([4.5, -4.5]),
                    "goal_tolerance": 0.5,
                },
            )
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_iteration_cap_mid_block(self, seed):
        # 100 is not a multiple of the block size; the final short block
        # must stop exactly at the cap.
        _assert_same(*self._both(seed, n_nodes=1000, grow_kwargs={"max_iterations": 100}))

    @pytest.mark.parametrize("seed", range(4))
    def test_region_predicate_scalar_only(self, seed):
        # Without a batch predicate the batched path falls back to the
        # scalar one per candidate — still exact.
        region = _corner_cone(2)
        _assert_same(
            *self._both(seed, grow_kwargs={"region_predicate": region.contains})
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_region_predicate_batch(self, seed):
        region = _corner_cone(2)
        _assert_same(
            *self._both(
                seed,
                grow_kwargs={
                    "region_predicate": region.contains,
                    "region_predicate_batch": region.contains_many,
                },
            )
        )

    def test_medcube_3d(self):
        outs = []
        for batched in (False, True):
            env = med_cube()
            cspace = EuclideanCSpace(env)
            rrt = RRT(cspace, step_size=0.6, batched=batched)
            rng = np.random.default_rng(42)
            result = rrt.grow(np.full(3, -9.0), 300, rng, within=self.domain(3))
            outs.append(_observe(result, env, rng))
        _assert_same(*outs)

    def test_id_base_extension_mode(self):
        # Grow, then extend the returned tree under a different id_base.
        outs = []
        for batched in (False, True):
            cspace = _fresh_cspace()
            rrt = RRT(cspace, step_size=0.5, batched=batched)
            first = rrt.grow(np.array([-4.0, -4.0]), 20, np.random.default_rng(3),
                             id_base=1 << 20, within=self.domain(2))
            second = rrt.grow(
                np.array([-4.0, -4.0]),
                20,
                np.random.default_rng(4),
                tree=first.tree,
                parents=first.parents,
                root_id=first.root_id,
                id_base=2 << 20,
                within=self.domain(2),
            )
            outs.append(_observe(second, cspace.env))
        _assert_same(*outs)


class TestGrowParityInCone(TestGrowParity):
    """The same battery with ``q_rand`` drawn from the corner cone: bulk
    draws (no bias gate), single draws between gates, early exits and the
    iteration cap all replay the cone sampler's generator use exactly."""

    domain = staticmethod(
        lambda dim: _corner_cone(dim) if dim == 2 else _corner_cone(dim, -9.0, 9.0)
    )

    @pytest.mark.parametrize("batched", [False, True])
    def test_proposals_come_from_the_domain(self, batched):
        """Every accepted node extends toward a draw from the cone, so a
        tree grown from the cone's apex never leaves the (convex) cone —
        with no region predicate to keep it there."""
        region = self.domain(2)
        cspace = _fresh_cspace()
        result = RRT(cspace, step_size=0.5, batched=batched).grow(
            region.root, 60, np.random.default_rng(0), within=region
        )
        _ids, cfgs = result.tree.configs_array()
        assert len(cfgs) == 61
        # Rounding in the steer can leave a node a few ulps outside.
        widened = ConeRegion(
            id=0, root=region.root, target=region.target, half_angle=region.half_angle,
            overlap=region.overlap + 1e-9, radius=region.radius,
        )
        assert widened.contains_many(cfgs).all()


class TestConsecutiveCalls:
    """Both paths leave the caller's Generator in the same state, so a
    second ``grow`` on it (which starts from whatever the first left
    behind) stays identical too — early exits included."""

    domain = staticmethod(lambda dim: None)

    @pytest.mark.parametrize(
        "grow_kwargs",
        [
            {},  # unbiased: one bulk draw per block, node budget met mid-block
            {"bias_target": np.array([4.0, 4.0])},
            {"goal": np.array([4.5, -4.5]), "goal_tolerance": 0.6},
            {"max_iterations": 100},  # cap, not an early exit
        ],
        ids=["plain", "bias", "goal", "cap"],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_two_grows_on_one_generator(self, seed, grow_kwargs):
        outs = []
        for batched in (False, True):
            cspace = _fresh_cspace()
            rrt = RRT(cspace, step_size=0.5, goal_bias=0.2, batched=batched)
            rng = np.random.default_rng(seed)
            within = self.domain(2)
            first = rrt.grow(np.array([-4.0, -4.0]), 20, rng, within=within, **grow_kwargs)
            second = rrt.grow(
                np.array([-4.0, -4.0]), 20, rng,
                tree=first.tree, parents=first.parents, root_id=first.root_id,
                id_base=1 << 20, within=within, **grow_kwargs,
            )
            outs.append(_observe(second, cspace.env, rng))
        _assert_same(*outs)


class TestConsecutiveCallsInCone(TestConsecutiveCalls):
    domain = staticmethod(_corner_cone)


class TestBlockDraw:
    """The batched path draws a block's doubles in one ``rng.random`` call,
    walks the bias gates over them and maps every uniform row in one
    ``cspace.sample(unit=...)`` call; the generator is then rewound to
    where the oracle stops.  Every gate combination, both extremes of
    ``goal_bias``, the iteration cap and the goal exit mid-block."""

    GATES = {
        "bias": {"bias_target": np.array([4.0, 4.0])},
        "goal": {"goal": np.array([4.5, -4.5]), "goal_tolerance": 0.6},
        "bias+goal": {"bias_target": np.array([4.0, 4.0]),
                      "goal": np.array([4.5, -4.5]), "goal_tolerance": 0.6},
    }

    @staticmethod
    def _counted_grow(monkeypatch, batched, goal_bias, within, grow_kwargs, seed=3):
        calls = []
        sample = ConfigurationSpace.sample

        def counting(self, *args, **kwargs):
            calls.append(kwargs.get("unit") is not None)
            return sample(self, *args, **kwargs)

        monkeypatch.setattr(ConfigurationSpace, "sample", counting)
        cspace = _fresh_cspace()
        rng = np.random.default_rng(seed)
        result = RRT(cspace, step_size=0.5, goal_bias=goal_bias, batched=batched).grow(
            np.array([-4.0, -4.0]), 60, rng, within=within, **grow_kwargs
        )
        monkeypatch.setattr(ConfigurationSpace, "sample", sample)
        return _observe(result, cspace.env, rng), calls

    @pytest.mark.parametrize("within", [None, _corner_cone(2)], ids=["space", "cone"])
    @pytest.mark.parametrize("cap", [None, 37], ids=["budget", "cap37"])
    @pytest.mark.parametrize("gates", list(GATES))
    @pytest.mark.parametrize("goal_bias", [0.0, 0.2, 1.0])
    def test_gates_replay_the_oracle(self, monkeypatch, goal_bias, gates, cap, within):
        kwargs = dict(self.GATES[gates], max_iterations=cap)
        seq, seq_calls = self._counted_grow(monkeypatch, False, goal_bias, within, kwargs)
        bat, bat_calls = self._counted_grow(monkeypatch, True, goal_bias, within, kwargs)
        _assert_same(seq, bat)
        assert all(bat_calls) and not any(seq_calls)  # every batched call maps rows
        if goal_bias == 1.0:
            # The first gate always fires: no block has a uniform row, so
            # none makes a mapping call.
            assert bat_calls == [] and seq_calls == []
        elif goal_bias == 0.0:
            assert len(seq_calls) == seq[0]["nn_queries"]  # every draw uniform

    @pytest.mark.parametrize("seed", range(4))
    def test_goal_exit_mid_block_in_the_cone(self, monkeypatch, seed):
        """A goal exit inside a block rewinds to the exact double the
        oracle stopped at, with the gates in play."""
        kwargs = dict(self.GATES["bias+goal"], goal=np.array([-2.0, -3.0]), goal_tolerance=0.7)
        seq, _ = self._counted_grow(monkeypatch, False, 0.2, _corner_cone(2), kwargs, seed)
        bat, _ = self._counted_grow(monkeypatch, True, 0.2, _corner_cone(2), kwargs, seed)
        _assert_same(seq, bat)
        assert seq[0]["samples_accepted"] < 60  # it did stop on the goal


class TestOneProposalCallPerBlock:
    """Perf guard, counts not seconds: on the benchmark's pinned mixed-30
    8 x 400 problem the batched ``grow`` maps each block's uniform rows in
    one ``cspace.sample`` call — not one call per draw."""

    def test_one_sample_call_per_block(self, monkeypatch):
        from repro import ExecutionPolicy, WorkloadSpec, plan
        from repro.knn.brute import BruteForceNN

        calls = {"sample": 0, "blocks": 0}
        sample, dist_block = ConfigurationSpace.sample, BruteForceNN._dist_block

        def counting_sample(self, *args, **kwargs):
            calls["sample"] += 1
            return sample(self, *args, **kwargs)

        def counting_blocks(*args):
            calls["blocks"] += 1  # one frozen-tree broadcast per block
            return dist_block(*args)

        monkeypatch.setattr(ConfigurationSpace, "sample", counting_sample)
        monkeypatch.setattr(BruteForceNN, "_dist_block", staticmethod(counting_blocks))
        wl = WorkloadSpec("mixed-30", "rrt", num_regions=8, nodes_per_region=400, seed=1)
        stats = plan(wl, ExecutionPolicy(mode="local", workers=1)).local_stats
        assert stats.samples_accepted == 8 * 400
        # At most one per block (a block whose gates all fired makes none);
        # one call per draw would be more than ten times this.
        assert 0 < calls["sample"] <= calls["blocks"]
        assert 10 * calls["sample"] < stats.nn_queries


class TestEdgeCases:
    def test_region_never_extends(self):
        """A cone no extension can enter: the branch stays root-only."""
        outs = []
        for batched in (False, True):
            cspace = _fresh_cspace()
            rrt = RRT(cspace, step_size=0.5, batched=batched)
            result = rrt.grow(
                np.array([-4.0, -4.0]),
                30,
                np.random.default_rng(11),
                region_predicate=lambda q: False,
                region_predicate_batch=lambda qs: np.zeros(len(np.atleast_2d(qs)), dtype=bool),
                max_iterations=200,
            )
            assert result.tree.num_vertices == 1
            assert result.stats.samples_accepted == 0
            assert result.stats.edges_added == 0
            outs.append(_observe(result, cspace.env))
        _assert_same(*outs)

    @pytest.mark.parametrize("seed", range(3))
    def test_blocked_cone_exhausts_iterations(self, seed):
        """A cone walled off a step from its apex: draws from inside it
        keep proposing extensions into the wall until ``max_iterations``
        runs out mid-block, identically on both paths."""
        region = ConeRegion(
            id=0, root=np.array([-4.0, 0.0]), target=np.array([4.0, 0.0]),
            half_angle=0.5, overlap=0.1, radius=8.0,
        )
        outs = []
        for batched in (False, True):
            cspace = EuclideanCSpace(Environment(
                AABB(np.array([-5.0, -5.0]), np.array([5.0, 5.0])),
                [AABB(np.array([-3.0, -5.0]), np.array([-2.0, 5.0]))],
            ))
            rng = np.random.default_rng(seed)
            result = RRT(cspace, step_size=0.5, goal_bias=0.3, batched=batched).grow(
                region.root, 50, rng, bias_target=region.target, max_iterations=300,
                region_predicate=region.contains, region_predicate_batch=region.contains_many,
                within=region,
            )
            assert result.stats.nn_queries == 300
            assert 0 < result.stats.samples_accepted < 50
            outs.append(_observe(result, cspace.env, rng))
        _assert_same(*outs)

    def test_empty_tree_breaks(self):
        """Extension mode with an empty tree: one charged NN query, then
        the loop breaks — identically on both paths."""
        outs = []
        for batched in (False, True):
            cspace = _fresh_cspace()
            rrt = RRT(cspace, batched=batched)
            result = rrt.grow(
                np.array([-4.0, -4.0]),
                10,
                np.random.default_rng(5),
                tree=Roadmap(cspace.dim),
                parents={},
                root_id=0,
            )
            assert result.tree.num_vertices == 0
            assert result.stats.nn_queries == 1
            assert result.stats.nn_distance_evals == 0
            outs.append(_observe(result, cspace.env))
        _assert_same(*outs)

    def test_zero_node_request(self):
        outs = []
        for batched in (False, True):
            cspace = _fresh_cspace()
            rrt = RRT(cspace, batched=batched)
            result = rrt.grow(np.array([-4.0, -4.0]), 0, np.random.default_rng(1))
            assert result.tree.num_vertices == 1
            outs.append(_observe(result, cspace.env))
        _assert_same(*outs)

    def test_goal_bias_chain_dense(self):
        """High goal bias: long chains of repeated bias draws mid-block."""
        _assert_same(
            *_grow_both(
                9,
                goal_bias=0.8,
                grow_kwargs={"bias_target": np.array([4.5, -4.5])},
            )
        )

    def test_batched_flag_off_uses_oracle_path(self):
        cspace = _fresh_cspace()
        rrt = RRT(cspace, batched=False)
        assert rrt.batched is False
        # And on by default:
        assert RRT(_fresh_cspace()).batched is True

    def test_batched_requires_capable_local_planner(self):
        """A planner without batch_pairs_exact falls back to the oracle."""

        class MinimalLP:
            def __call__(self, cspace, a, b):
                return StraightLinePlanner(resolution=0.25)(cspace, a, b)

        cspace = _fresh_cspace()
        rrt = RRT(cspace, local_planner=MinimalLP(), batched=True)
        result = rrt.grow(np.array([-4.0, -4.0]), 15, np.random.default_rng(2))
        assert result.stats.samples_accepted == 15


class TestConeRegionVectorised:
    def test_contains_many_matches_scalar(self):
        rng = np.random.default_rng(0)
        region = ConeRegion(
            id=0, root=np.array([0.0, 0.0, 0.0]), target=np.array([3.0, 0.0, 0.0]),
            half_angle=0.5, overlap=0.05, radius=3.0,
        )
        pts = rng.uniform(-4, 4, size=(500, 3))
        pts[0] = region.root  # zero-norm special case
        pts[1] = region.target
        mask = region.contains_many(pts)
        assert mask.dtype == bool and mask.shape == (500,)
        for i in range(500):
            assert mask[i] == region.contains(pts[i])
        assert mask[0] and mask[1]

    def test_subdivision_batch_predicate(self):
        sub = RadialSubdivision(np.zeros(2), 4.0, 6, rng=np.random.default_rng(1))
        rng = np.random.default_rng(2)
        pts = rng.uniform(-5, 5, size=(200, 2))
        for rid in sub.graph.region_ids():
            region = sub.region_of(rid)
            np.testing.assert_array_equal(
                region.contains_many(pts), np.array([region.contains(p) for p in pts])
            )


class TestWorkloadParity:
    @pytest.mark.parametrize("env_fn", [med_cube, mixed_30_env])
    def test_build_rrt_workload(self, env_fn):
        obs = []
        for batched in (False, True):
            env = env_fn()
            cspace = EuclideanCSpace(env)
            wl = build_rrt_workload(
                cspace, np.full(3, -9.0), 8, nodes_per_region=12, seed=7, batched=batched
            )
            edges = sorted((min(u, v), max(u, v), w) for u, v, w in wl.tree.edges())
            obs.append(
                (
                    edges,
                    {rid: asdict(b.stats) for rid, b in wl.branch_work.items()},
                    {rid: b.grow_cost for rid, b in wl.branch_work.items()},
                    dict(wl.parents),
                    (env.counters.point_checks, env.counters.segment_checks),
                )
            )
        assert obs[0] == obs[1]

    def test_simulate_parity_under_worker_crash(self):
        """A crashing worker during branch growth: the simulated run over a
        batched-built workload matches the sequential-built one exactly."""
        results = []
        for batched in (False, True):
            env = med_cube()
            cspace = EuclideanCSpace(env)
            wl = build_rrt_workload(
                cspace, np.full(3, -9.0), 8, nodes_per_region=10, seed=3, batched=batched
            )
            injector = FaultInjector([Fault("crash", worker=1, attempt=0)])
            run = simulate_rrt(wl, 4, strategy="rand-8", fault_injector=injector)
            results.append(
                (
                    run.phases.branch_growth,
                    run.phases.branch_connection,
                    run.growth_loads.tolist(),
                    run.nodes_per_pe.tolist(),
                    run.growth_sim.makespan,
                )
            )
        assert results[0] == results[1]
