"""Parity battery for the batched (predict-validate-replay) RRT growth path.

The batched path must leave exactly what the sequential oracle
(:class:`tests.oracle.SequentialRRT`) leaves: every field of
:func:`tests.oracle.digest` — tree, ordered adjacency, parents,
PlannerStats, CollisionCounters and the generator end state.
The ``...InCone`` classes re-run a battery with ``q_rand`` drawn from a
cone (``grow(within=...)``), the way a regional branch grows.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.parallel_rrt import build_rrt_workload, simulate_rrt
from repro.cspace.space import ConfigurationSpace, EuclideanCSpace
from repro.geometry.environment import Environment
from repro.geometry.environments import med_cube, mixed_30_env
from repro.geometry.primitives import AABB
from repro.planners.rrt import RRT
from repro.subdivision.radial import ConeRegion, RadialSubdivision

from .oracle import SequentialRRT, assert_agree, assert_same, digest, rrt_loop

#: Where the lockstep property grows its branches from: a free point of
#: the two-box plane, a radius that keeps every cone inside the bounds.
_APEX, _REACH = np.array([-2.5, -2.5]), 2.4


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


def _grow(fast, seed, n_nodes=60, cspace=None, root=(-4.0, -4.0), rrt=None, **grow_kwargs):
    """One ``grow`` from fresh state, digested with its generator's end state."""
    cspace = cspace if cspace is not None else _fresh_cspace()
    rng = np.random.default_rng(seed)
    rrt = rrt if rrt is not None else {"step_size": 0.5, "goal_bias": 0.2}
    planner = (RRT if fast else SequentialRRT)(cspace, **rrt)
    result = planner.grow(np.asarray(root, dtype=float), n_nodes, rng, **grow_kwargs)
    return digest(result, cspace.env, rng)


class TestGrowParity:
    #: ``dim -> sampling domain`` handed to every ``grow`` of the battery
    #: (None: whole-space draws); the ``InCone`` subclass swaps it.
    domain = staticmethod(lambda dim: None)

    def _agree(self, seed, n_nodes=60, **grow_kwargs):
        assert_agree(lambda b: _grow(b, seed, n_nodes, within=self.domain(2), **grow_kwargs))

    @pytest.mark.parametrize("seed", range(6))
    def test_plain_growth(self, seed):
        self._agree(seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_bias_target(self, seed):
        # Bias draws repeat the same q_rand, exercising verdict sharing
        # and dist == 0 skips once the tree reaches the bias point.
        self._agree(seed, bias_target=np.array([4.0, 4.0]))

    @pytest.mark.parametrize("seed", range(6))
    def test_budget_exit_mid_block(self, seed):
        # The last node lands mid-block: growth must stop on the exact
        # iteration the oracle stops on, not at the block boundary.
        self._agree(seed, n_nodes=37, bias_target=np.array([4.0, 4.0]))

    @pytest.mark.parametrize("seed", range(4))
    def test_iteration_cap_mid_block(self, seed):
        # 100 is not a multiple of the block size; the final short block
        # must stop exactly at the cap.
        self._agree(seed, n_nodes=1000, max_iterations=100)

    @pytest.mark.parametrize("seed", range(4))
    def test_region_predicate_batch(self, seed):
        self._agree(seed, region_predicate=_corner_cone(2).contains_many)

    def test_medcube_3d(self):
        assert_agree(lambda b: _grow(b, 42, 300, cspace=EuclideanCSpace(med_cube()),
                                     root=np.full(3, -9.0), rrt={"step_size": 0.6},
                                     within=self.domain(3)))


class TestGrowParityInCone(TestGrowParity):
    """The same battery with ``q_rand`` drawn from the corner cone: bulk
    draws (no bias gate), single draws between gates, early exits and the
    iteration cap all replay the cone sampler's generator use exactly."""

    domain = staticmethod(
        lambda dim: _corner_cone(dim) if dim == 2 else _corner_cone(dim, -9.0, 9.0)
    )

    @pytest.mark.parametrize("fast", [False, True])
    def test_proposals_come_from_the_domain(self, fast):
        """Every accepted node extends toward a draw from the cone, so a
        tree grown from the cone's apex never leaves the (convex) cone —
        with no region predicate to keep it there."""
        region = self.domain(2)
        cspace = _fresh_cspace()
        result = (RRT if fast else SequentialRRT)(cspace, step_size=0.5).grow(
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
    behind) stays identical too — budget exits mid-block included."""

    domain = staticmethod(lambda dim: None)

    @pytest.mark.parametrize(
        "grow_kwargs",
        [
            {},  # unbiased: one bulk draw per block, node budget met mid-block
            {"bias_target": np.array([4.0, 4.0])},
            {"max_iterations": 100},  # cap, not a budget exit
        ],
        ids=["plain", "bias", "cap"],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_two_grows_on_one_generator(self, seed, grow_kwargs):
        def run(fast):
            cspace = _fresh_cspace()
            rrt = (RRT if fast else SequentialRRT)(cspace, step_size=0.5, goal_bias=0.2)
            rng = np.random.default_rng(seed)
            root, within = np.array([-4.0, -4.0]), self.domain(2)
            first = rrt.grow(root, 20, rng, within=within, **grow_kwargs)
            second = rrt.grow(root, 20, rng, id_base=1 << 20, within=within, **grow_kwargs)
            return {"first": digest(first), "second": digest(second, cspace.env, rng)}

        assert_agree(run)


class TestConsecutiveCallsInCone(TestConsecutiveCalls):
    domain = staticmethod(_corner_cone)


class TestBlockDraw:
    """The batched path draws a block's doubles in one ``rng.random`` call,
    walks the bias gate over them and maps every uniform row in one
    ``cspace.sample(unit=...)`` call; the generator is then rewound to
    where the oracle stops.  With and without the gate, both extremes of
    ``goal_bias``, the iteration cap and the budget exit mid-block."""

    GATES = {
        "none": {},
        "bias": {"bias_target": np.array([4.0, 4.0])},
    }

    @staticmethod
    def _counted_grow(monkeypatch, fast, goal_bias, within, grow_kwargs, seed=3):
        calls = []
        sample = ConfigurationSpace.sample

        def counting(self, *args, **kwargs):
            calls.append(kwargs.get("unit") is not None)
            return sample(self, *args, **kwargs)

        monkeypatch.setattr(ConfigurationSpace, "sample", counting)
        out = _grow(fast, seed, rrt={"step_size": 0.5, "goal_bias": goal_bias},
                    within=within, **grow_kwargs)
        monkeypatch.setattr(ConfigurationSpace, "sample", sample)
        return out, calls

    @pytest.mark.parametrize("within", [None, _corner_cone(2)], ids=["space", "cone"])
    @pytest.mark.parametrize("cap", [None, 37], ids=["budget", "cap37"])
    @pytest.mark.parametrize("gates", list(GATES))
    @pytest.mark.parametrize("goal_bias", [0.0, 0.2, 1.0])
    def test_gates_replay_the_oracle(self, monkeypatch, goal_bias, gates, cap, within):
        kwargs = dict(self.GATES[gates], max_iterations=cap)
        seq, seq_calls = self._counted_grow(monkeypatch, False, goal_bias, within, kwargs)
        bat, bat_calls = self._counted_grow(monkeypatch, True, goal_bias, within, kwargs)
        assert_same(bat, seq)
        assert all(bat_calls) and not any(seq_calls)  # every batched call maps rows
        if goal_bias == 1.0 and gates == "bias":
            # The gate always fires: no block has a uniform row, so none
            # makes a mapping call.
            assert bat_calls == [] and seq_calls == []
        elif goal_bias == 0.0 or gates == "none":
            assert len(seq_calls) == seq["stats"]["nn_queries"]  # every draw uniform

    @pytest.mark.parametrize("seed", range(4))
    def test_budget_exit_mid_block_in_the_cone(self, monkeypatch, seed):
        """A node-budget exit inside a block rewinds to the exact double
        the oracle stopped at, with the bias gate in play."""
        kwargs = dict(self.GATES["bias"], max_iterations=400)
        seq, _ = self._counted_grow(monkeypatch, False, 0.2, _corner_cone(2), kwargs, seed)
        bat, _ = self._counted_grow(monkeypatch, True, 0.2, _corner_cone(2), kwargs, seed)
        assert_same(bat, seq)
        assert seq["stats"]["samples_accepted"] == 60  # it stopped on the budget
        assert seq["stats"]["nn_queries"] < 400  # not on the cap


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


class TestBlockEqualsCalls:
    """A block of ``k`` branches grown in lockstep — one ``grow`` with a
    generator, cone, target, guard and id base per branch — is ``k``
    independent ``grow`` calls: trees, ordered adjacency, parents,
    ``PlannerStats``, every generator's end state and the environment's
    counters (rescaled once for the whole block)."""

    @staticmethod
    def _grow(block, seeds, n_nodes, goal_bias, cap, biased, stuck):
        cspace = _fresh_cspace()
        cones = RadialSubdivision(_APEX, _REACH, max(len(seeds), 2),
                                  rng=np.random.default_rng(0))
        args = [
            {
                "rng": np.random.default_rng(seed),
                "bias_target": cones.region_of(j).target if biased else None,
                # Branch ``stuck`` guards against every extension: it never grows.
                "region_predicate": (
                    (lambda qs: np.zeros(len(qs), dtype=bool)) if j == stuck
                    else cones.region_of(j).contains_many
                ),
                "id_base": j << 20,
                "within": cones.region_of(j),
            }
            for j, seed in enumerate(seeds)
        ]
        planner = RRT(cspace, step_size=0.5, goal_bias=goal_bias)
        if block:
            results = planner.grow(_APEX, n_nodes, max_iterations=cap, **{
                name: [a[name] for a in args] for name in args[0]
            })
        else:
            results = [planner.grow(_APEX, n_nodes, max_iterations=cap, **a) for a in args]
        return {
            "branches": [digest(r) for r in results],
            "generators": [a["rng"].bit_generator.state for a in args],
            "counters": (cspace.env.counters.point_checks, cspace.env.counters.segment_checks),
        }

    @settings(max_examples=25)
    @given(
        seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=4),
        n_nodes=st.integers(0, 40),
        goal_bias=st.sampled_from([0.0, 0.3, 1.0]),
        cap=st.one_of(st.none(), st.integers(0, 150)),
        biased=st.booleans(),
        stuck=st.one_of(st.none(), st.integers(0, 3)),
    )
    # The node budget met mid-block, on every branch and in different rounds.
    @example(seeds=[1, 2, 3], n_nodes=37, goal_bias=0.3, cap=None, biased=True, stuck=None)
    # The iteration cap cuts every branch's last draw block short.
    @example(seeds=[4, 5, 6], n_nodes=1000, goal_bias=0.3, cap=100, biased=True, stuck=None)
    @example(seeds=[7, 8], n_nodes=0, goal_bias=0.3, cap=None, biased=True, stuck=None)
    # Every draw uniform, and every draw the bias target.
    @example(seeds=[9, 10, 11], n_nodes=30, goal_bias=0.0, cap=None, biased=True, stuck=None)
    @example(seeds=[12, 13, 14], n_nodes=30, goal_bias=1.0, cap=None, biased=True, stuck=None)
    # A branch that never extends grows beside three that do.
    @example(seeds=[15, 16, 17, 18], n_nodes=25, goal_bias=0.3, cap=200, biased=True, stuck=1)
    def test_a_block_equals_one_grow_per_branch(
        self, seeds, n_nodes, goal_bias, cap, biased, stuck
    ):
        case = (seeds, n_nodes, goal_bias, cap, biased, stuck)
        assert_same(self._grow(True, *case), self._grow(False, *case))


class _Lattice:
    """A sampling domain on the integer points of ``[-4, 4]^2``: an
    elementwise map of the unit cube whose draws, with a step longer than
    the plane, make every node a lattice point, so a draw is often as
    near to two nodes as to one — the tied selections the batched path
    replays from the composed distance row."""

    dim = 2

    @staticmethod
    def from_unit_cube(u):
        return np.floor(9.0 * np.asarray(u, dtype=float)) - 4.0

    def sample(self, rng, n=None):
        return self.from_unit_cube(rng.random(self.dim if n is None else (n, self.dim)))


class TestEdgeCases:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("block", [False, True], ids=["one", "block"])
    def test_tied_nearest_nodes(self, seed, block):
        """Equidistant nodes, frozen and grown in the same draw block: the
        nearest node is the earliest inserted, as the reference scan picks."""
        def run(fast):
            cspace = _fresh_cspace()
            planner = (RRT if fast else SequentialRRT)(cspace, step_size=20.0, goal_bias=0.3)
            rngs = [np.random.default_rng(seed + 10 * j) for j in range(3 if block else 1)]
            kwargs = {"bias_target": np.array([4.0, -4.0]), "within": _Lattice()}
            if block:
                kwargs = {name: [value] * 3 for name, value in kwargs.items()}
                kwargs.update(region_predicate=[None] * 3, id_base=[0, 1 << 20, 2 << 20])
            results = planner.grow(np.array([-4.0, 4.0]), 30, rngs if block else rngs[0],
                                   max_iterations=200, **kwargs)
            return {"trees": [digest(r) for r in (results if block else [results])],
                    "rngs": [r.bit_generator.state for r in rngs],
                    "counters": (cspace.env.counters.point_checks,)}

        assert_agree(run)

    def test_region_never_extends(self):
        """A cone no extension can enter: the branch stays root-only."""
        out = assert_agree(lambda b: _grow(
            b, 11, 30, rrt={"step_size": 0.5},
            region_predicate=lambda qs: np.zeros(len(qs), dtype=bool), max_iterations=200,
        ))
        assert out["ids"] == (0,)
        assert out["stats"]["samples_accepted"] == out["stats"]["edges_added"] == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_blocked_cone_exhausts_iterations(self, seed):
        """A cone walled off a step from its apex: draws from inside it
        keep proposing extensions into the wall until ``max_iterations``
        runs out mid-block, identically on both paths."""
        region = ConeRegion(
            id=0, root=np.array([-4.0, 0.0]), target=np.array([4.0, 0.0]),
            half_angle=0.5, overlap=0.1, radius=8.0,
        )
        out = assert_agree(lambda b: _grow(
            b, seed, 50, root=region.root, rrt={"step_size": 0.5, "goal_bias": 0.3},
            cspace=EuclideanCSpace(Environment(
                AABB(np.array([-5.0, -5.0]), np.array([5.0, 5.0])),
                [AABB(np.array([-3.0, -5.0]), np.array([-2.0, 5.0]))],
            )),
            bias_target=region.target, max_iterations=300,
            region_predicate=region.contains_many, within=region,
        ))
        assert out["stats"]["nn_queries"] == 300
        assert 0 < out["stats"]["samples_accepted"] < 50

    def test_zero_node_request(self):
        out = assert_agree(lambda b: _grow(b, 1, 0, rrt={}))
        assert len(out["ids"]) == 1

    def test_goal_bias_chain_dense(self):
        """High goal bias: long chains of repeated bias draws mid-block."""
        assert_agree(lambda b: _grow(b, 9, rrt={"step_size": 0.5, "goal_bias": 0.8},
                                     bias_target=np.array([4.5, -4.5])))


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
        def run(fast):
            with contextlib.nullcontext() if fast else rrt_loop():
                return digest(build_rrt_workload(
                    EuclideanCSpace(env_fn()), np.full(3, -9.0), 8, nodes_per_region=12, seed=7
                ))

        assert_agree(run)

    def test_simulate_parity(self):
        """Branch growth replayed under stealing: the simulated run over a
        batched-built workload matches the sequential-built one exactly."""
        results = []
        for loop in (rrt_loop(), contextlib.nullcontext()):
            with loop:
                wl = build_rrt_workload(
                    EuclideanCSpace(med_cube()), np.full(3, -9.0), 8, nodes_per_region=10, seed=3
                )
            run = simulate_rrt(wl, 4, strategy="rand-8")
            results.append(
                (
                    run.phases.node_connection,
                    run.phases.region_connection,
                    run.loads.tolist(),
                    run.nodes_per_pe.tolist(),
                    run.sim.makespan,
                )
            )
        assert results[0] == results[1]
