"""Sequential Rapidly-exploring Random Tree (LaValle & Kuffner, 2001).

Also the regional planner of the uniform *radial* subdivision parallel
RRT (line 11 of Algorithm 2).  "Biased toward its region" is three
per-branch arguments of :meth:`RRT.grow`: ``within`` — the domain
``q_rand`` is drawn from (the region itself, so no collision check or
neighbour scan is spent on a sample that cannot extend this branch);
``bias_target`` — the point ``goal_bias`` of the draws go to (the paper's
"region candidate defined by the random ray"); and ``region_predicate`` —
the vectorised membership guard every valid ``q_new`` still has to pass.
All three travel with the call, never on the planner: one ``RRT`` serves
every region of a decomposition, from several threads at once.

Given a sequence of generators, :meth:`RRT.grow` grows a *block* of
independent branches, one per generator, in lockstep rounds
(:meth:`RRT._grow_block`); one branch is the block of one.  The semantic
oracle, ``tests/oracle.py::SequentialRRT``, grows each branch by the
one-extension-at-a-time loop over a
:class:`~repro.knn.brute.BruteForceNN`.  Every branch of a block
(:meth:`RRT._grow_branch`) inlines that finder's scan and replays the
oracle exactly while vectorising the per-iteration array work, mirroring
the predict-validate-replay strategy of :class:`repro.planners.prm.PRM`:

1. **Sample** a block's worth of ``q_rand`` draws up front, replaying the
   oracle's stream double for double: the oracle takes one ``random()``
   for the bias gate (when there is a bias target) and ``dim`` uniforms
   per ``cspace.sample`` draw, so one ``rng.random`` call covers the
   block, the gate is walked over its values, and every uniform row is
   mapped through the domain in one ``cspace.sample(within=..., unit=...)``
   call.  The generator is then rewound and advanced by exactly the
   doubles the oracle would have consumed, so every sample — and the
   generator's end state — is bit-identical to the sequential loop's.
2. **Batch the nearest-neighbour work**: distances from all block samples
   to the frozen tree are one broadcast; nodes accepted *inside* the
   block contribute one incremental distance column each, so the nearest
   node for iteration *i* is an O(1) combine of the frozen row minimum
   and the running block minimum — never a rebuild.  Ties (including
   frozen-vs-block ties) fall back to replaying the reference selection
   on the composed distance vector, so the chosen neighbour is identical
   even in degenerate geometry.  The tree always holds at least its
   root, so every draw has a nearest node.
3. **Speculatively validate** the extensions the replay will need —
   steer arithmetic, the ``q_new`` validity point check, the region
   predicate, and the local-plan segment — in rounds.  Each round, every
   live branch predicts the verdicts it needs from its own generator,
   tree and cache, and the block validates all of them at once: one
   ``interpolate_pairs``, one ``cspace.valid`` and one
   ``batch_pairs_exact`` call over the concatenated rows, while cone
   membership stays one ``region_predicate`` call per branch on its own
   rows.  Each branch reads back its own slice.  Every verdict is an
   elementwise function of ``(q_near, q_rand)`` and the geometry, so the
   rows a pair shares a call with change no bit.  Verdicts are cached by
   ``(nearest node, sample identity)``; repeated goal-bias draws share
   one entry per tree node, which makes bias *chains* (each acceptance
   re-routing the next bias draw through the new node) cost exactly one
   validation per chain link, the same as the oracle.
4. **Replay** the accept/reject loop in strict order against the verdict
   cache, charging :class:`PlannerStats` per the oracle; a replay that
   needs a verdict the prediction missed (an acceptance moved some later
   sample's nearest node) pauses and re-predicts in the next round.

The environment's ``CollisionCounters`` are rescaled once per block from
the speculative charge to the replayed one — the charge per evaluated
point is a constant factor, so the correction (replayed points over
speculated points, each summed over the branches) is exact integer
arithmetic, the same argument as the PRM build.  A branch's tree is
written once, when it stops growing: one ``add_vertices`` and one
``add_edges`` call in acceptance order, which leaves what the oracle's
``add_vertex`` / ``add_edge`` loop leaves (a node's first neighbour is
its parent).  Trees, ``PlannerStats``, counters and generator end states
are asserted identical to the sequential oracle, branch by branch, in
``tests/test_rrt_batched.py`` and the oracle matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..cspace.local_planner import StraightLinePlanner
from ..cspace.space import ConfigurationSpace
from ..knn.brute import BruteForceNN
from .roadmap import Roadmap
from .stats import PlannerStats

__all__ = ["RRT", "RRTResult"]

#: Iterations speculated per batch: from ``_BLOCK_MIN`` up to ``_BLOCK``.
#: The size doubles after a block whose predictions all held and halves
#: after one that had to re-predict (an acceptance moved a later sample's
#: nearest node).  Where most extensions are rejected, blocks grow and
#: amortise the frozen-tree distance broadcast; where most are accepted —
#: a branch sampling inside its own cone — a wide block would validate
#: candidates against neighbours they no longer have by the time the
#: replay reaches them, or that it never reaches (a 6-node branch needs
#: ~8 draws, not 128).  Results do not depend on the size: the replay is
#: the oracle's loop either way.
_BLOCK = 128
_BLOCK_MIN = 8


@dataclass
class RRTResult:
    """Tree (as a roadmap plus parent pointers) and the work ledger."""

    tree: Roadmap
    parents: "dict[int, int]"
    root_id: int
    stats: PlannerStats

    @property
    def roadmap(self) -> Roadmap:
        """Uniform alias: the tree, named as ``PRMResult`` names its roadmap."""
        return self.tree


class RRT:
    """Sequential RRT with optional region constraint and growth bias.

    Parameters
    ----------
    cspace:
        Configuration space.
    step_size:
        Maximum extension length ``Δq``.
    local_planner:
        Validator for each extension segment, a
        :class:`~repro.cspace.local_planner.StraightLinePlanner` (default
        resolution 0.25).
    goal_bias:
        Probability of sampling the bias target instead of uniformly.
    """

    def __init__(
        self,
        cspace: ConfigurationSpace,
        step_size: float = 0.5,
        local_planner=None,
        goal_bias: float = 0.05,
    ):
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        if not 0.0 <= goal_bias <= 1.0:
            raise ValueError("goal_bias must be in [0, 1]")
        self.cspace = cspace
        self.step_size = step_size
        self.local_planner = (
            local_planner if local_planner is not None
            else StraightLinePlanner(resolution=0.25)
        )
        self.goal_bias = goal_bias

    def grow(
        self,
        root: np.ndarray,
        n_nodes: int,
        rng: "np.random.Generator | Sequence[np.random.Generator]",
        bias_target=None,
        region_predicate=None,
        max_iterations: int | None = None,
        id_base: "int | Sequence[int]" = 0,
        within=None,
    ) -> "RRTResult | list[RRTResult]":
        """Grow a fresh tree of up to ``n_nodes`` nodes rooted at ``root``
        (vertex id ``id_base``), in at most ``max_iterations`` draws
        (default ``20 * n_nodes``): one regional branch of Alg. 2.

        ``within`` is the domain the unbiased ``q_rand`` draws come from:
        anything ``cspace.sample(rng, n, within=...)`` accepts, i.e. an
        elementwise map of the unit cube (``from_unit_cube``) whose
        ``sample`` maps ``dim`` uniforms per draw (an ``AABB``, a
        ``ConeRegion``); None draws from the whole space.  It narrows the
        *proposal* only — ``region_predicate`` still decides what may
        join the tree.
        ``region_predicate``, a vectorised ``(m, dim) -> (m,) bool``
        membership test, restricts accepted nodes to a region (the radial
        subdivision cones); ``bias_target`` is the configuration toward
        which ``goal_bias`` of the samples are drawn.

        ``rng`` is left where the one-extension-at-a-time oracle leaves it,
        so consecutive ``grow`` calls on one generator stay identical too.

        Given a *sequence* of generators this grows a block of independent
        branches from the one ``root``, one per generator, and returns
        their results in order: ``bias_target``, ``region_predicate``,
        ``id_base`` and ``within`` are then sequences with one entry per
        branch, as ``PRM.build`` takes its block.  Each branch is what its
        own one-generator call grows; :meth:`_grow_block` grows them in
        lockstep rounds.
        """
        args = [rng, bias_target, region_predicate, id_base, within]
        single = isinstance(rng, np.random.Generator)
        per_branch = zip(*([[arg] for arg in args] if single else args), strict=True)
        root = np.asarray(root, dtype=float)
        counters = self.cspace.env.counters
        before = counters.snapshot()
        if not self.cspace.valid_single(root):
            raise ValueError("RRT root configuration is invalid")
        max_iterations = max_iterations if max_iterations is not None else 20 * n_nodes
        branches = [(*given, PlannerStats(sample_attempts=1)) for given in per_branch]  # root
        # One check of the shared root, charged once per branch.
        counters.rescale_since(before, len(branches), 1)
        results = self._grow_block(root, n_nodes, max_iterations, branches)
        return results[0] if single else results

    def _grow_block(
        self, root: np.ndarray, n_nodes: int, max_iterations: int, branches: "list[tuple]"
    ) -> "list[RRTResult]":
        """Every branch's predict-validate-replay growth, in lockstep rounds.

        ``branches`` holds one ``(rng, bias_target, region_predicate,
        id_base, within, stats)`` per branch.  Each branch runs as a
        :meth:`_grow_branch` generator, which yields the extensions its
        replay needs validated and is sent their verdicts.  A round
        concatenates every live branch's rows into one
        ``interpolate_pairs``, one ``cspace.valid`` and one
        ``batch_pairs_exact`` call, and tests cone membership with one
        ``region_predicate`` call per branch on its own rows.  A branch
        that stops growing hands back its result and its point counts;
        the counters are rescaled once, by the sums over the block.
        """
        cspace, lp = self.cspace, self.local_planner
        counters = cspace.env.counters
        before = counters.snapshot()
        growths = [self._grow_branch(root, n_nodes, max_iterations, *b) for b in branches]
        results: "list[RRTResult | None]" = [None] * len(growths)
        seq_points = spec_points = 0
        asks: "dict[int, tuple]" = {}

        def advance(j: int, reply) -> None:
            """Send branch ``j`` its verdicts; file what it asks next, or
            its result once it has stopped growing."""
            nonlocal seq_points, spec_points
            try:
                asks[j] = growths[j].send(reply)
            except StopIteration as stop:
                results[j], seq, spec = stop.value
                seq_points += seq
                spec_points += spec

        for j in range(len(growths)):
            advance(j, None)
        while asks:
            order, rows = list(asks), list(asks.values())
            asks.clear()
            q_nears = np.concatenate([r[0] for r in rows])
            q_rands = np.concatenate([r[1] for r in rows])
            dists = np.array([d for r in rows for d in r[2]])
            bounds = np.cumsum([0] + [len(r[2]) for r in rows]).tolist()
            q_news = cspace.interpolate_pairs(
                q_nears, q_rands, np.minimum(self.step_size / dists, 1.0)
            )
            ok_pts = np.atleast_1d(cspace.valid(q_news))
            region_ok = np.ones(dists.size, dtype=bool)
            for j, lo, hi in zip(order, bounds, bounds[1:]):
                guard = branches[j][2]
                if guard is not None:
                    passed = np.nonzero(ok_pts[lo:hi])[0] + lo
                    if passed.size:
                        region_ok[passed] = np.atleast_1d(guard(q_news[passed]))
            lp_sel = np.nonzero(ok_pts & region_ok)[0]
            lp_ok = np.zeros(dists.size, dtype=bool)
            lp_checks = np.zeros(dists.size, dtype=np.int64)
            lp_len = np.zeros(dists.size)
            if lp_sel.size:
                lp_ok[lp_sel], lp_checks[lp_sel], lp_len[lp_sel] = lp.batch_pairs_exact(
                    cspace, q_nears[lp_sel], q_news[lp_sel]
                )
            verdicts = (q_news, ok_pts, region_ok, lp_ok, lp_checks, lp_len)
            for j, lo, hi in zip(order, bounds, bounds[1:]):
                advance(j, tuple(v[lo:hi] for v in verdicts))
        if spec_points:
            # Exact rescale of the speculative charge to the replayed one.
            counters.rescale_since(before, seq_points, spec_points)
        return results

    def _grow_branch(
        self,
        root: np.ndarray,
        n_nodes: int,
        max_iterations: int,
        rng: np.random.Generator,
        bias_target: np.ndarray | None,
        region_predicate,
        id_base: int,
        within,
        stats: PlannerStats,
    ):
        """One branch of :meth:`_grow_block`, as a generator.

        It yields ``(q_near rows, q_rand rows, distances)`` for the
        extensions its replay needs validated, is sent their verdicts —
        ``(q_new, point ok, region ok, local plan ok, local plan checks,
        local plan length)``, row for row — and returns ``(result,
        replayed points, speculated points)``.  See the module docstring
        for the strategy.  Distances are computed with
        :meth:`BruteForceNN._dist_block`'s per-dimension accumulation,
        which is bit-identical to the per-query path the oracle takes, so
        nearest-neighbour choices and steer parameters match exactly.
        """
        cspace = self.cspace
        dim = cspace.dim

        bias_cfg = np.asarray(bias_target, dtype=float) if bias_target is not None else None

        # Insertion-order store of every tree configuration — the same
        # layout the oracle's NeighborFinder holds, so the tie-break
        # fallback can replay the reference selection on an identical
        # array.  Row ``r`` is vertex ``id_base + r``; the root plus the
        # node budget always fit.
        cap = 1 + n_nodes
        store = np.empty((cap, dim))
        store[0] = root
        parent_rows = np.zeros(cap, dtype=np.int64)
        lengths = np.zeros(cap)
        n_store = 1

        added = 0
        nn_evals = 0
        spec_points = 0  # points speculatively evaluated against the env
        seq_points = 0  # points the sequential oracle would evaluate
        # (near row, sample key) -> (point_ok, region_ok, lp_ok, lp_checks,
        # lp_length, q_new).  Geometry never changes, but a uniform draw is
        # drawn once: only bias draws' verdicts outlive their block.
        cache: "dict[tuple[int, object], tuple]" = {}
        it = 0
        block = _BLOCK_MIN

        gated = bias_cfg is not None  # the oracle tests the bias gate
        width = dim + gated  # doubles one oracle iteration may consume

        def draw(m: int, first: int) -> "tuple[np.ndarray, list[object], list[int]]":
            """The oracle's next ``m`` ``q_rand`` draws, with a cache key
            per draw (a bias draw's is ``"bias"``; uniform draws are
            globally unique: ``first`` is the iteration index of the first
            one) and the generator position (doubles drawn since the call)
            after each draw.

            The oracle draws one double for the bias gate and ``dim`` for a
            uniform sample, all from one stream: one ``rng.random`` call
            covers the block's worst case, the gate is walked over its
            values as Python floats, and every uniform row is mapped in one
            ``cspace.sample(unit=...)`` call.  The caller rewinds the
            generator to the position the oracle would stop at."""
            raw = rng.random(m * width)
            vals = raw.tolist()
            gb = self.goal_bias
            drawn = np.empty((m, dim))
            keys: "list[object]" = [None] * m
            ends = [0] * m
            uniform: "list[int]" = []  # block rows that draw a uniform sample
            starts: "list[int]" = []  # where each one's doubles start in raw
            pos = 0
            for b in range(m):
                pos += gated
                if gated and vals[pos - 1] < gb:
                    drawn[b] = bias_cfg
                    keys[b] = "bias"
                else:
                    uniform.append(b)
                    starts.append(pos)
                    keys[b] = first + b
                    pos += dim
                ends[b] = pos
            if uniform:
                rows = np.array(starts)[:, None] + np.arange(dim)
                drawn[uniform] = cspace.sample(rng, within=within, unit=raw[rows])
            return drawn, keys, ends

        while it < max_iterations and added < n_nodes:
            B = min(block, max_iterations - it)
            missed = False
            # -- 1. replay the sampling RNG exactly -----------------------
            rng_state = rng.bit_generator.state
            samples, skey, ends = draw(B, it)
            it += B
            consumed = B  # draws the oracle makes before it stops
            # -- 2. frozen-tree distances: one broadcast ----------------
            n0 = n_store
            D = np.empty((B, n0))
            BruteForceNN._dist_block(store[:n0], samples, D)
            frozen_min = D.min(axis=1)
            frozen_arg = D.argmin(axis=1)
            frozen_tie = (D == frozen_min[:, None]).sum(axis=1) > 1
            # A tie recomputes its distances (the same bits): no branch of
            # a block holds a matrix while the others run.
            del D
            # Running minima over nodes accepted inside this block, updated
            # by one incremental distance column per acceptance.
            blk_min = np.full(B, np.inf)
            blk_arg = np.full(B, -1)
            blk_tie = np.zeros(B, dtype=bool)
            n_blk = 0

            def nearest(i: int) -> "tuple[int, float]":
                """``(store row, distance)`` of sample ``i``'s nearest tree
                node under the current block state.  Exact reference
                semantics: a unique strict minimum is resolved directly,
                anything tied replays the oracle's selection on the
                composed distance vector."""
                fmin = frozen_min[i]
                bmin = blk_min[i]
                if bmin < fmin:
                    if not blk_tie[i]:
                        return n0 + int(blk_arg[i]), float(bmin)
                elif fmin < bmin:
                    if not frozen_tie[i]:
                        return int(frozen_arg[i]), float(fmin)
                d = np.empty(n0 + n_blk)
                BruteForceNN._dist_block(store[:n0], samples[i : i + 1], d[None, :n0])
                d[n0:] = np.linalg.norm(store[n0 : n0 + n_blk] - samples[i], axis=1)
                # argmin returns the FIRST minimum, i.e. the earliest
                # inserted node — the canonical (distance, insertion
                # order) tie-break every NeighborFinder implements.
                row = int(np.argmin(d))
                return row, float(d[row])

            spent: "list[tuple[int, object]]" = []  # this block's uniform keys
            pending = list(range(B))
            while pending and added < n_nodes:
                # -- predict the verdicts replay needs; the block validates
                need: "list[tuple[tuple[int, object], int, float, int]]" = []
                seen: "set[tuple[int, object]]" = set()
                for i in pending:
                    row, dist = nearest(i)
                    if dist == 0.0:
                        continue
                    key = (row, skey[i])
                    if key in cache or key in seen:
                        continue
                    seen.add(key)
                    need.append((key, row, dist, i))
                if need:
                    q_news, *flags = yield (
                        store[[row for _k, row, _d, _i in need]],
                        samples[[i for _k, _r, _d, i in need]],
                        [d for _k, _r, d, _i in need],
                    )
                    for j, ((key, *_), pt_ok, reg_ok, l_ok, l_checks, l_len) in enumerate(
                        zip(need, *(f.tolist() for f in flags), strict=True)
                    ):
                        cache[key] = (pt_ok, reg_ok, l_ok, l_checks, l_len, q_news[j])
                        spec_points += 1 + l_checks
                    spent += [key for key, *_ in need if key[1] != "bias"]
                # -- strict in-order replay ------------------------------
                done = 0
                for i in pending:
                    if added >= n_nodes:
                        consumed = i
                        break
                    stats.nn_queries += 1
                    nn_evals += n0 + n_blk
                    row_near, dist = nearest(i)
                    if dist == 0.0:
                        done += 1
                        continue
                    verdict = cache.get((row_near, skey[i]))
                    if verdict is None:
                        # An acceptance moved this sample's nearest node;
                        # pause and re-predict from the updated state.
                        stats.nn_queries -= 1
                        nn_evals -= n0 + n_blk
                        missed = True
                        break
                    done += 1
                    pt_ok, reg_ok, l_ok, l_checks, l_len, q_new = verdict
                    stats.sample_attempts += 1
                    seq_points += 1
                    if not pt_ok or not reg_ok:
                        continue
                    stats.lp_calls += 1
                    stats.lp_checks += l_checks
                    seq_points += l_checks
                    if not l_ok:
                        continue
                    stats.lp_successes += 1
                    stats.edges_added += 1
                    store[n_store] = q_new
                    parent_rows[n_store] = row_near
                    lengths[n_store] = l_len
                    # Incremental distance column: the new node vs every
                    # block sample — the same row-wise norm the reference
                    # finder computes (bit-identical to the frozen
                    # matrix's per-dimension accumulation).
                    col = np.linalg.norm(samples - q_new, axis=1)
                    better = col < blk_min
                    blk_tie |= col == blk_min
                    blk_tie[better] = False
                    blk_arg[better] = n_blk
                    np.copyto(blk_min, col, where=better)
                    n_store += 1
                    n_blk += 1
                    added += 1
                pending = pending[done:]
            block = max(_BLOCK_MIN, block // 2) if missed else min(_BLOCK, 2 * block)
            used = ends[consumed - 1] if consumed else 0
            if used < B * width:
                # The block's draw took doubles the oracle never reaches —
                # bias draws, or iterations after the node budget is met:
                # rewind and advance by exactly the ones it consumed.
                rng.bit_generator.state = rng_state
                rng.random(used)
            for key in spent:
                del cache[key]

        stats.nn_distance_evals += nn_evals
        stats.samples_accepted += added
        # The tree, written once in acceptance order.
        ids = id_base + np.arange(n_store)
        tree = Roadmap(dim)
        tree.add_vertices(ids, store[:n_store])
        tree.add_edges(ids[parent_rows[1:n_store]], ids[1:], lengths[1:n_store])
        parents = dict(zip(ids.tolist(), ids[parent_rows[:n_store]].tolist()))
        return RRTResult(tree, parents, id_base, stats), seq_points, spec_points

