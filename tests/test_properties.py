"""Property-based invariants for the roadmap, PRM and the fault-tolerant pool.

``hypothesis`` drives the generators when installed; otherwise each
property falls back to a seeded stdlib-``random`` sweep so the suite
never gains a hard dependency.  Both paths exercise the same test body
with the same value shapes.
"""

import random

import numpy as np
import pytest

from repro.cspace import EuclideanCSpace
from repro.geometry import AABB, Environment
from repro.planners import PRM, Roadmap
from repro.runtime import FaultInjector, run_tasks_parallel

from .oracle import SequentialPRM

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False

FALLBACK_EXAMPLES = 25


def property_test(strategy_builder, fallback_gen, examples=50):
    """Run ``fn(value)`` over generated values.

    With hypothesis: ``@given(strategy_builder())``.  Without: call the
    body on ``fallback_gen(random.Random(seed))`` for a fixed sweep of
    seeds — weaker shrinking, same coverage shape.
    """

    def deco(fn):
        if HAVE_HYPOTHESIS:
            return settings(max_examples=examples, deadline=None)(
                given(strategy_builder())(fn)
            )

        def runner():
            for seed in range(min(examples, FALLBACK_EXAMPLES)):
                fn(fallback_gen(random.Random(seed)))

        runner.__name__ = fn.__name__
        runner.__doc__ = fn.__doc__
        return runner

    return deco


# -- roadmap components -----------------------------------------------------


def _edge_script_strategy():
    n = st.integers(min_value=2, max_value=12)
    return n.flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(
                st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                max_size=4 * k,
            ),
        )
    )


def _edge_script_fallback(r: random.Random):
    k = r.randint(2, 12)
    m = r.randint(0, 4 * k)
    return k, [(r.randrange(k), r.randrange(k)) for _ in range(m)]


@property_test(_edge_script_strategy, _edge_script_fallback)
def test_component_count_decreases_only_on_cross_component_edges(script):
    n, pairs = script
    rmap = Roadmap(dim=2)
    for i in range(n):
        rmap.add_vertex(np.array([float(i), 1.0]), vid=i)
    count = n
    for u, v in pairs:
        if u == v or rmap.has_edge(u, v):
            continue
        crossing = not any(u in c and v in c for c in rmap.connected_components())
        rmap.add_edge(u, v)
        if crossing:
            count -= 1
        assert len(rmap.connected_components()) == count


# -- batched vs sequential PRM ----------------------------------------------


def _prm_case_strategy():
    return st.tuples(
        st.integers(min_value=0, max_value=10_000),  # rng seed
        st.integers(min_value=10, max_value=40),  # samples
        st.integers(min_value=1, max_value=6),  # k
        st.integers(min_value=0, max_value=2),  # obstacle count
    )


def _prm_case_fallback(r: random.Random):
    return (
        r.randint(0, 10_000),
        r.randint(10, 40),
        r.randint(1, 6),
        r.randint(0, 2),
    )


def _case_env(seed: int, n_obstacles: int) -> Environment:
    r = random.Random(seed)
    obstacles = []
    for _ in range(n_obstacles):
        cx, cy = r.uniform(-3, 3), r.uniform(-3, 3)
        hx, hy = r.uniform(0.3, 1.2), r.uniform(0.3, 1.2)
        obstacles.append(AABB([cx - hx, cy - hy], [cx + hx, cy + hy]))
    return Environment(AABB([-5.0, -5.0], [5.0, 5.0]), obstacles, name="gen")


@property_test(_prm_case_strategy, _prm_case_fallback, examples=15)
def test_batched_prm_matches_sequential(case):
    """The vectorised connection path is an optimisation, not a semantic
    change: identical roadmap and identical operation counts."""
    seed, n, k, n_obs = case
    cspace = EuclideanCSpace(_case_env(seed, n_obs))

    def run(fast):
        planner = PRM if fast else SequentialPRM
        return planner(cspace, k=k).build(n, np.random.default_rng(seed))

    a, b = run(True), run(False)
    assert set(a.roadmap.vertices()) == set(b.roadmap.vertices())
    edges_a = {(u, v): w for u, v, w in a.roadmap.edges()}
    edges_b = {(u, v): w for u, v, w in b.roadmap.edges()}
    assert edges_a.keys() == edges_b.keys()
    for key, w in edges_a.items():
        assert w == pytest.approx(edges_b[key])
    assert a.stats.lp_calls == b.stats.lp_calls
    assert a.stats.lp_checks == b.stats.lp_checks
    assert a.stats.lp_successes == b.stats.lp_successes
    assert a.stats.edges_added == b.stats.edges_added
    assert a.roadmap.connected_components() == b.roadmap.connected_components()


# -- pool determinism under faults ------------------------------------------


def _sq(task_id):
    return task_id * task_id


def _pool_case_strategy():
    return st.tuples(
        st.integers(min_value=0, max_value=1_000),  # fault seed
        st.floats(min_value=0.0, max_value=0.6),  # fault rate
        st.integers(min_value=1, max_value=24),  # task count
        st.integers(min_value=1, max_value=4),  # workers
        st.integers(min_value=1, max_value=3),  # chunksize
    )


def _pool_case_fallback(r: random.Random):
    return (
        r.randint(0, 1_000),
        r.uniform(0.0, 0.6),
        r.randint(1, 24),
        r.randint(1, 4),
        r.randint(1, 3),
    )


@pytest.mark.usefixtures("fast_backoff")
@property_test(_pool_case_strategy, _pool_case_fallback, examples=15)
def test_pool_is_deterministic_under_seeded_faults(case):
    """Same fault seed + retry policy → byte-identical results and attempt
    counts, regardless of scheduling nondeterminism in the thread pool."""
    fault_seed, rate, n, workers, chunksize = case

    def run():
        return run_tasks_parallel(
            _sq,
            list(range(n)),
            workers=workers,
            chunksize=chunksize,
            failure_policy="retry",
            max_retries=3,
            fault_injector=FaultInjector(rate=rate, seed=fault_seed),
        )

    a, b = run(), run()
    assert a.results == b.results == {i: i * i for i in range(n)}
    assert a.attempts == b.attempts
    assert a.retries == b.retries
    assert a.complete and b.complete


@pytest.mark.usefixtures("fast_backoff")
@property_test(_pool_case_strategy, _pool_case_fallback, examples=10)
def test_pool_faulty_run_matches_clean_run(case):
    """Chaos parity as a property: retried runs return what a fault-free
    run returns, for any seeded fault plan that spares retries."""
    fault_seed, rate, n, workers, chunksize = case
    clean = run_tasks_parallel(_sq, list(range(n)), workers=workers)
    chaotic = run_tasks_parallel(
        _sq,
        list(range(n)),
        workers=workers,
        chunksize=chunksize,
        failure_policy="retry",
        max_retries=3,
        fault_injector=FaultInjector(rate=rate, seed=fault_seed),
    )
    assert chaotic.results == clean.results


def test_fallback_generators_mirror_strategies():
    """The stdlib fallback produces the same value shapes the hypothesis
    strategies do — guards the no-hypothesis path even when hypothesis is
    installed."""
    r = random.Random(0)
    n, pairs = _edge_script_fallback(r)
    assert 2 <= n <= 12
    assert all(0 <= u < n and 0 <= v < n for u, v in pairs)
    case = _prm_case_fallback(r)
    assert len(case) == 4 and 10 <= case[1] <= 40
    pool_case = _pool_case_fallback(r)
    assert len(pool_case) == 5 and 0.0 <= pool_case[1] <= 0.6
