"""Fault injection, retry/backoff and re-dispatch in the local pool."""

import itertools
import time
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

import pytest

from repro import ExecutionPolicy, FaultPolicy, PlanRequest
from repro.obs import (
    EV_TASK_ABANDONED,
    EV_TASK_RETRY,
    EV_WORKER_DEATH,
    Tracer,
    summarize_events,
)
from repro.runtime import (
    Fault,
    FaultInjector,
    TaskFailedError,
    run_tasks_parallel,
)

from .oracle import assert_trace_matches_pool
from .test_local_pool import _BlockTask

#: Retries back off from 0.01 s here (see ``conftest.fast_backoff``).
pytestmark = pytest.mark.usefixtures("fast_backoff")


def _square(task_id):
    return task_id * task_id


def _none_task(task_id):
    return None


def _slow_task_one(task_id):
    if task_id == 1:
        time.sleep(0.4)
    return task_id


class TestFault:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            Fault("explode")
        with pytest.raises(ValueError):
            Fault("raise", attempt=-1)
        with pytest.raises(ValueError):
            Fault("hang", hang=-1.0)

    def test_matching_is_exact_on_attempt(self):
        f = Fault("raise", task=3, attempt=1)
        assert f.matches(3, 1)
        assert not f.matches(3, 0)
        assert not f.matches(4, 1)

    def test_wildcards(self):
        f = Fault("raise")  # any task, attempt 0
        assert f.matches(0, 0)
        assert f.matches(99, 0)
        assert not f.matches(99, 1)


class TestFaultInjector:
    def test_explicit_plan(self):
        inj = FaultInjector([Fault("raise", task=1, attempt=0)])
        assert inj.poll(1, 0) is not None
        assert inj.poll(1, 1) is None
        assert inj.poll(2, 0) is None

    def test_rate_is_deterministic(self):
        inj = FaultInjector(rate=0.3, seed=42)
        draws = [inj.poll(t, 0) is not None for t in range(200)]
        again = [inj.poll(t, 0) is not None for t in range(200)]
        assert draws == again
        assert 20 < sum(draws) < 100  # roughly 30%

    def test_rate_spares_retries_by_default(self):
        inj = FaultInjector(rate=0.9, seed=0)
        assert all(inj.poll(t, 1) is None for t in range(50))

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(rate=1.0)
        with pytest.raises(ValueError):
            FaultInjector(rate=-0.1)

    def test_injector_is_picklable(self):
        import pickle

        inj = FaultInjector([Fault("crash", task=1)], rate=0.1, seed=3)
        clone = pickle.loads(pickle.dumps(inj))
        assert clone.poll(1, 0).kind == "crash"


class TestRetryPolicy:
    def test_transient_fault_recovers(self):
        inj = FaultInjector([Fault("raise", task=4, attempt=0)])
        res = run_tasks_parallel(
            _square,
            list(range(10)),
            workers=3,
            failure_policy="retry",
            fault_injector=inj,
        )
        assert res.results == {i: i * i for i in range(10)}
        assert res.attempts[4] == 2
        assert res.retries == 1
        assert res.complete

    def test_per_task_time_is_successful_attempt_only(self):
        def slow_when_injured(task_id):
            # Attempt 0 of task 2 fails *slowly*; the retry is fast.
            return task_id

        class SlowFirstInjector(FaultInjector):
            def poll(self, task, attempt):
                if task == 2 and attempt == 0:
                    time.sleep(0.3)
                    return Fault("raise", task=2, attempt=0)
                return None

        res = run_tasks_parallel(
            slow_when_injured,
            list(range(5)),
            workers=2,
            failure_policy="retry",
            fault_injector=SlowFirstInjector(),
        )
        assert res.attempts[2] == 2
        # The recorded duration is the fast successful retry, not the
        # 0.3 s failed first attempt.
        assert res.per_task_time[2] < 0.2

    def test_retry_exhaustion_raises(self):
        inj = FaultInjector([Fault("raise", task=1, attempt=a) for a in range(5)])
        with pytest.raises(TaskFailedError) as err:
            run_tasks_parallel(
                _square,
                [0, 1, 2],
                workers=2,
                failure_policy="retry",
                max_retries=1,
                fault_injector=inj,
            )
        assert err.value.task == 1
        assert err.value.attempts == 2

    def test_fail_fast_raises_immediately(self):
        inj = FaultInjector([Fault("raise", task=2, attempt=0)])
        with pytest.raises(TaskFailedError) as err:
            run_tasks_parallel(_square, list(range(5)), workers=2, fault_injector=inj)
        assert err.value.attempts == 1

    def test_serial_fail_fast_runs_no_later_task(self):
        """Inline, each outcome is read before the next submission runs."""
        ran = []

        def recorded(task_id):
            ran.append(task_id)
            return 1 // (task_id - 2)

        with pytest.raises(ZeroDivisionError):
            run_tasks_parallel(recorded, list(range(6)))
        inj = FaultInjector([Fault("raise", task=0, attempt=0)])
        with pytest.raises(TaskFailedError):
            run_tasks_parallel(recorded, list(range(6)), fault_injector=inj)
        assert ran == [0, 1, 2]

    def test_plain_failure_propagates_on_fast_path(self):
        def boom(task_id):
            if task_id == 3:
                raise RuntimeError("planner exploded")
            return task_id

        with pytest.raises(RuntimeError, match="planner exploded"):
            run_tasks_parallel(boom, list(range(5)), workers=2)

    def test_retry_policy_handles_real_exceptions(self):
        calls = {}

        def flaky(task_id):
            calls[task_id] = calls.get(task_id, 0) + 1
            if task_id == 3 and calls[task_id] == 1:
                raise RuntimeError("transient")
            return task_id

        res = run_tasks_parallel(
            flaky, list(range(5)), workers=1, failure_policy="retry"
        )
        assert res.results == {i: i for i in range(5)}
        assert res.attempts[3] == 2


class TestDegradePolicy:
    def test_persistent_fault_abandons(self):
        inj = FaultInjector([Fault("raise", task=3, attempt=a) for a in range(10)])
        res = run_tasks_parallel(
            _square,
            list(range(6)),
            workers=2,
            failure_policy="degrade",
            max_retries=2,
            fault_injector=inj,
        )
        assert res.abandoned == [3]
        assert 3 not in res.results
        assert len(res.results) == 5
        assert res.attempts[3] == 3  # initial + 2 retries
        assert not res.complete

    def test_degrade_without_faults_is_complete(self):
        res = run_tasks_parallel(_square, list(range(8)), workers=2, failure_policy="degrade")
        assert res.complete
        assert res.results == {i: i * i for i in range(8)}


class TestWorkerDeath:
    def test_thread_crash_is_modelled(self):
        inj = FaultInjector([Fault("crash", task=5, attempt=0)])
        res = run_tasks_parallel(
            _square,
            list(range(8)),
            workers=2,
            failure_policy="retry",
            fault_injector=inj,
        )
        assert res.results == {i: i * i for i in range(8)}
        assert res.worker_deaths == 1
        assert res.attempts[5] == 2

    def test_process_crash_rebuilds_pool(self):
        inj = FaultInjector([Fault("crash", task=3, attempt=0)])
        res = run_tasks_parallel(
            _square,
            list(range(8)),
            workers=2,
            backend="process",
            failure_policy="retry",
            fault_injector=inj,
        )
        assert res.results == {i: i * i for i in range(8)}
        assert res.worker_deaths >= 1
        assert res.attempts[3] >= 2

    def test_a_pool_broken_before_a_submission_is_one_death(self, monkeypatch):
        """A crash can break the pool before its dead future is read: the
        next ``submit`` raises, and that is the same one death."""
        submit, calls = ProcessPoolExecutor.submit, itertools.count()

        def breaking(pool, *args, **kwargs):
            if next(calls) == 1:
                raise BrokenProcessPool("a worker died")
            return submit(pool, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", breaking)
        res = run_tasks_parallel(
            _square, list(range(8)), workers=2, backend="process", failure_policy="retry"
        )
        assert (res.results, res.worker_deaths) == ({i: i * i for i in range(8)}, 1)

    def test_crash_under_fail_fast_raises(self):
        inj = FaultInjector([Fault("crash", task=0, attempt=0)])
        with pytest.raises(TaskFailedError):
            run_tasks_parallel(
                _square, list(range(4)), workers=2, fault_injector=inj
            )


class TestTimeouts:
    """Timeouts are the process backend's: the caller cannot be pre-empted."""

    def test_timeout_shorter_than_task_duration(self):
        res = run_tasks_parallel(
            _slow_task_one,
            [0, 1, 2],
            workers=2,
            backend="process",
            failure_policy="degrade",
            max_retries=0,
            task_timeout=0.1,
        )
        assert res.abandoned == [1]
        assert res.results == {0: 0, 2: 2}

    def test_hang_fault_then_recovery(self):
        inj = FaultInjector([Fault("hang", task=2, attempt=0, hang=0.5)])
        res = run_tasks_parallel(
            _square,
            list(range(5)),
            workers=2,
            backend="process",
            failure_policy="retry",
            task_timeout=0.1,
            fault_injector=inj,
        )
        assert res.results == {i: i * i for i in range(5)}
        assert res.attempts[2] >= 2

    def test_a_queued_submission_is_not_charged_for_waiting(self):
        # One worker: task 2 must not wait out its deadline queued behind
        # the hung task 1.
        res = run_tasks_parallel(
            _slow_task_one,
            [0, 1, 2],
            workers=1,
            backend="process",
            failure_policy="degrade",
            max_retries=0,
            task_timeout=0.1,
        )
        assert res.abandoned == [1]
        assert res.results == {0: 0, 2: 2}

    def test_timeout_validation(self):
        with pytest.raises(ValueError):
            run_tasks_parallel(_square, [1], workers=1, task_timeout=0.0)
        # Only a process can be pre-empted, in the pool and in a request.
        for backend in ("inline", "thread"):
            with pytest.raises(ValueError, match="backend='process'"):
                run_tasks_parallel(_square, [1], backend=backend, task_timeout=1.0)
            with pytest.raises(ValueError, match="backend='process'"):
                PlanRequest(execution=ExecutionPolicy(mode="local", backend=backend),
                            faults=FaultPolicy(task_timeout=1.0)).validate()
        with pytest.raises(ValueError):
            run_tasks_parallel(_square, [1], workers=1, failure_policy="panic")
        with pytest.raises(ValueError):
            run_tasks_parallel(_square, [1], workers=1, max_retries=-1)


class TestChaosParity:
    """Retries must not perturb results: a faulty run with retries enabled
    produces the same results dict as the fault-free run."""

    @pytest.mark.parametrize("policy", ["retry", "degrade"])
    def test_attempt0_faults_do_not_perturb_results(self, policy):
        clean = run_tasks_parallel(_square, list(range(12)), workers=3)
        inj = FaultInjector(
            [
                Fault("raise", task=2, attempt=0),
                Fault("raise", task=7, attempt=0),
                Fault("crash", task=10, attempt=0),
            ]
        )
        chaotic = run_tasks_parallel(
            _square,
            list(range(12)),
            workers=3,
            failure_policy=policy,
            fault_injector=inj,
        )
        assert chaotic.results == clean.results
        assert chaotic.abandoned == []

    def test_fail_fast_parity_without_faults(self):
        # fail_fast with an injector that never fires must equal the
        # fault-free fast path.
        clean = run_tasks_parallel(_square, list(range(12)), workers=3)
        armed = run_tasks_parallel(
            _square,
            list(range(12)),
            workers=3,
            failure_policy="fail_fast",
            fault_injector=FaultInjector(),
        )
        assert armed.results == clean.results
        assert armed.attempts == clean.attempts

    def test_bernoulli_chaos_with_fixed_seed_is_deterministic(self):
        inj_args = dict(rate=0.4, seed=11)
        runs = [
            run_tasks_parallel(
                _square,
                list(range(20)),
                workers=4,
                failure_policy="retry",
                fault_injector=FaultInjector(**inj_args),
            )
            for _ in range(2)
        ]
        assert runs[0].results == runs[1].results == {i: i * i for i in range(20)}
        assert runs[0].attempts == runs[1].attempts


class TestEdgeCases:
    def test_empty_task_list_resilient(self):
        res = run_tasks_parallel(
            _square, [], workers=2, failure_policy="retry", fault_injector=FaultInjector()
        )
        assert res.results == {}
        assert res.slowest_task() is None
        assert res.complete

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            run_tasks_parallel(_square, [1], workers=0, failure_policy="retry")

    def test_callable_returning_none_is_not_a_failure(self):
        res = run_tasks_parallel(
            _none_task, list(range(4)), workers=2, failure_policy="retry"
        )
        assert res.results == {i: None for i in range(4)}
        assert res.retries == 0
        assert res.attempts == {i: 1 for i in range(4)}

    def test_chunked_resilient_dispatch(self):
        inj = FaultInjector([Fault("raise", task=5, attempt=0)])
        res = run_tasks_parallel(
            _square,
            list(range(10)),
            workers=2,
            chunksize=3,
            failure_policy="retry",
            fault_injector=inj,
        )
        assert res.results == {i: i * i for i in range(10)}
        # Only the faulty task is retried, not its whole chunk.
        assert res.attempts[5] == 2
        assert all(res.attempts[t] == 1 for t in range(10) if t != 5)


class TestFaultObservability:
    def test_trace_tells_the_failure_story(self):
        tr = Tracer()
        inj = FaultInjector(
            [
                Fault("raise", task=1, attempt=0),
                Fault("crash", task=4, attempt=0),
            ]
        )
        res = run_tasks_parallel(
            _square,
            list(range(8)),
            workers=2,
            failure_policy="retry",
            fault_injector=inj,
            tracer=tr,
        )
        names = [e.name for e in tr.memory.events]
        assert EV_TASK_RETRY in names
        assert EV_WORKER_DEATH in names
        s = summarize_events(tr.memory.events)
        assert s.tasks_executed == 8
        assert s.task_retries >= 2
        assert s.worker_deaths == 1
        assert_trace_matches_pool(tr.memory.events, res)

    def test_abandonment_is_traced(self):
        tr = Tracer()
        inj = FaultInjector([Fault("raise", task=0, attempt=a) for a in range(4)])
        res = run_tasks_parallel(
            _square,
            [0, 1],
            workers=1,
            failure_policy="degrade",
            max_retries=1,
            fault_injector=inj,
            tracer=tr,
        )
        assert res.abandoned == [0]
        names = [e.name for e in tr.memory.events]
        assert EV_TASK_ABANDONED in names
        s = summarize_events(tr.memory.events)
        assert s.tasks_abandoned == 1
        assert s.abandoned_tasks == [0]

    def test_injected_fault_exception_type(self):
        inj = FaultInjector([Fault("raise", task=0, attempt=0)])
        with pytest.raises(TaskFailedError) as err:
            run_tasks_parallel(_square, [0], workers=1, fault_injector=inj)
        assert "InjectedFault" in str(err.value.cause)


class TestBlockChunks:
    """Chunks offered to ``fn.run_block`` (see ``tests/test_local_pool.py``)
    fail, retry and abandon per task, as the per-task loop does."""

    def test_a_declined_block_and_an_installed_injector_take_the_loop(self):
        tasks = list(range(6))
        declined = run_tasks_parallel(_BlockTask(decline=True), tasks, workers=2, chunksize=3)
        assert declined.results == {tid: ("task", tid) for tid in tasks}
        idle = FaultInjector([Fault("raise", task=99, attempt=0)])
        injected = run_tasks_parallel(
            _BlockTask(), tasks, workers=2, chunksize=3, fault_injector=idle
        )
        assert injected.results == {tid: ("task", tid) for tid in tasks}

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_a_block_that_raises_is_rerun_task_by_task(self, backend):
        """Failure accounting stays per task: exactly what ``chunksize=1``
        reports for the same poisoned task."""
        tasks, kwargs = list(range(8)), dict(workers=2, backend=backend)
        fn = _BlockTask(poison=5)
        for chunksize in (1, 4):
            res = run_tasks_parallel(
                fn, tasks, chunksize=chunksize, failure_policy="degrade", max_retries=2, **kwargs
            )
            assert res.abandoned == [5] and res.retries == 2
            assert res.attempts == {**{tid: 1 for tid in tasks}, 5: 3}
            # The poisoned chunk came back from the loop, its neighbour as a block.
            path = "task" if chunksize == 1 else "block"
            assert res.results == {
                **{tid: (path, tid) for tid in (0, 1, 2, 3)},
                **{tid: ("task", tid) for tid in (4, 6, 7)},
            }
            with pytest.raises(TaskFailedError) as err:
                run_tasks_parallel(
                    fn, tasks, chunksize=chunksize, failure_policy="retry", max_retries=1, **kwargs
                )
            assert (err.value.task, err.value.attempts) == (5, 2)
            with pytest.raises(RuntimeError, match="task 5 exploded"):
                run_tasks_parallel(fn, tasks, chunksize=chunksize, **kwargs)
