"""End-to-end tests of the `python -m repro.obs` CLI."""

import os
import subprocess
import sys

import pytest

from repro import (
    ExecutionPolicy,
    JsonlSink,
    ObsConfig,
    PlanRequest,
    Tracer,
    WorkloadSpec,
    plan,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.obs", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "trace.jsonl"
    tracer = Tracer(sinks=[JsonlSink(path)])
    plan(
        PlanRequest(
            workload=WorkloadSpec(num_regions=64, samples_per_region=4, seed=3),
            execution=ExecutionPolicy(strategy="rand-8", num_pes=8),
            obs=ObsConfig(tracer=tracer),
        )
    )
    tracer.close()
    return path


def test_summarize(trace_path):
    proc = _run_cli("summarize", str(trace_path))
    assert proc.returncode == 0, proc.stderr
    for needle in ("construct", "connect", "Work stealing", "Fig. 7a", "Fig. 9"):
        assert needle in proc.stdout


def test_events(trace_path):
    proc = _run_cli("events", str(trace_path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) > 10
    assert any("span_begin" in ln and "subdivide" in ln for ln in lines)


def test_usage_errors():
    assert _run_cli().returncode == 2
    assert _run_cli("frobnicate", "x.jsonl").returncode == 2
    assert _run_cli("summarize").returncode == 2
    assert _run_cli("--help").returncode == 0


def test_missing_file():
    proc = _run_cli("summarize", "/nonexistent/trace.jsonl")
    assert proc.returncode == 1
    assert "error reading trace" in proc.stderr


def test_semantically_invalid_trace(tmp_path):
    bad = tmp_path / "unclosed.jsonl"
    bad.write_text('{"ts": 0.0, "kind": "span_begin", "name": "construct"}\n')
    proc = _run_cli("summarize", str(bad))
    assert proc.returncode == 1
    assert "invalid trace" in proc.stderr and "unclosed" in proc.stderr
