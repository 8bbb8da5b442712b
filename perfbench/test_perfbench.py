"""Tests of the benchmark's tracer and its pinned counts.

    python3 -m pytest -q perfbench

Each workload runs one traced operation twice in this process (about 25 s,
most of it one verify call per run).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import worker  # noqa: E402

worker._import_statvac()

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

# Counts that must repeat exactly for a seed; later changes claim changes
# of these as counts.
EXACT = ("spherical.tables_mb", "boundary.solve_calls",
         "curvature.small_sphere_data_calls", "oracles.metric_evals",
         "oracles.fd_ricci_calls", "oracles.christoffel_calls")


def traced_run(name, seed, workdir):
    """Set-up plus one operation on input 0, traced; returns the tracer."""
    workload = workloads.WORKLOADS[name]()
    tracer = Tracer()
    with tracer:
        workload.setup()
    workload.generate(seed, workdir)
    with tracer:
        result = worker._loop(workload, 0.0, same_input=True, tracer=tracer)
    assert result["failures"] == []
    return tracer


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("inputs")
    out = {}
    for name in workloads.WORKLOADS:
        pair = []
        for _ in range(2):
            tracer = traced_run(name, 3, workdir)
            pair.append((tracer.layer_metrics(1), tracer.target_calls))
        out[name] = pair
    return out


# Traced targets that no workload reaches: no statvac code calls
# HarmonicExterior.evaluate (only the library's tests do).
UNREACHED = {"statvac.boundary:HarmonicExterior.evaluate"}


def test_every_target_produced_spans(runs):
    called = set()
    for pair in runs.values():
        called.update(pair[0][1])
    missing = {target for target, _, _ in TARGETS if target not in called}
    assert missing == UNREACHED


def test_exact_counts_repeat(runs):
    for name, ((first, _), (second, _)) in runs.items():
        for metric in EXACT:
            assert first[metric] == second[metric], (name, metric)


def test_pinned_counts(runs):
    sweep = runs["small_sphere_l16"][0][0]
    assert sweep["boundary.solve_calls"] == len(workloads.SWEEP_TAUS) + 2 == 34
    assert sweep["curvature.small_sphere_data_calls"] == 34
    fields = runs["fields_l48"][0][0]
    assert fields["spherical.tables_mb"] * 1e6 == 8 * 2401 * 4753 * 8
    assert fields["boundary.solve_calls"] == 1
    assert fields["curvature.small_sphere_data_calls"] == 0
    verify = runs["verify_l16"][0][0]
    assert verify["spherical.offgrid_calls"] > 0
    assert runs["small_sphere_l16"][0][0]["spherical.offgrid_calls"] == 0


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    selfs = tracer.self_times()
    assert selfs[1] == inner[2] - inner[1]
    assert selfs[0] == pytest.approx((outer[2] - outer[1]) - (inner[2] - inner[1]))


def test_uninstall_restores_originals():
    from statvac import mass
    from statvac.spherical.grid import SphereGrid
    before = (mass.solve_boundary_system, SphereGrid.__dict__["_tables"])
    with Tracer():
        assert mass.solve_boundary_system is not before[0]
    assert (mass.solve_boundary_system, SphereGrid.__dict__["_tables"]) == before


class _BrokenCheck:
    """A workload whose output check cannot read the output."""

    def run(self, i):
        return "{}"

    def check(self, text, i):
        return [json.loads(text)["report"]]


def test_check_that_raises_is_a_failed_operation():
    result = worker._loop(_BrokenCheck(), 0.0)
    assert result["failed"] == 1
    assert result["failures"][0].startswith("op 0: check raised KeyError")


@pytest.fixture
def stub_worker(monkeypatch, tmp_path):
    """Replace the worker process by a stub; returns the timeouts it got."""
    timeouts = []

    def fake_run(cmd, timeout, **kwargs):
        timeouts.append(timeout)
        out = {"setup_s": 1.0}
        if "--setup-only" not in cmd:
            out.update(untraced={"latencies": [0.7, 0.5, 0.6], "failures": [],
                                 "failed": 0, "elapsed": 300.0},
                       peak_rss_mb=100.0, provenance={})
        return subprocess.CompletedProcess(cmd, 0, json.dumps(out) + "\n", "")

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    monkeypatch.setattr(run, "_git_commit", lambda: None)
    monkeypatch.setattr(run, "OUT", tmp_path)
    return timeouts


def test_deadline_follows_run_length(stub_worker):
    summary, _ = run.run_workload("verify_l16", 0, 300, trace=False)
    assert summary["failed"] == 0
    assert len(stub_worker) == run.SETUP_RUNS and min(stub_worker) > 300


def test_result_line_holds_the_bounded_metrics(stub_worker):
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    summary, _ = run.run_workload("small_sphere_l16", 0, 30, trace=False)
    metrics = summary["metrics"]
    assert list(metrics) == [m["name"] for m in spec["end_to_end"]]
    assert {m: v["unit"] for m, v in metrics.items()} == run.END_TO_END
    assert metrics["op_p50_ms"]["value"] == pytest.approx(600.0)
    assert metrics["ops_per_s"]["value"] == pytest.approx(3 / 300.0)
