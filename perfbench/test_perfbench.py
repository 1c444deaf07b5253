"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest -q perfbench

They run every workload at its quick size, check the result format, show
that injected faults raise the error rate, and that a new seed changes the
inputs but not the metric names.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads
from trustmarket import engine, eventlog, sim

BENCH = Path(__file__).resolve().parent
SPECS = run.metric_specs()


def _quick(workload, seed=1, traced=False):
    return run.measure(workload, seed, 0.2, traced, "quick")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_quick_run_reports_every_metric_without_errors(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, cwd=BENCH.parent, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stderr
    specs = SPECS["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: spec["unit"] for name, spec in specs.items()}
    for name, metric in result["metrics"].items():
        assert metric["unit"] in proc.stdout.split(f"  {name} ")[1].splitlines()[0]
        if not trace:
            assert metric["value"] > 0, name


def test_traced_run_restores_every_original():
    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr, _ in tracing.TARGETS]
    imported = (sim.compute_opinion, sim.weighted_reputation,
                eventlog._parse_line)
    result = _quick("ledger-cli", traced=True)
    assert result["failed"] == 0
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, attr
    assert (sim.compute_opinion, sim.weighted_reputation,
            eventlog._parse_line) == imported


def _nudged(compute):
    def nudged(*args, **kwargs):
        opinion = compute(*args, **kwargs)
        return dataclasses.replace(opinion,
                                   recommended=opinion.recommended + 1e-6)
    return nudged


def test_nudged_opinion_score_fails_dense_opinions(monkeypatch):
    monkeypatch.setattr(engine, "compute_opinion",
                        _nudged(engine.compute_opinion))
    assert _quick("dense-opinions")["failed"] > 0


def test_nudged_opinion_score_fails_ledger_cli(monkeypatch):
    from trustmarket import cli
    monkeypatch.setattr(cli, "compute_opinion", _nudged(cli.compute_opinion))
    assert _quick("ledger-cli")["failed"] > 0


def test_dropped_ledger_append_fails_ledger_cli(monkeypatch):
    append = eventlog.EventLog.append
    dropped = []

    def drop_first(self, kind, payload, at=None):
        if self.path.name == "ledger.jsonl" and not dropped:
            dropped.append(kind)
            return None
        return append(self, kind, payload, at)
    monkeypatch.setattr(eventlog.EventLog, "append", drop_first)
    assert _quick("ledger-cli")["failed"] > 0
    assert dropped


def test_changed_simulation_fails_stored_digest(monkeypatch):
    score_view = sim.score_view
    monkeypatch.setattr(sim, "score_view",
                        lambda *args: score_view(*args) * 0.999)
    assert _quick("sim-compare", seed=workloads.DEFAULT_SEED)["failed"] > 0


def _inputs(name, seed, tmp_path):
    """What a workload's set-up generates, as comparable data."""
    ctx = workloads.WORKLOADS[name]().setup(seed, "quick", tmp_path)
    if name == "sim-compare":
        return [scenario.to_dict() for scenario in ctx["scenarios"]]
    if name == "ledger-cli":
        return ctx["pristine"].read_bytes(), [argv for _, argv, _ in
                                              ctx["commands"]]
    return sorted(ctx["store"].snapshot().items()), ctx["ops"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_new_seed_changes_inputs_not_metric_names(workload, tmp_path):
    assert _inputs(workload, 1, tmp_path) == _inputs(workload, 1, tmp_path)
    assert _inputs(workload, 1, tmp_path) != _inputs(workload, 2, tmp_path)
    for traced in (False, True):
        first, second = _quick(workload, 1, traced), _quick(workload, 2, traced)
        assert first["failed"] == second["failed"] == 0
        assert set(first["metrics"]) == set(second["metrics"])


def test_scaling_applies_each_pass_factor_to_its_own_samples():
    tally = workloads.Tally()
    for wall, reads, rate in ((10, [1, 2], 100.0), (20, [3], 50.0)):
        tally.walls.append(wall)
        tally.read += reads
        tally.write += reads
        tally.rates.append(rate)
        tally.end_pass()
    scaled = tally.scaled([2.0, 0.5])
    assert scaled.walls == [20.0, 10.0]
    assert scaled.read == scaled.write == [2.0, 4.0, 1.5]
    assert scaled.rates == [50.0, 100.0]
