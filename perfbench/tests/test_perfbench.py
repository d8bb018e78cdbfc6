"""The benchmark's own tests, at toy scale (``--toy``).

Each workload runs in its own process, as the benchmark runs it; runs
are cached per (workload, trace, seed) so the checks below share them.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import metrics, serve, settings, sim
from perfbench.common import topk_problems
from perfbench.run import WORKLOADS, attribution_problems
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]
RUNNER = ROOT / "perfbench" / "run.py"


@functools.lru_cache(maxsize=None)
def _run(workload: str, trace: int, seed: int = 3):
    completed = subprocess.run(
        [sys.executable, str(RUNNER), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
    return completed.returncode, json.loads(lines[-1]), detail, completed.stderr


def test_benchmark_json_lists_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_and_prints_the_catalogue(workload, trace):
    code, result, detail, stderr = _run(workload, trace)
    assert code == 0, stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert all(not problem for problem in detail["checks"].values())
    catalogue = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(result["metrics"]) == list(catalogue)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == catalogue[name][0]
        if not trace:
            assert entry["value"] > 0, name


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_self_times_account_for_wall_time(workload):
    _code, result, detail, _stderr = _run(workload, 1)
    accounting = detail["trace_accounting"]
    assert accounting
    for root in accounting.values():
        assert root["self_sum_s"] == pytest.approx(root["wall_s"], rel=1e-9)
    ratio = result["metrics"]["trace.attributed_ratio"]["value"]
    assert settings.ATTRIBUTED_FLOOR <= ratio <= 1.0
    assert detail["checks"]["trace_accounts_for_wall_time"] == ""
    trace = ROOT / "perfbench" / "_out" / f"trace-{workload}-seed3.json"
    events = json.loads(trace.read_text())["traceEvents"]
    assert any(event["ph"] == "X" for event in events)


@pytest.mark.parametrize(
    "workload, counters",
    [
        ("train_paper", ["autograd.tape_nodes_per_round", "wire_scalars_per_client"]),
        ("sim_secure", ["wire_scalars_per_client", "secure.pair_masks", "sim.events",
                        "sim.updates_aggregated"]
         + [f"secure.wire.{phase}" for phase in metrics.SECURE_PHASES]),
        ("sim_population", ["wire_scalars_per_client", "sim.events",
                            "sim.updates_aggregated"]),
    ],
)
def test_integer_counters_repeat_for_a_seed(workload, counters):
    first = _run(workload, 1)[1]["metrics"]
    code, second, _detail, stderr = _run.__wrapped__(workload, 1)  # a fresh process
    assert code == 0, stderr
    second = second["metrics"]
    for name in counters:
        assert first[name]["value"] > 0, name
        assert second[name]["value"] == first[name]["value"], name


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


# ----------------------------------------------------------------------
# the checks turn red on corrupted outputs
# ----------------------------------------------------------------------
def test_topk_check_rejects_a_corrupted_answer():
    row = np.array([0.1, 0.9, 0.5, 0.7, 0.3, 0.8])
    items, scores = np.array([1, 5, 3]), np.array([0.9, 0.8, 0.7])
    assert topk_problems(0, items, scores, row, None, 3) == []
    assert topk_problems(0, np.array([1, 5, 2]), np.array([0.9, 0.8, 0.5]), row, None, 3)
    assert topk_problems(0, items, scores + 1e-3, row, None, 3)
    assert topk_problems(0, items, scores, row, np.array([5]), 3)
    assert topk_problems(0, items[::-1], scores[::-1], row, None, 3)


class _Network:
    total_bytes = 100.0


class _Scenario:
    def __init__(self, **fields):
        self.param_digest = "abc"
        self.events_processed = 10
        self.updates_aggregated = 8
        self.dropped_updates = 1
        self.clients_simulated = 10
        self.network = _Network()
        self.secure_phase_wire = {"advertise": 1.0}
        self.secure_max_sum_error = 1e-9
        self.secure_rounds_applied = 2
        self.secure_rounds_aborted = 1
        self.secure_dropouts_injected = {p: 1 for p in metrics.SECURE_PHASES}
        self.__dict__.update(fields)


def test_secure_check_rejects_a_corrupted_sum():
    assert sim.secure_problems(_Scenario(), cohort=64) == []
    assert sim.secure_problems(_Scenario(secure_max_sum_error=1.0), cohort=64)
    assert sim.secure_problems(_Scenario(secure_rounds_aborted=0), cohort=64)


def test_repeat_check_rejects_a_different_digest():
    same = [{"result": _Scenario()}, {"result": _Scenario()}]
    assert sim.repeat_problems(same) == []
    assert sim.repeat_problems([{"result": _Scenario()},
                                {"result": _Scenario(param_digest="abd")}])
    assert sim.repeat_problems([{"result": _Scenario()},
                                {"result": _Scenario(events_processed=11)}])


def test_stale_check_rejects_an_old_answer_after_cutover():
    step = serve.Step(500.0, np.zeros(1), np.zeros(1), np.zeros(1),
                      np.zeros(1, dtype=bool), 1.0, batches=[(2.0, 2.1, 1, 2)])
    ladder = {"swaps": [(1.0, 1.5, 2)], "steps": [step], "tiers": {},
              "swap_errors": [], "swapper_alive": False}
    assert serve.stale_problems(ladder) == []
    step.batches.append((3.0, 3.1, 1, 1))
    assert serve.stale_problems(ladder)


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
def test_self_times_sum_to_the_root():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("idle"):
            pass
    table = tracer.layer_table()
    root = tracer.accounting()["root"]
    assert root["self_sum_s"] == root["wall_s"] == 7.0
    assert table["a"] == {"calls": 1, "busy_s": 3.0, "self_s": 2.0}
    assert root["attributed"] == pytest.approx(4.0 / 7.0)


def test_attribution_check_rejects_unaccounted_time():
    assert attribution_problems(1.0) == []
    assert attribution_problems(settings.ATTRIBUTED_FLOOR) == []
    assert attribution_problems(settings.ATTRIBUTED_FLOOR - 0.01)


def test_wrapping_is_undone():
    class Thing:
        def work(self, n):
            return n * 2

    tracer = Tracer()
    tracer.wrap_method(Thing, "work", "thing.work", size=lambda _self, n: n)
    assert Thing().work(4) == 8
    tracer.restore()
    assert Thing.__dict__["work"].__name__ == "work" and not hasattr(Thing.work, "__wrapped__")
    assert tracer.counts["thing.work"] == 4 and tracer.layer_table()["thing.work"]["calls"] == 1
