"""``sim_secure`` and ``sim_population``: catalogue scenarios on the
surrogate fleet, through :func:`repro.sim.scenarios.run_scenario`.

One unit of work is one complete scenario run with a fresh memmap user
store.  Every unit of a run uses the same seed, so the units double as
the same-seed determinism check on ``param_digest`` and the counters.
"""

from __future__ import annotations

import gc
import shutil
import time

from perfbench import settings
from perfbench.common import (
    AggregationClock,
    Result,
    Run,
    median,
    peak_rss_mb,
    percentile,
    round_latencies,
    run_units,
    timed_repeats,
)
from perfbench.metrics import SECURE_PHASES
from perfbench.tracing import span_of
from repro.federated.secure_agg import FixedPointCodec, SecureAggregationConfig
from repro.sim.config import SimulationConfig
from repro.sim.population import SurrogateFleet
from repro.sim.scenarios import build_scenario, run_scenario
from repro.sim.secure import SecureAggregatingBackend


def _spec(sizes: dict, seed: int):
    base = SimulationConfig(
        num_clients=sizes["clients"],
        clients_per_round=sizes["cohort"],
        num_items=sizes["items"],
        dim=sizes["dim"],
        seed=seed,
    )
    return build_scenario(sizes["scenario"], base)


def _setup(run: Run, sizes: dict, clock: AggregationClock):
    """Build the scenario, then run it once over two cohorts.

    The small run finishes lazy set-up (imports inside the simulator,
    code paths, allocator arenas) before anything is timed; it counts as
    set-up so that work moved into it shows in ``setup_s``.
    """
    _unit(run, _spec(dict(sizes, clients=2 * sizes["cohort"]), run.seed), clock, -1)
    return _spec(sizes, run.seed)


def _unit(run: Run, spec, clock: AggregationClock, index: int, tracer=None) -> dict:
    store = run.scratch(f"store{index}")
    gc.collect()  # every unit starts from a heap without earlier units' garbage
    clock.start()
    start = time.perf_counter()
    with span_of(tracer, f"{run.workload}.run_scenario"):
        result = run_scenario(spec, store_dir=str(store))
    wall = time.perf_counter() - start
    rounds = clock.intervals()
    shutil.rmtree(store, ignore_errors=True)
    return {"result": result, "wall": wall, "rounds": rounds}


def _wire_per_client(result) -> float:
    protocol = sum(result.secure_phase_wire.values())
    return (result.network.total_bytes + protocol) / result.clients_simulated


def _counters(result) -> dict:
    """The integer counters that must repeat exactly for one seed."""
    return {
        "param_digest": result.param_digest,
        "sim.events": result.events_processed,
        "sim.updates_aggregated": result.updates_aggregated,
        "sim.dropped_updates": result.dropped_updates,
        "wire_scalars_per_client": _wire_per_client(result),
        **{f"secure.wire.{p}": result.secure_phase_wire.get(p, 0.0) for p in SECURE_PHASES},
    }


def repeat_problems(units: list) -> list:
    first = _counters(units[0]["result"])
    problems = []
    for i, unit in enumerate(units[1:], start=1):
        for name, value in _counters(unit["result"]).items():
            if value != first[name]:
                problems.append(f"unit {i}: {name} {value!r} != {first[name]!r}")
    return problems


def secure_problems(result, cohort: int) -> list:
    """Conservation within the fixed-point bound, and faults where promised."""
    config = SecureAggregationConfig()
    bound = FixedPointCodec(
        config.precision_bits, config.clip_range
    ).quantisation_error_bound()
    # An applied round merges at most its own cohort plus the updates an
    # aborted round carried into it.
    limit = bound * 2 * cohort
    problems = []
    if not result.secure_max_sum_error <= limit:
        problems.append(
            f"secure_max_sum_error {result.secure_max_sum_error:.3e} exceeds "
            f"the fixed-point bound {limit:.3e}"
        )
    if result.secure_rounds_applied < 1:
        problems.append("no secure round was applied")
    if result.secure_rounds_aborted < 1:
        problems.append("no abort storm was exercised")
    quiet = [p for p in SECURE_PHASES if not result.secure_dropouts_injected.get(p)]
    if quiet:
        problems.append(f"no dropouts injected at phase(s) {quiet}")
    return problems


def _attach(tracer, secure: bool) -> None:
    from repro.sim.async_server import AsyncFedServer
    from repro.sim.user_store import MemmapUserStore

    tracer.wrap_method(AsyncFedServer, "run", "sim.server.run")
    tracer.wrap_method(SurrogateFleet, "train", "sim.fleet.train")
    tracer.wrap_method(SurrogateFleet, "apply", "sim.fleet.apply")
    tracer.wrap_method(MemmapUserStore, "read", "sim.store.read")
    tracer.wrap_method(MemmapUserStore, "write", "sim.store.write")
    if not secure:
        return
    from repro.federated import secure_protocol
    from repro.federated.secure_agg import pairwise_mask

    client = secure_protocol.SecureAggregationClient
    tracer.wrap_method(SecureAggregatingBackend, "apply", "sim.secure_backend.apply")
    tracer.wrap_function(secure_protocol.run_secure_round, "secure.round")
    tracer.wrap_method(client, "advertise", "secure.advertise")
    tracer.wrap_method(client, "make_shares", "secure.make_shares")
    tracer.wrap_method(client, "receive_shares", "secure.receive_shares")
    tracer.wrap_method(client, "masked_input", "secure.masked_input")
    tracer.wrap_method(client, "unmask_response", "secure.unmask_response")
    tracer.wrap_method(secure_protocol.SecureAggregationServer, "finalize", "secure.finalize")
    tracer.wrap_function(pairwise_mask, "secure.pairwise_mask")


def _traced_units(run: Run, spec, clock, result: Result, secure: bool) -> list:
    """An untraced unit, then the same unit traced; fills ``per_layer``."""
    baseline = _unit(run, spec, clock, 0)
    tracer = run.tracer
    _attach(tracer, secure)
    try:
        traced = _unit(run, spec, clock, 1, tracer)
    finally:
        tracer.restore()
    table = tracer.layer_table()
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    row = lambda name: table.get(name, empty)  # noqa: E731
    scenario = traced["result"]
    layers = {
        "trace.wall_s": traced["wall"],
        "trace.overhead_s": traced["wall"] - baseline["wall"],
        "wire_scalars_per_client": _wire_per_client(scenario),
        "failed_ratio": scenario.dropped_updates / scenario.clients_simulated,
        "sim.fleet_train_s": row("sim.fleet.train")["busy_s"],
        "sim.fleet_apply_s": row("sim.fleet.apply")["busy_s"],
        "sim.store_read_s": row("sim.store.read")["busy_s"],
        "sim.store_write_s": row("sim.store.write")["busy_s"],
        "sim.events": scenario.events_processed,
        "sim.rounds_applied": scenario.rounds_applied,
        "sim.updates_aggregated": scenario.updates_aggregated,
        "sim.dropped_updates": scenario.dropped_updates,
        "sim.server_self_s": row("sim.server.run")["self_s"],
    }
    if secure:
        layers.update({
            "secure.advertise_s": row("secure.advertise")["busy_s"],
            "secure.shares_s": row("secure.make_shares")["busy_s"]
            + row("secure.receive_shares")["busy_s"],
            "secure.masked_input_s": row("secure.masked_input")["busy_s"],
            "secure.unmask_s": row("secure.unmask_response")["busy_s"],
            "secure.finalize_s": row("secure.finalize")["busy_s"],
            "secure.pair_mask_s": row("secure.pairwise_mask")["busy_s"],
            "secure.rounds": scenario.secure_rounds_applied,
            "secure.aborts": scenario.secure_rounds_aborted,
            "secure.pair_masks": row("secure.pairwise_mask")["calls"],
            **{
                f"secure.wire.{p}": scenario.secure_phase_wire.get(p, 0.0)
                for p in SECURE_PHASES
            },
        })
    result.per_layer.update(layers)
    return [baseline, traced]


def _run(run: Run, secure: bool) -> Result:
    sizes = settings.sizes(run.workload, run.toy)
    result = Result(inputs={
        "scenario": sizes["scenario"], "clients": sizes["clients"],
        "cohort": sizes["cohort"], "items": sizes["items"], "dim": sizes["dim"],
        "secure_aggregation": secure,
    })
    clock = AggregationClock(SecureAggregatingBackend if secure else SurrogateFleet, "apply")
    try:
        setups, spec = timed_repeats(
            lambda: _setup(run, sizes, clock), sizes["setup_repeats"]
        )
        if run.trace:
            units = _traced_units(run, spec, clock, result, secure)
        else:
            units = run_units(
                run, lambda i: _unit(run, spec, clock, i), settings.MIN_UNITS
            )
    finally:
        clock.close()

    result.check("same_seed_runs_repeat_exactly", repeat_problems(units))
    if secure:
        result.check(
            "secure_sum_within_fixed_point_bound",
            [p for unit in units for p in secure_problems(unit["result"], sizes["cohort"])],
        )
    scenario = units[-1]["result"]
    rounds = round_latencies([unit["rounds"] for unit in units])
    result.attempted = sum(unit["result"].clients_simulated for unit in units)
    result.end_to_end = {
        "setup_s": run.import_s + median(setups),
        "result_s": median([unit["wall"] for unit in units]),
        "throughput_per_s": median(
            [unit["result"].clients_simulated / unit["wall"] for unit in units]
        ),
        "latency_p50_ms": 1e3 * percentile(rounds, 50),
        "latency_p90_ms": 1e3 * percentile(rounds, 90),
        "peak_rss_mb": peak_rss_mb(),
    }
    result.samples = {
        "import_s": [run.import_s],
        "setup_s": setups,
        "scenario_s": [unit["wall"] for unit in units],
        "round_s": [unit["rounds"] for unit in units],
    }
    result.report = {
        "sim_clients_per_s": (result.end_to_end["throughput_per_s"], "1/s"),
        "wire_scalars_per_client": (_wire_per_client(scenario), "scalars"),
        "failed_ratio": (scenario.dropped_updates / scenario.clients_simulated, "ratio"),
        "events": (scenario.events_processed, "count"),
        "updates_aggregated": (scenario.updates_aggregated, "count"),
        "rounds_per_unit": (len(rounds), "count"),
        "units": (len(units), "count"),
    }
    if secure:
        result.report["secure_max_sum_error"] = (scenario.secure_max_sum_error, "abs")
    return result


def run_secure(run: Run) -> Result:
    return _run(run, secure=True)


def run_population(run: Run) -> Result:
    return _run(run, secure=False)
