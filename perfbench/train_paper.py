"""``train_paper``: full HeteFedRec (UDL + DDR + RESKD), ncf, paper defaults.

One unit of work is ``fit()`` of a freshly built trainer over the
ML-1M-shaped synthetic split: every client trained once per epoch in
cohorts of 256 (4 local epochs, 1:4 negatives), RESKD after the epoch,
blocked full-ranking evaluation and the final autosave checkpoint.
Every unit repeats the same seeded computation, so the units double as
a determinism check.
"""

from __future__ import annotations

import gc
import os
import time
import tracemalloc

import numpy as np

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
    topk_problems,
)
from perfbench.tracing import span_of
from repro.api import (
    Evaluator,
    HeteFedRecConfig,
    QueryRequest,
    SyntheticConfig,
    build_method,
    fit,
    load_benchmark_dataset,
    serve,
    train_test_split_per_user,
)
from repro.federated.trainer import FederatedTrainer


class _Inputs:
    def __init__(self, sizes: dict, seed: int) -> None:
        dataset = load_benchmark_dataset(
            "ml",
            SyntheticConfig(
                scale=sizes["users"] / settings.ML1M_USERS,
                item_scale=sizes["items"] / settings.ML1M_ITEMS,
                seed=seed,
            ),
        )
        self.num_items = dataset.num_items
        self.clients = train_test_split_per_user(dataset, seed=seed)
        self.evaluator = Evaluator(self.clients, k=sizes["eval_k"])
        self.sizes = sizes
        self.seed = seed

    def config(self, checkpoint_path=None, epochs=None) -> HeteFedRecConfig:
        sizes = self.sizes
        epochs = sizes["epochs"] if epochs is None else epochs
        return HeteFedRecConfig(
            arch="ncf",
            dims=dict(sizes["dims"]),
            epochs=epochs,
            clients_per_round=sizes["clients_per_round"],
            local_epochs=sizes["local_epochs"],
            negative_ratio=sizes["negative_ratio"],
            eval_every=epochs,
            eval_k=sizes["eval_k"],
            seed=self.seed,
            checkpoint_path=checkpoint_path,
            checkpoint_every=epochs if checkpoint_path else 0,
        )

    def trainer(self, checkpoint_path=None):
        return build_method(
            "hetefedrec", self.num_items, self.clients, self.config(checkpoint_path)
        )

    def one_round_trainer(self, checkpoint_path=None):
        """A trainer whose single epoch is one cohort: a round's worth of work."""
        config = self.config(checkpoint_path, epochs=1)
        trainer = build_method("hetefedrec", self.num_items, self.clients, config)
        cohort = [c.user_id for c in self.clients[: config.clients_per_round]]
        trainer.participation_source = lambda _trainer, _epoch: [cohort]
        return trainer

    def warmup(self, checkpoint_path: str) -> None:
        """One round, evaluation and checkpoint, untimed."""
        fit(self.one_round_trainer(checkpoint_path), self.evaluator)


def _fit_unit(inputs: _Inputs, clock: AggregationClock, path: str, tracer=None):
    """One timed ``fit()``; returns (figures, trainer)."""
    trainer = inputs.trainer(path)
    gc.collect()  # every unit starts from a heap without earlier units' garbage
    clock.start()
    start = time.perf_counter()
    with span_of(tracer, "train_paper.fit"):
        history = fit(trainer, inputs.evaluator)
    fit_s = time.perf_counter() - start
    rounds = clock.intervals()
    record = history.records[-1]
    meter = trainer.meter
    return {
        "fit_s": fit_s,
        "rounds": rounds,
        "clients": meter.client_rounds,
        "clients_per_s": meter.client_rounds / sum(rounds),
        "recall": float(record.recall),
        "ndcg": float(record.ndcg),
        "wire": float(meter.total) / meter.client_rounds,
        "dropped": int(meter.dropped_updates),
        "checkpoint": path,
    }, trainer


def _served_matches_trainer(inputs: _Inputs, checkpoint: str, trainer, seed: int) -> list:
    """The served-vs-trainer contract on a seeded sample of users."""
    k = inputs.sizes["eval_k"]
    history = {c.user_id: c.train_items for c in inputs.clients}
    service = serve(checkpoint, k=k, history=history, exclude_seen=True)
    rng = np.random.default_rng(seed + 101)
    sample = rng.choice(len(inputs.clients), size=inputs.sizes["check_users"], replace=False)
    clients = [inputs.clients[int(i)] for i in sample]
    answers = service.query_batch([QueryRequest(c.user_id, k) for c in clients])
    scores = trainer.score_item_matrix(clients)
    problems = []
    for row, (client, answer) in enumerate(zip(clients, answers)):
        problems += topk_problems(
            client.user_id, answer.items, answer.scores, scores[row],
            client.train_items, k,
        )
    return problems


def _repeat_problems(units: list) -> list:
    keys = ("clients", "wire", "recall", "ndcg", "dropped")
    first = {key: units[0][key] for key in keys}
    return [
        f"unit {i}: {key} {unit[key]!r} != {first[key]!r}"
        for i, unit in enumerate(units[1:], start=1)
        for key in keys
        if unit[key] != first[key]
    ]


def _traced_units(run: Run, inputs: _Inputs, clock: AggregationClock, result: Result):
    """An untraced unit, then the same unit traced; fills ``per_layer``.

    Returns (both units' figures, the traced unit's trainer).
    """
    from repro.autograd.tensor import Tensor
    from repro.core.hetefedrec import HeteFedRec
    from repro.data.sampling import NegativeSampler
    from repro.eval.metrics import blocked_top_k
    from repro.federated.checkpoint import save_checkpoint_impl
    from repro.federated.round_engine import VectorizedRoundEngine
    from repro.models.lightgcn import LightGCN
    from repro.models.mf import GMF
    from repro.models.ncf import NCF
    from repro.nn.optim import Adam

    path = str(run.scratch("trace") / "model.npz")
    inputs.warmup(path)
    baseline, _trainer = _fit_unit(inputs, clock, path)

    tracer = run.tracer
    tracer.wrap_method(NegativeSampler, "sample", "data.sample")
    tracer.wrap_method(Tensor, "backward", "autograd.backward")
    tracer.count_method(Tensor, "__init__", "autograd.tensors")
    tracer.wrap_method(Adam, "step", "nn.adam_step")
    tracer.wrap_method(VectorizedRoundEngine, "train_round", "round_engine.train_round")
    tracer.wrap_method(FederatedTrainer, "apply_updates", "aggregation.apply_updates")
    tracer.wrap_method(HeteFedRec, "post_aggregate", "core.post_aggregate")
    tracer.wrap_method(FederatedTrainer, "evaluate_with", "eval.evaluate_with")
    tracer.wrap_function(blocked_top_k, "eval.blocked_top_k")
    for cls in (NCF, GMF, LightGCN):
        tracer.wrap_method(
            cls, "score_matrix", "models.score_matrix",
            size=lambda _model, user_mat, *args, **kwargs: len(user_mat),
        )
    tracer.wrap_function(save_checkpoint_impl, "checkpoint.save")
    # Tape nodes count inside rounds only (RESKD builds a few more): the
    # growth of the Tensor counter across each round.
    timed_round = VectorizedRoundEngine.__dict__["train_round"]

    def counted_round(*args, **kwargs):
        before = tracer.counts["autograd.tensors"]
        try:
            return timed_round(*args, **kwargs)
        finally:
            tracer.add("autograd.tape_nodes", tracer.counts["autograd.tensors"] - before)

    tracer.patch(VectorizedRoundEngine, "train_round", counted_round)
    try:
        traced, trainer = _fit_unit(inputs, clock, path, tracer)
    finally:
        tracer.restore()

    table = tracer.layer_table()
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    row = lambda name: table.get(name, empty)  # noqa: E731
    meter = trainer.meter
    rounds = row("round_engine.train_round")["calls"]
    result.per_layer.update({
        "trace.wall_s": traced["fit_s"],
        "trace.overhead_s": traced["fit_s"] - baseline["fit_s"],
        "recall_at_20": traced["recall"],
        "ndcg_at_20": traced["ndcg"],
        "wire_scalars_per_client": traced["wire"],
        "failed_ratio": traced["dropped"] / traced["clients"],
        "data.sample_s": row("data.sample")["busy_s"],
        "data.sample_calls": row("data.sample")["calls"],
        "autograd.backward_s": row("autograd.backward")["busy_s"],
        "autograd.tape_nodes_per_round": tracer.counts["autograd.tape_nodes"] / max(rounds, 1),
        "nn.adam_step_s": row("nn.adam_step")["busy_s"],
        "nn.adam_steps": row("nn.adam_step")["calls"],
        "round_engine.busy_s": row("round_engine.train_round")["busy_s"],
        "round_engine.self_s": row("round_engine.train_round")["self_s"],
        "round_engine.clients": meter.client_rounds,
        "round_engine.peak_alloc_mb": _round_peak_alloc_mb(inputs),
        "aggregation.apply_s": row("aggregation.apply_updates")["busy_s"],
        "aggregation.updates": meter.client_rounds - meter.dropped_updates,
        "core.reskd_s": row("core.post_aggregate")["busy_s"],
        "eval.evaluate_s": row("eval.evaluate_with")["busy_s"],
        "eval.users": row("eval.evaluate_with")["calls"]
        * sum(1 for c in inputs.clients if c.test_items.size),
        "eval.top_k_s": row("eval.blocked_top_k")["busy_s"],
        "models.score_s": row("models.score_matrix")["busy_s"],
        "models.score_rows": tracer.counts["models.score_matrix"],
        "checkpoint.save_s": row("checkpoint.save")["busy_s"],
        "checkpoint.bytes": _checkpoint_bytes(path),
    })
    return [baseline, traced], trainer


def _checkpoint_bytes(path: str) -> int:
    meta = path[: -len(".npz")] + ".meta.json"
    return sum(os.path.getsize(p) for p in (path, meta) if os.path.exists(p))


def _round_peak_alloc_mb(inputs: _Inputs) -> float:
    """Peak bytes allocated above the baseline during one training round.

    Runs a separate one-round fit under ``tracemalloc`` so the allocation
    tracking never distorts the traced timings.
    """
    trainer = inputs.one_round_trainer()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fit(trainer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 2**20


def run(run: Run) -> Result:
    sizes = settings.sizes("train_paper", run.toy)
    result = Result(inputs={
        "users": sizes["users"], "items": sizes["items"],
        "cohort": sizes["clients_per_round"], "epochs": sizes["epochs"],
        "local_epochs": sizes["local_epochs"], "dims": sizes["dims"],
        "arch": "ncf", "method": "hetefedrec",
    })
    setups, inputs = timed_repeats(
        lambda: _Inputs(sizes, run.seed), sizes["setup_repeats"]
    )
    clock = AggregationClock(FederatedTrainer, "apply_updates")
    ckpt_dir = run.scratch("units")
    kept = {}  # only the newest unit's trainer stays alive

    def unit(i: int) -> dict:
        kept.clear()
        figures, kept["trainer"] = _fit_unit(inputs, clock, str(ckpt_dir / f"unit{i}.npz"))
        return figures

    try:
        if run.trace:
            units, kept["trainer"] = _traced_units(run, inputs, clock, result)
        else:
            units = run_units(
                run, unit, settings.MIN_UNITS,
                warmup=lambda: inputs.warmup(str(ckpt_dir / "warmup.npz")),
            )
    finally:
        clock.close()

    result.check(
        "served_top20_matches_trainer",
        _served_matches_trainer(inputs, units[-1]["checkpoint"], kept["trainer"], run.seed),
    )
    result.check("units_repeat_exactly", _repeat_problems(units))
    rounds = round_latencies([unit["rounds"] for unit in units])
    result.attempted = sum(unit["clients"] for unit in units)
    result.failed = sum(unit["dropped"] for unit in units)
    result.end_to_end = {
        "setup_s": run.import_s + median(setups),
        "result_s": median([unit["fit_s"] for unit in units]),
        "throughput_per_s": median([unit["clients_per_s"] for unit in units]),
        "latency_p50_ms": 1e3 * percentile(rounds, 50),
        "latency_p90_ms": 1e3 * percentile(rounds, 90),
        "peak_rss_mb": peak_rss_mb(),
    }
    result.samples = {
        "import_s": [run.import_s],
        "setup_s": setups,
        "fit_s": [unit["fit_s"] for unit in units],
        "round_s": [unit["rounds"] for unit in units],
    }
    last = units[-1]
    result.report = {
        "fit_s": (result.end_to_end["result_s"], "s"),
        "train_clients_per_s": (result.end_to_end["throughput_per_s"], "1/s"),
        "recall_at_20": (last["recall"], "ratio"),
        "ndcg_at_20": (last["ndcg"], "ratio"),
        "wire_scalars_per_client": (last["wire"], "scalars"),
        "failed_ratio": (result.failed / max(result.attempted, 1), "ratio"),
        "rounds_per_unit": (len(rounds), "count"),
        "units": (len(units), "count"),
    }
    return result
