"""``serve_zipf_swap``: open-loop serving over two trained checkpoints.

Set-up trains HeteFedRec (ncf) on a population larger than the service's
default 4,096-entry top-k cache, autosaves a checkpoint after each of two
epochs, and stands up ``repro.api.serve(..., resilience=True)`` with the
users' history and ``exclude_seen=True``.

The run is an open loop over a fixed ladder of offered rates.  Requests
arrive by seeded Poisson for a fixed time per step, each from a user
drawn in proportion to the number of interactions the population planted
for that user (ML-1M's long-tailed activity).  The load thread answers
every request that has come due, up to ``max_batch`` per call, with one
``ResilientService.query_batch`` call, and times each request from when
it was due.  A second thread hot-swaps between the two checkpoints at
fixed, evenly spaced points of a step.
"""

from __future__ import annotations

import gc
import queue
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from perfbench import settings
from perfbench.common import (
    Result,
    Run,
    median,
    peak_rss_mb,
    percentile,
    timed_repeats,
    topk_problems,
)
from perfbench.tracing import span_of
from repro.api import (
    HeteFedRecConfig,
    InteractionDataset,
    QueryRequest,
    build_method,
    fit,
    load_snapshot,
    serve,
    train_test_split_per_user,
)
from repro.data.synthetic import DATASET_SPECS


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def population(users: int, items: int, seed: int) -> InteractionDataset:
    """An ML-1M-shaped population, generated in vectorised numpy.

    Per-user activity takes the quantiles of the MovieLens spec's
    lognormal (mean 32, the spec's coefficient of variation), so every
    seed has the same activity histogram; the seed decides which user
    gets which count and which items, drawn from a Zipf popularity law.
    The repository's latent-factor generator takes about 1 ms per user,
    which set-up (run three times) cannot afford at this size; serving
    cost does not depend on how preferences were planted.
    """
    rng = np.random.default_rng(seed)
    cv = DATASET_SPECS["ml"].cv
    sigma = np.sqrt(np.log1p(cv**2))
    normal = statistics.NormalDist(np.log(32.0) - sigma**2 / 2.0, sigma)
    quantiles = (np.arange(users) + 0.5) / users
    counts = np.exp([normal.inv_cdf(q) for q in quantiles])
    counts = np.clip(np.round(counts), 6, int(0.6 * items)).astype(np.int64)
    counts = rng.permutation(counts)
    popularity = rng.permutation(1.0 / np.arange(1, items + 1))
    draws = rng.choice(items, size=int(2 * counts.sum()), p=popularity / popularity.sum())
    user_items, offset = [], 0
    for count in counts:
        segment = draws[offset : offset + 2 * count]
        offset += 2 * count
        _, first = np.unique(segment, return_index=True)
        user_items.append(segment[np.sort(first)][:count])
    return InteractionDataset(users, items, user_items, name="serve")


def training_cohort(dataset: InteractionDataset, size: int) -> List[int]:
    """Users at evenly spaced activity ranks: the same workload every seed."""
    activity = np.array([len(items) for items in dataset.user_items])
    by_activity = np.argsort(activity, kind="stable")
    ranks = ((np.arange(size) + 0.5) * dataset.num_users / size).astype(np.int64)
    return [int(user) for user in by_activity[ranks]]


@dataclass
class Deployment:
    """What set-up hands the measurement: a live service and its inputs."""

    service: object
    history: Dict[int, np.ndarray]
    checkpoints: List[str]
    #: interactions planted per user; requests arrive in proportion
    activity: np.ndarray


def deploy(run: Run, sizes: dict, index: int) -> Deployment:
    """Train, checkpoint twice and serve the first checkpoint."""
    work = run.scratch(f"deploy{index}")
    dataset = population(sizes["users"], sizes["items"], run.seed)
    clients = train_test_split_per_user(dataset, seed=run.seed)
    first, second = str(work / "epoch1.npz"), str(work / "epoch2.npz")
    config = HeteFedRecConfig(
        arch="ncf",
        epochs=1,
        clients_per_round=sizes["train_clients_per_round"],
        local_epochs=sizes["train_local_epochs"],
        seed=run.seed,
        checkpoint_path=first,
        checkpoint_every=1,
    )
    trainer = build_method("hetefedrec", dataset.num_items, clients, config)
    # One cohort per epoch: training cost stays bounded while the
    # checkpoint carries every user of the population.
    cohort = training_cohort(dataset, sizes["train_clients_per_round"])
    trainer.participation_source = lambda _trainer, _epoch: [cohort]
    fit(trainer)
    trainer.config.epochs, trainer.config.checkpoint_path = 2, second
    fit(trainer)
    history = {c.user_id: c.train_items for c in clients}
    service = serve(
        first, k=sizes["k"], cache_size=sizes["cache_size"], history=history,
        exclude_seen=True, resilience=True,
    )
    activity = np.array([len(items) for items in dataset.user_items], dtype=np.float64)
    return Deployment(service, history, [first, second], activity)


# ----------------------------------------------------------------------
# the open loop
# ----------------------------------------------------------------------
@dataclass
class Step:
    rate: float
    due: np.ndarray  # absolute due times
    start: np.ndarray  # when the batch holding each request was sent
    end: np.ndarray  # when its answer returned
    failed: np.ndarray
    window_end: float
    #: (sent, returned, requests, oldest model version in the answers)
    batches: List[tuple] = field(default_factory=list)

    @property
    def latency_ms(self) -> np.ndarray:
        """Per request, due → answered; a failed request never meets a limit."""
        latency = (self.end - self.due) * 1e3
        return np.where(self.failed, np.inf, latency)

    @property
    def backlog_end(self) -> int:
        """Requests due within the step but unanswered when it ended."""
        return int(np.sum((self.due <= self.window_end) & (self.end > self.window_end)))

    def during_swaps(self, windows: np.ndarray) -> np.ndarray:
        """Requests whose due → answered interval overlaps a swap window."""
        hit = np.zeros(self.due.size, dtype=bool)
        for began, settled in windows:
            hit |= (self.due <= settled) & (self.end >= began)
        return hit

    def quiet_batches(self, windows: np.ndarray) -> List[tuple]:
        return [
            batch for batch in self.batches
            if not any(batch[0] <= settled and batch[1] >= began for began, settled in windows)
        ]


class Swapper(threading.Thread):
    """Hot-swaps between the checkpoints at given offsets into each step."""

    def __init__(self, service, paths: List[str], tracer) -> None:
        super().__init__(name="perfbench-swapper", daemon=True)
        self.service, self.paths, self.tracer = service, paths, tracer
        #: (step start, swap offsets, end of the step's traffic or None)
        #: per step; None stops the thread
        self.steps: "queue.Queue[Optional[tuple]]" = queue.Queue()
        self.done: "queue.Queue[int]" = queue.Queue()
        self.swaps: List[tuple] = []  # (began, returned, version)
        #: wall seconds of each swap that began while requests were due
        self.under_load_s: List[float] = []
        self.errors: List[str] = []

    def run(self) -> None:
        with span_of(self.tracer, "serve.swapper"):
            while True:
                with span_of(self.tracer, "serve.swap_wait"):
                    step = self.steps.get()
                if step is None:
                    return
                step_start, offsets, traffic_end = step
                for offset in offsets:
                    with span_of(self.tracer, "serve.swap_wait"):
                        time.sleep(max(0.0, step_start + offset - time.perf_counter()))
                    path = self.paths[len(self.swaps) % len(self.paths)]
                    if self.tracer:
                        self.tracer.set_request(f"swap{len(self.swaps)}")
                    began = time.perf_counter()
                    try:
                        version = self.service.swap(path)
                    except Exception as exc:  # noqa: BLE001 - reported as a check
                        self.errors.append(f"swap to {path}: {exc!r}")
                        version = -1
                    returned = time.perf_counter()
                    self.swaps.append((began, returned, version))
                    if traffic_end is not None and began < traffic_end:
                        self.under_load_s.append(returned - began)
                self.done.put(len(self.swaps))


@dataclass
class Planned:
    """One ladder step as scheduled: offered load, swaps and arrivals."""

    rate: float
    seconds: float
    cutover: bool  # swap with no traffic before the step
    offsets: List[float]  # swaps during the step, seconds after its start
    arrivals: np.ndarray  # seconds after the step's start
    users: np.ndarray
    recorded: bool = True


def schedule(sizes: dict, seed: int, activity: np.ndarray) -> List[Planned]:
    """The warm-up step and the ladder, fixed by the seed.

    Arrival offsets are Poisson at each step's rate; a request's user is
    drawn with probability proportional to that user's planted activity.
    The warm-up step runs at the nominal rate and is not recorded.
    """
    rng = np.random.default_rng(seed + 7)
    weights = activity / activity.sum()
    plan = [[sizes["nominal_qps"], sizes["warmup_s"], False, 0]] + sizes["ladder"]
    steps = []
    for position, (rate, seconds, cutover, swaps) in enumerate(plan):
        gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
        arrivals = np.cumsum(gaps)
        arrivals = arrivals[arrivals < seconds]
        users = rng.choice(activity.size, size=arrivals.size, p=weights)
        offsets = [(j + 0.25) * seconds / swaps for j in range(swaps)]
        steps.append(
            Planned(float(rate), seconds, cutover, offsets, arrivals, users, position > 0)
        )
    return steps


def wait_until(deadline: float) -> None:
    """Spin to ``deadline``, yielding the GIL; sleep only through long gaps.

    Waking from a sleep on a virtual machine can take anywhere from tens
    of microseconds to milliseconds, which would dominate the latency of
    a sub-millisecond request; ``sleep(0)`` keeps releasing the GIL so the
    swap thread still runs.
    """
    remaining = deadline - time.perf_counter()
    if remaining > 0.02:
        time.sleep(remaining - 0.01)
    while time.perf_counter() < deadline:
        time.sleep(0)


def drive(deployment: Deployment, sizes: dict, seed: int, tracer=None) -> dict:
    """Run the whole ladder; return per-step records, swaps and samples."""
    service = deployment.service
    k, max_batch = sizes["k"], sizes["max_batch"]
    # swap to the second checkpoint first, then back and forth
    swapper = Swapper(service, deployment.checkpoints[::-1], tracer)
    steps, samples, index = [], [], 0
    cache_before = service.stats()["cache"]
    tiers_before = service.tier_counts()
    swapper.start()
    try:
        with span_of(tracer, "serve.load"):
            for planned in schedule(sizes, seed, deployment.activity):
                if planned.cutover:
                    # A swap with no traffic, then its garbage collected, so
                    # the segment starts on a fresh load in a steady state.
                    swapper.steps.put((time.perf_counter(), [0.0], None))
                    with span_of(tracer, "serve.idle"):
                        swapper.done.get(timeout=120)
                        gc.collect()
                rate, users, n = planned.rate, planned.users, planned.arrivals.size
                step_start = time.perf_counter()
                swapper.steps.put(
                    (step_start, planned.offsets, step_start + planned.arrivals[-1])
                )
                step = Step(
                    rate, step_start + planned.arrivals, np.empty(n), np.empty(n),
                    np.zeros(n, dtype=bool), step_start + planned.seconds,
                )
                i = 0
                while i < n:
                    now = time.perf_counter()
                    if step.due[i] > now:
                        with span_of(tracer, "serve.idle"):
                            wait_until(step.due[i])
                        continue
                    j = min(n, i + max_batch, int(np.searchsorted(step.due, now, side="right")))
                    requests = [QueryRequest(int(u), k) for u in users[i:j]]
                    if tracer:
                        tracer.set_request(f"batch{len(step.batches)}@{rate:g}")
                    sent = time.perf_counter()
                    try:
                        answers = service.query_batch(requests)
                    except Exception:  # noqa: BLE001 - counted as failed requests
                        answers = None
                    returned = time.perf_counter()
                    step.start[i:j], step.end[i:j] = sent, returned
                    if answers is None or len(answers) != j - i:
                        step.failed[i:j] = True
                    else:
                        oldest = min(a.model_version for a in answers)
                        step.batches.append((sent, returned, j - i, oldest))
                        for position in range(i, j):
                            if (index + position) % sizes["check_every"] == 0:
                                samples.append(answers[position - i])
                    i = j
                index += n
                if planned.recorded:
                    steps.append(step)
                with span_of(tracer, "serve.idle"):
                    swapper.done.get(timeout=120)
    finally:
        swapper.steps.put(None)
        swapper.join(timeout=120)
    cache_after = service.stats()["cache"]
    tiers_after = service.tier_counts()
    return {
        "steps": steps,
        "swaps": swapper.swaps,
        "swap_under_load_s": swapper.under_load_s,
        "swap_errors": swapper.errors,
        "swapper_alive": swapper.is_alive(),
        "samples": samples,
        "cache_hits": cache_after["hits"] - cache_before["hits"],
        "cache_lookups": (cache_after["hits"] + cache_after["misses"])
        - (cache_before["hits"] + cache_before["misses"]),
        "tiers": {t: tiers_after[t] - tiers_before.get(t, 0) for t in tiers_after},
    }


# ----------------------------------------------------------------------
# analysis and checks
# ----------------------------------------------------------------------
def swap_windows(ladder: dict, sizes: dict) -> np.ndarray:
    """(began, returned + settle) per swap: when swaps disturb requests."""
    return np.array(
        [(began, returned + sizes["swap_settle_s"]) for began, returned, _v in ladder["swaps"]]
    ).reshape(-1, 2)


def step_passes(step: Step, windows: np.ndarray, sizes: dict) -> bool:
    """Steady-state p99 within the limit and a backlog that does not grow."""
    quiet = step.latency_ms[~step.during_swaps(windows)]
    return (
        percentile(quiet, 99) <= sizes["p99_limit_ms"]
        and step.backlog_end <= sizes["backlog_limit"]
    )


def max_qps(ladder: dict, sizes: dict) -> float:
    """The highest offered rate all of whose steps are sustained (else 0)."""
    windows = swap_windows(ladder, sizes)
    rates = {s.rate for s in ladder["steps"]}
    passing = [
        rate for rate in rates
        if all(step_passes(s, windows, sizes) for s in ladder["steps"] if s.rate == rate)
    ]
    return max(passing) if passing else 0.0


def capacity(ladder: dict, sizes: dict) -> float:
    """Requests answered per second inside ``query_batch`` at the nominal
    rate, away from swaps."""
    windows = swap_windows(ladder, sizes)
    quiet = [
        b for step in nominal_steps(ladder["steps"], sizes)
        for b in step.quiet_batches(windows)
    ]
    return sum(b[2] for b in quiet) / sum(b[1] - b[0] for b in quiet)


def steady_latency(ladder: dict, sizes: dict, rate: float) -> np.ndarray:
    """Steady-state latencies (ms) pooled over the steps at ``rate``."""
    windows = swap_windows(ladder, sizes)
    return np.concatenate([
        s.latency_ms[~s.during_swaps(windows)] for s in ladder["steps"] if s.rate == rate
    ])


def swap_p99_ms(ladder: dict, sizes: dict) -> float:
    """p99 of the swap samples pooled over every step (0 without any)."""
    windows = swap_windows(ladder, sizes)
    during = np.concatenate([s.latency_ms[s.during_swaps(windows)] for s in ladder["steps"]])
    return percentile(during, 99) if during.size else 0.0


def queue_waits_ms(ladder: dict, sizes: dict) -> np.ndarray:
    """Due → picked up by the load thread, at the nominal rate."""
    return np.concatenate(
        [(s.start - s.due) * 1e3 for s in nominal_steps(ladder["steps"], sizes)]
    )


def answer_problems(deployment: Deployment, samples: list, path_of_version, k: int) -> list:
    """Sampled answers equal a direct recompute on the version they report."""
    problems, by_path = [], {}
    for answer in samples:
        path = path_of_version(answer.model_version)
        if path is None:
            problems.append(f"user {answer.user_id}: unknown version {answer.model_version}")
            continue
        by_path.setdefault(path, []).append(answer)
    for path, answers in by_path.items():
        snapshot = load_snapshot(path)
        for answer in answers:
            user = answer.user_id
            model = snapshot.models[snapshot.group_of[user]]
            history = deployment.history[user]
            row = model.score_matrix(
                snapshot.embeddings[user][np.newaxis, :], train_items=[history]
            )[0]
            problems += topk_problems(user, answer.items, answer.scores, row, history, k)
    return problems


def stale_problems(ladder: dict) -> list:
    """No batch sent after a swap returned is answered by an older model."""
    problems = []
    for _began, returned, version in ladder["swaps"]:
        for sent, _returned, _size, oldest in (b for step in ladder["steps"] for b in step.batches):
            if sent > returned and oldest < version:
                problems.append(
                    f"batch sent {sent - returned:.4f}s after the cutover to "
                    f"version {version} answered from version {oldest}"
                )
    if ladder["tiers"].get("stale"):
        problems.append(f"{ladder['tiers']['stale']} answers served from a stale snapshot")
    return problems + ladder["swap_errors"] + (
        ["the swap thread did not stop"] if ladder["swapper_alive"] else []
    )


def nominal_steps(steps: List[Step], sizes: dict) -> List[Step]:
    return [step for step in steps if step.rate == sizes["nominal_qps"]]


def _attach(tracer) -> None:
    from repro.eval.metrics import blocked_top_k
    from repro.models.ncf import NCF
    from repro.serving.cache import TopKCache
    from repro.serving.resilience import ResilientService
    from repro.serving.service import RecommendationService
    from repro.serving.service import load_snapshot as service_load_snapshot

    tracer.wrap_method(ResilientService, "query_batch", "serving.resilience.query_batch")
    tracer.wrap_method(ResilientService, "swap", "serving.resilience.swap")
    tracer.wrap_method(RecommendationService, "query_batch", "serving.service.query_batch")
    tracer.wrap_method(RecommendationService, "swap", "serving.service.swap")
    tracer.wrap_method(TopKCache, "get", "serving.cache.get")
    tracer.wrap_method(
        NCF, "score_matrix", "models.score_matrix",
        size=lambda _model, user_mat, *args, **kwargs: len(user_mat),
    )
    tracer.wrap_function(blocked_top_k, "eval.blocked_top_k")
    tracer.wrap_function(service_load_snapshot, "checkpoint.load_snapshot")


def _layers(run: Run, deployment: Deployment, sizes: dict, result: Result) -> dict:
    """An untraced ladder, then the same ladder traced; fills ``per_layer``."""
    baseline = drive(deployment, sizes, run.seed)
    tracer = run.tracer
    _attach(tracer)
    try:
        traced = drive(deployment, sizes, run.seed, tracer)
    finally:
        tracer.restore()
    table = tracer.layer_table()
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    row = lambda name: table.get(name, empty)  # noqa: E731
    steps = traced["steps"]
    waits = queue_waits_ms(traced, sizes)
    requests = sum(step.due.size for step in steps)
    batches = sum(len(step.batches) for step in steps)
    busy = lambda ladder: sum(  # noqa: E731
        b[1] - b[0] for step in ladder["steps"] for b in step.batches
    )
    result.per_layer.update({
        "trace.wall_s": row("serve.load")["busy_s"],
        "trace.overhead_s": busy(traced) - busy(baseline),
        "failed_ratio": sum(int(s.failed.sum()) for s in steps) / requests,
        "eval.top_k_s": row("eval.blocked_top_k")["busy_s"],
        "models.score_s": row("models.score_matrix")["busy_s"],
        "models.score_rows": tracer.counts["models.score_matrix"],
        "checkpoint.load_s": row("checkpoint.load_snapshot")["busy_s"],
        "serving.query_batch_s": row("serving.service.query_batch")["busy_s"],
        "serving.batch_size_mean": requests / max(batches, 1),
        "serving.miss_rows": traced["cache_lookups"] - traced["cache_hits"],
        "serving.cache_hit_ratio": traced["cache_hits"] / max(traced["cache_lookups"], 1),
        "serving.cache_hits": traced["cache_hits"],
        "serving.cache_lookups": traced["cache_lookups"],
        "serving.resilience_self_s": row("serving.resilience.query_batch")["self_s"]
        + row("serving.resilience.swap")["self_s"],
        **{f"serving.tier.{tier}": count for tier, count in traced["tiers"].items()},
        "serving.queue_wait_p50_ms": percentile(waits, 50),
        "serving.queue_wait_p99_ms": percentile(waits, 99),
        "serving.backlog_end": max(s.backlog_end for s in nominal_steps(steps, sizes)),
        "serving.idle_ratio": row("serve.idle")["busy_s"] / row("serve.load")["busy_s"],
        "serving.p99_ms": percentile(steady_latency(traced, sizes, sizes["nominal_qps"]), 99),
        "serving.swap_p99_ms": swap_p99_ms(traced, sizes),
        "serving.max_qps": max_qps(baseline, sizes),
    })
    return traced


def run(run: Run) -> Result:
    sizes = settings.sizes("serve_zipf_swap", run.toy)
    result = Result(inputs={
        "users": sizes["users"], "items": sizes["items"], "k": sizes["k"],
        "cache_size": sizes["cache_size"], "user_weights": "planted activity",
        "ladder": sizes["ladder"], "nominal_qps": sizes["nominal_qps"],
        "max_batch": sizes["max_batch"], "swap_settle_s": sizes["swap_settle_s"],
        "p99_limit_ms": sizes["p99_limit_ms"], "backlog_limit": sizes["backlog_limit"],
        "train_clients_per_round": sizes["train_clients_per_round"],
        "train_local_epochs": sizes["train_local_epochs"],
    })
    counter = iter(range(sizes["setup_repeats"]))
    setups, deployment = timed_repeats(
        lambda: deploy(run, sizes, next(counter)), sizes["setup_repeats"]
    )
    if run.trace:
        ladder = _layers(run, deployment, sizes, result)
    else:
        ladder = drive(deployment, sizes, run.seed)

    steps = ladder["steps"]
    result.check(
        "sampled_answers_match_recompute",
        answer_problems(
            deployment, ladder["samples"], deployment.service.path_of_version, sizes["k"]
        ),
    )
    result.check("no_stale_answer_after_cutover", stale_problems(ladder))
    steady = steady_latency(ladder, sizes, sizes["nominal_qps"])
    answered = sum(int((~step.failed).sum()) for step in steps)
    swap_walls = ladder["swap_under_load_s"]
    result.attempted = sum(step.due.size for step in steps)
    result.failed = result.attempted - answered
    result.end_to_end = {
        "setup_s": run.import_s + median(setups),
        "result_s": median(swap_walls),
        "throughput_per_s": capacity(ladder, sizes),
        "latency_p50_ms": percentile(steady, 50),
        "latency_p90_ms": percentile(steady, 90),
        "peak_rss_mb": peak_rss_mb(),
    }
    result.samples = {"import_s": [run.import_s], "setup_s": setups, "swap_s": swap_walls}
    waits = queue_waits_ms(ladder, sizes)
    rates = sorted({step.rate for step in steps})
    result.report = {
        "swap_s": (result.end_to_end["result_s"], "s"),
        "serve_p50_ms": (result.end_to_end["latency_p50_ms"], "ms"),
        "serve_p90_ms": (result.end_to_end["latency_p90_ms"], "ms"),
        "serve_p99_ms": (percentile(steady, 99), "ms"),
        "serve_max_qps": (max_qps(ladder, sizes), "1/s"),
        "nominal_samples": (int(steady.size), "count"),
        "queue_wait_p50_ms": (percentile(waits, 50), "ms"),
        "queue_wait_p99_ms": (percentile(waits, 99), "ms"),
        "swap_p99_ms": (swap_p99_ms(ladder, sizes), "ms"),
        "failed_ratio": (result.failed / max(result.attempted, 1), "ratio"),
        "swaps": (len(ladder["swaps"]), "count"),
        "swaps_under_load": (len(swap_walls), "count"),
        "cache_hit_ratio": (ladder["cache_hits"] / max(ladder["cache_lookups"], 1), "ratio"),
        **{
            f"step_{rate:g}_p99_ms": (percentile(steady_latency(ladder, sizes, rate), 99), "ms")
            for rate in rates
        },
        **{
            f"step_{rate:g}_backlog_end": (
                max(s.backlog_end for s in steps if s.rate == rate), "count"
            )
            for rate in rates
        },
    }
    return result
