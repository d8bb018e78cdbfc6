"""Frozen sizes, rates and limits of every workload.

Every commit is measured against these numbers, so change them only in a
change that redefines the benchmark (and re-measure the baseline then).
``TOY`` shrinks each workload so the benchmark's own tests run in
seconds; it is never used for a reported measurement.
"""

from __future__ import annotations

#: Paper defaults (Section V-D): dims {8, 16, 32}, 256 clients per round,
#: 4 local epochs, 1:4 negatives, on the full ML-1M catalogue.
ML1M_USERS = 6040
ML1M_ITEMS = 3706

#: A traced run fails unless named spans (layers and idle) cover at least
#: this share of its wall time, so the per-layer table accounts for it.
ATTRIBUTED_FLOOR = 0.9
#: Every run measures at least this many units of work, even past
#: ``--seconds``, so medians and the determinism checks have two samples.
MIN_UNITS = 2

FULL = {
    "train_paper": {
        "users": 1024,
        "items": ML1M_ITEMS,
        "epochs": 1,
        "clients_per_round": 256,
        "local_epochs": 4,
        "negative_ratio": 4,
        "dims": {"s": 8, "m": 16, "l": 32},
        "eval_k": 20,
        "check_users": 64,
        # How many times one run repeats its set-up; ``setup_s`` is the
        # import time plus the median.  One set-up varies by about +-15%
        # within a run, so the cheap set-ups repeat five times.
        "setup_repeats": 5,
    },
    "sim_secure": {
        "scenario": "secure_dropout",
        # Six rounds: one fault target per protocol phase, the abort storm
        # of every fifth round, and the round that merges what it carried.
        "clients": 384,
        "cohort": 64,
        "items": 500,
        "dim": 8,
        "setup_repeats": 5,
    },
    "sim_population": {
        "scenario": "dropout_storm",
        # Population scale within the run budget: 35,000 clients fill nine
        # user-store shards (more than the eight kept open, so shards are
        # evicted and reopened) in ~3 s, so a run medians about eight
        # units; 10^5 clients would leave room for only one.
        "clients": 35_000,
        "cohort": 512,
        "items": 500,
        "dim": 8,
        "setup_repeats": 5,
    },
    "serve_zipf_swap": {
        # A trained population larger than the service's default
        # 4,096-entry top-k cache.
        "users": ML1M_USERS,
        "items": ML1M_ITEMS,
        "train_clients_per_round": 256,
        "train_local_epochs": 1,
        "k": 20,
        "cache_size": 4096,
        # One set-up (training, two checkpoints, a snapshot load) takes
        # ~4.4 s, so three, to keep the run within its time budget.
        "setup_repeats": 3,
        # Open loop: seeded Poisson arrivals at each offered rate, one
        # step after another: [requests/s, seconds, swap before the step
        # (with no traffic), swaps during the step].  The nominal rate
        # runs as three segments, each on a freshly loaded snapshot: a
        # load lands the arrays at new addresses, which moves scoring
        # time by up to ~25%, so the reported latency pools three loads.
        # The 500/s step swaps five times under load, 2 s apart (a swap
        # under load takes ~1.1-1.8 s and single swaps vary by ~1.5x, so
        # ``swap_s`` is the median of five).  The nominal rate has
        # ~2,250 requests, the 500/s step ~5,000, the others ~1,000.
        "ladder": [[250, 3.0, True, 0]] * 3
        + [[500, 10.0, False, 5], [1000, 1.0, False, 0], [2000, 0.5, False, 0]],
        # An unrecorded step at the nominal rate first: code paths, the
        # allocator and the cache warm up before anything is timed.
        "warmup_s": 1.0,
        # Serving latency and capacity are reported at this rate.
        "nominal_qps": 250,
        "max_batch": 32,
        # A request overlapping a swap (or due within this long after it
        # returned) is a swap sample; the rest are steady-state samples.
        "swap_settle_s": 0.05,
        "p99_limit_ms": 50.0,
        # A step's backlog grows when more than this many requests that
        # came due in the step are still unanswered at its end.
        "backlog_limit": 64,
        "check_every": 40,
    },
}

TOY = {
    "train_paper": dict(
        FULL["train_paper"], users=96, items=300, clients_per_round=32,
        local_epochs=1, check_users=16,
    ),
    "sim_secure": dict(FULL["sim_secure"], clients=80, cohort=16, items=100),
    "sim_population": dict(
        FULL["sim_population"], clients=2000, cohort=64, items=100
    ),
    "serve_zipf_swap": dict(
        FULL["serve_zipf_swap"], users=300, items=200,
        train_clients_per_round=32, cache_size=64,
        ladder=[[200, 0.5, True, 0], [200, 0.5, True, 0], [400, 0.5, False, 1]],
        nominal_qps=200, warmup_s=0.2, check_every=5,
    ),
}


def sizes(workload: str, toy: bool = False) -> dict:
    return dict((TOY if toy else FULL)[workload])
