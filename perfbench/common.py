"""Shared pieces of every workload: the run context, statistics,
provenance and the top-k oracle the correctness checks use."""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / "perfbench" / "_work"
OUT_DIR = ROOT / "perfbench" / "_out"


@dataclass
class Run:
    """What one invocation asks for, plus where it may write."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    toy: bool
    import_s: float
    work: Path
    tracer: Optional[Tracer] = None

    def scratch(self, name: str) -> Path:
        """A fresh, empty directory under this run's work area."""
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


@dataclass
class Result:
    """Everything a workload reports back to the runner."""

    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: check name -> failure message ("" when the check passed)
    checks: Dict[str, str] = field(default_factory=dict)
    inputs: Dict[str, object] = field(default_factory=dict)
    #: extra named figures for the human-readable report: name -> (value, unit)
    report: Dict[str, tuple] = field(default_factory=dict)
    #: raw repeats behind the medians (e.g. every unit's wall time), for the detail line
    samples: Dict[str, list] = field(default_factory=dict)

    def check(self, name: str, problems: Sequence[str]) -> None:
        self.checks[name] = "; ".join(problems[:5]) + (
            f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
        )

    @property
    def correct(self) -> bool:
        return bool(self.checks) and not any(self.checks.values())


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, MiB (Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_repeats(setup: Callable[[], object], repeats: int):
    """Run ``setup`` ``repeats`` times; return (every duration, last value)."""
    durations, value = [], None
    for _ in range(max(repeats, 1)):
        value = None  # release the previous build before timing the next
        gc.collect()
        start = time.perf_counter()
        value = setup()
        durations.append(time.perf_counter() - start)
    gc.collect()  # set-up's garbage is not the measurement's to collect
    return durations, value


def run_units(
    run: Run, unit: Callable[[int], object], min_units: int,
    warmup: Optional[Callable[[], object]] = None,
) -> List[object]:
    """Call ``unit(i)`` until ``run.seconds`` are spent (at least ``min_units``).

    ``warmup`` runs first, untimed, so lazy imports, code paths and
    allocator arenas are warm before the first measured unit.  A further
    unit starts only if the median unit so far fits in the time left, so
    a run overshoots its budget by less than one unit.
    """
    if warmup is not None:
        warmup()
    outputs, durations = [], []
    started = time.perf_counter()
    while True:
        begin = time.perf_counter()
        outputs.append(unit(len(outputs)))
        durations.append(time.perf_counter() - begin)
        elapsed = time.perf_counter() - started
        if len(outputs) >= min_units and elapsed + median(durations) > run.seconds:
            return outputs


def round_latencies(per_unit: Sequence[Sequence[float]]) -> List[float]:
    """Per round index, the median over units of that round's latency.

    Every unit of a run repeats the same seeded rounds, so the median per
    round filters scheduler noise while keeping the real differences
    between rounds; p50 and p90 are then taken over rounds.
    """
    counts = {len(rounds) for rounds in per_unit}
    if len(counts) != 1:
        raise ValueError(f"units ran different numbers of rounds: {sorted(counts)}")
    return [median(column) for column in zip(*per_unit)]


class AggregationClock:
    """Timestamps the end of every call of one aggregation method.

    Round latency is the wall time between consecutive aggregations (the
    first measured from :meth:`start`): how long the federation waits
    for its next global model.  This is the only patch untraced runs
    make, one timestamp per round.
    """

    def __init__(self, cls: type, attr: str) -> None:
        self._cls, self._attr = cls, attr
        self._original = cls.__dict__[attr]
        self._ends: List[float] = []
        self._start = 0.0
        original, ends = self._original, self._ends

        def timed(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            finally:
                ends.append(time.perf_counter())

        setattr(cls, attr, timed)

    def start(self) -> None:
        self._ends.clear()
        self._start = time.perf_counter()

    def intervals(self) -> List[float]:
        """Seconds per round since the last :meth:`start`."""
        marks = [self._start] + self._ends
        return [b - a for a, b in zip(marks, marks[1:])]

    def close(self) -> None:
        setattr(self._cls, self._attr, self._original)


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def _blas() -> Dict[str, object]:
    info: Dict[str, object] = {"name": None, "threads": None}
    try:
        config = np.show_config(mode="dicts")
        info["name"] = config["Build Dependencies"]["blas"].get("name")
    except (AttributeError, KeyError, TypeError):
        pass
    try:
        import ctypes

        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
        for lib_path in libs:
            lib = ctypes.CDLL(lib_path)
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    getter.argtypes = []
                    info["threads"] = int(getter())
                    return info
    except OSError:
        pass
    return info


def _commit() -> Optional[str]:
    """HEAD of the git repository rooted exactly at this checkout, if any."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """sha256 over every file under ``src/`` (path and bytes), sorted.

    Identifies the measured code where the checkout is not a git
    repository.
    """
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*.py") if "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(run: Run, inputs: Dict[str, object]) -> Dict[str, object]:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "commit": _commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "platform": platform.platform(),
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "toy": run.toy,
        "inputs": inputs,
        "argv": sys.argv[1:],
    }


# ----------------------------------------------------------------------
# the top-k oracle
# ----------------------------------------------------------------------
def topk_problems(
    user: int,
    items: np.ndarray,
    scores: np.ndarray,
    oracle_row: np.ndarray,
    excluded: Optional[np.ndarray],
    k: int,
    tol: float = 1e-9,
) -> List[str]:
    """Why a served top-k answer is not the top-k of ``oracle_row``.

    Tolerant of the last-bit differences a different matmul batch shape
    can produce: every served score must match the oracle's score for
    that item, the list must be sorted, and no unserved, unexcluded item
    may beat the weakest served one by more than ``tol``.
    """
    row = np.array(oracle_row, dtype=np.float64, copy=True)
    if excluded is not None and len(excluded):
        row[np.asarray(excluded, dtype=np.int64)] = -np.inf
    items = np.asarray(items, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    expected = min(k, int(np.isfinite(row).sum()))
    problems = []
    if items.size != expected or scores.size != expected:
        return [f"user {user}: {items.size} items served, {expected} expected"]
    if len(set(items.tolist())) != items.size:
        problems.append(f"user {user}: duplicate items served")
    if not np.all(np.isfinite(row[items])):
        problems.append(f"user {user}: served an excluded item")
        return problems
    scale = np.maximum(1.0, np.abs(row[items]))
    if np.any(np.abs(scores - row[items]) > tol * scale):
        problems.append(f"user {user}: served scores differ from the oracle")
    if np.any(np.diff(scores) > tol * scale[1:]):
        problems.append(f"user {user}: served list is not sorted by score")
    kth = np.sort(row[np.isfinite(row)])[::-1][expected - 1]
    if row[items].min() < kth - tol * max(1.0, abs(kth)):
        problems.append(f"user {user}: a better item was left out of the top {k}")
    return problems
