"""The repository benchmark: one workload per fresh process.

    python3 perfbench/run.py --workload train_paper --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same workload once untraced and once traced and
reports the per-layer metrics, writing the spans as Chrome trace-event
JSON under ``perfbench/_out/``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every correctness check passed.  ``--workload all``
runs every workload in its own process and fails if any of them does.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: the machine has two cores, and the serving workload
# already runs two Python threads; BLAS workers on top oversubscribe the
# cores and made repeated runs differ by up to 2x.  Set before numpy loads;
# an explicit setting in the environment wins.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: workload -> (module, entry point)
WORKLOADS = {
    "train_paper": ("perfbench.train_paper", "run"),
    "sim_secure": ("perfbench.sim", "run_secure"),
    "sim_population": ("perfbench.sim", "run_population"),
    "serve_zipf_swap": ("perfbench.serve", "run"),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--toy", action="store_true",
        help="tiny inputs for the benchmark's own tests; never reported",
    )
    return parser.parse_args(argv)


def _import_program() -> bool:
    """Put this checkout's ``src/`` first on the path and import it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return False
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return False
    return True


def attribution_problems(ratio: float) -> list:
    """Why the traced spans fail to account for the run's wall time."""
    from perfbench.settings import ATTRIBUTED_FLOOR

    if ratio >= ATTRIBUTED_FLOOR:
        return []
    return [f"named spans cover {ratio:.3f} of the traced wall time, below {ATTRIBUTED_FLOOR}"]


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args: argparse.Namespace) -> int:
    if not _import_program():
        return 2
    module_name, entry = WORKLOADS[args.workload]
    module = importlib.import_module(module_name)
    from perfbench import metrics
    from perfbench.common import OUT_DIR, WORK_DIR, Run, provenance
    from perfbench.tracing import Tracer

    import_s = time.perf_counter() - _STARTED
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    run = Run(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), toy=args.toy, import_s=import_s, work=work,
        tracer=Tracer() if args.trace else None,
    )
    try:
        result = getattr(module, entry)(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if run.trace:
        catalogue = metrics.PER_LAYER
        unknown = sorted(set(result.per_layer) - set(catalogue))
        if unknown:
            raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
        values = {name: result.per_layer.get(name, 0.0) for name in catalogue}
        accounting = run.tracer.accounting()
        walls = sum(row["wall_s"] for row in accounting.values())
        ratio = (
            sum(row["wall_s"] * row["attributed"] for row in accounting.values()) / walls
            if walls else 0.0
        )
        values["trace.attributed_ratio"] = ratio
        result.check("trace_accounts_for_wall_time", attribution_problems(ratio))
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        run.tracer.write_chrome(str(trace_path))
    else:
        catalogue = metrics.END_TO_END
        values = {name: result.end_to_end[name] for name in catalogue}
        accounting, trace_path = None, None

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, value in values.items():
        print(f"  {name:<34} {_format(value):>14} {catalogue[name][0]}")
    for name, (value, unit) in result.report.items():
        print(f"  [{name}]".ljust(36) + f" {_format(value):>14} {unit}")
    for name, problem in result.checks.items():
        print(f"  check {name}: {'FAILED: ' + problem if problem else 'ok'}")
    if trace_path is not None:
        print(f"  trace written to {trace_path.relative_to(ROOT)} (open in https://ui.perfetto.dev)")
    detail = {
        "provenance": provenance(run, result.inputs),
        "checks": result.checks,
        "report": {name: {"value": v, "unit": u} for name, (v, u) in result.report.items()},
        "samples": result.samples,
        "trace_accounting": accounting,
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": result.correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {
            name: {"value": value, "unit": catalogue[name][0]}
            for name, value in values.items()
        },
    }, allow_nan=False))
    return 0 if result.correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh process; non-zero if any fails."""
    status = 0
    for workload in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--toy"] if args.toy else [])
        code = subprocess.run(command, cwd=ROOT, check=False).returncode
        print(f"perfbench {workload}: exit {code}", flush=True)
        status = status or code
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except Exception:  # noqa: BLE001 - report, then fail without a result line
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
