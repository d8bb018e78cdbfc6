"""The benchmark's metric catalogue, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the one definition of every
metric's name, unit, direction and bound; the runner prints exactly the
catalogue loaded here.

End-to-end metrics are printed by every untraced run of every workload,
so each one has a meaning on each workload (see README.md).  Per-layer
metrics come from the traced run; a layer a workload never enters
reports 0, which is itself the prediction "this workload bypasses it".
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
_SPEC = json.loads(SPEC_PATH.read_text(encoding="utf-8"))

#: name -> (unit, better, bound)
END_TO_END = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in _SPEC["end_to_end"]}
#: name -> (unit, better)
PER_LAYER = {m["name"]: (m["unit"], m["better"]) for m in _SPEC["per_layer"]}

SECURE_PHASES = ("advertise", "shares", "masked_input", "unmask")
TIERS = ("full", "cached", "stale", "fallback", "shed")
