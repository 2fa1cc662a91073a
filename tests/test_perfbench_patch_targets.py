"""The repository benchmark's per-layer tracer finds every name it wraps.

``perfbench/layers.py`` wraps public and private entry points of ``repro``
by name (the runner's ``_run_batch_group`` and ``_serial_case_rows``, the
engines' ``run`` methods, the oracle queries, ...).  A renamed or deleted
entry point leaves its per-layer metrics reading n/a; this test makes that
a tier-1 failure.  It only imports the benchmark's modules and undoes every
patch it installs.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_layer_patch_target_exists():
    sys.path.insert(0, str(PERFBENCH))
    try:
        layers = importlib.import_module("layers")
        tracer = importlib.import_module("tracer").LayerTracer()
        try:
            layers.install(tracer)
            assert tracer.missing == []
        finally:
            tracer.uninstall()
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("layers", "tracer"):
            sys.modules.pop(name, None)
