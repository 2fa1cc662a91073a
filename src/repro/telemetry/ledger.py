"""The run ledger: persistent, append-only cross-run records.

In-run tracing answers "where did this run spend its time"; the ledger
answers the *cross*-run questions -- "did this PR make anything slower?",
"what did the same configuration score last week?" -- by persisting one
compact JSONL entry per engine run and per benchmark record into a
directory that outlives the process.

The ledger is **off by default** and costs nothing until a directory is
configured, either via the ``REPRO_LEDGER_DIR`` environment variable (the
CI smoke jobs set it and upload the directory as an artifact) or via
:func:`set_ledger_dir` (the CLI ``--ledger`` flag).  Emission is automatic:

* :func:`~repro.telemetry.runtime.telemetry_session` records every
  ``engine_run`` span (and the runner's ``sweep`` spans) on session exit --
  engines need no new arguments;
* :func:`~repro.telemetry.bench.emit_record` appends every
  ``repro-bench/1`` record as a ``bench`` entry.

Every entry carries a **config fingerprint**: a short stable hash over the
entry's *identifying* fields (instance, engine, method, batch size, agent
count, seed, periods...) with the *measured* fields (wall seconds, rates,
gaps, phase counts) excluded.  Two runs of the same configuration therefore
share a fingerprint, which is exactly the join key
:mod:`repro.telemetry.compare` diffs runs on.

Entry schema (``repro-ledger/1``)::

    {"schema": "repro-ledger/1", "kind": "engine_run" | "sweep" | "bench",
     "fingerprint": "a1b2c3d4e5f6", "recorded_unix": ...,
     "engine": ..., "wall_seconds": ..., "phases": ..., ...config fields}
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from .jsonl import read_jsonl

__all__ = [
    "LEDGER_ENV",
    "LEDGER_SCHEMA",
    "RUNS_FILENAME",
    "MEASUREMENT_FIELDS",
    "config_fingerprint",
    "ledger_dir",
    "set_ledger_dir",
    "ledger_path",
    "append_entries",
    "record_bench",
    "session_entries",
    "record_session",
    "load_ledger",
]

LEDGER_ENV = "REPRO_LEDGER_DIR"
LEDGER_SCHEMA = "repro-ledger/1"
RUNS_FILENAME = "runs.jsonl"

# Fields that describe what was *measured*, never what was *configured*.
# They are excluded from the fingerprint so repeated runs of one
# configuration land on one join key regardless of how fast they went.
MEASUREMENT_FIELDS = frozenset(
    {
        "schema",
        "kind",
        "fingerprint",
        "recorded_unix",
        "seconds",
        "rate",
        "wall_seconds",
        "phases",
        "iterations",
        "converged",
        "gap",
        "relative_gap",
        "stop_phase",
    }
)

# Span names that count as one integration phase of their enclosing engine
# run (the fluid/agent engines open "phase", column generation opens one
# span per round, the edge solver one per FW iteration).
PHASE_SPAN_NAMES = frozenset({"phase", "column_generation_round", "fw_iteration"})

# Span names recorded as ledger entries (with their entry kind).
_RECORDED_SPANS = {"engine_run": "engine_run", "sweep": "sweep"}

_override_dir: Optional[str] = None


def set_ledger_dir(path: Optional[Union[str, Path]]) -> Optional[str]:
    """Install an explicit ledger directory; returns the previous override.

    Passing ``None`` removes the override, falling back to the
    ``REPRO_LEDGER_DIR`` environment variable (or no ledger at all).
    """
    global _override_dir
    previous = _override_dir
    _override_dir = str(path) if path is not None else None
    return previous


def ledger_dir() -> Optional[Path]:
    """Return the configured ledger directory, or ``None`` when disabled."""
    if _override_dir is not None:
        return Path(_override_dir)
    env = os.environ.get(LEDGER_ENV)
    return Path(env) if env else None


def ledger_path(directory: Optional[Union[str, Path]] = None) -> Optional[Path]:
    """Return the runs file inside the (given or configured) ledger dir."""
    base = Path(directory) if directory is not None else ledger_dir()
    if base is None:
        return None
    return base / RUNS_FILENAME


def _scalar(value: Any) -> Any:
    """Coerce an attribute to a JSON-friendly scalar (numpy included)."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    if hasattr(value, "item"):
        try:
            return value.item()
        except (ValueError, TypeError):
            pass
    return str(value)


def config_fingerprint(fields: Mapping[str, Any]) -> str:
    """Return the 12-hex-digit fingerprint of an entry's identifying fields.

    Stable across dict ordering and process boundaries: the non-measurement
    fields are serialised as canonical sorted JSON and hashed.
    """
    identity = {
        key: _scalar(value)
        for key, value in fields.items()
        if key not in MEASUREMENT_FIELDS
    }
    blob = json.dumps(identity, sort_keys=True, default=str)
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()[:12]


def append_entries(
    entries: List[Dict[str, Any]], directory: Optional[Union[str, Path]] = None
) -> int:
    """Append entries to the ledger's runs file; returns how many were written.

    Missing ``schema`` / ``fingerprint`` / ``recorded_unix`` fields are
    stamped in.  A no-op (returning 0) when no ledger directory is
    configured.
    """
    path = ledger_path(directory)
    if path is None or not entries:
        return 0
    path.parent.mkdir(parents=True, exist_ok=True)
    now = time.time()
    with open(path, "a") as handle:
        for entry in entries:
            stamped = dict(entry)
            stamped.setdefault("schema", LEDGER_SCHEMA)
            stamped.setdefault("fingerprint", config_fingerprint(entry))
            stamped.setdefault("recorded_unix", now)
            handle.write(json.dumps(stamped, default=str) + "\n")
    return len(entries)


def record_bench(record: Mapping[str, Any]) -> int:
    """Ledger one benchmark record (called by ``emit_record``; cheap no-op
    when no ledger directory is configured)."""
    if ledger_dir() is None:
        return 0
    entry = {key: value for key, value in record.items() if key != "schema"}
    entry["kind"] = "bench"
    return append_entries([entry])


def session_entries(telemetry) -> List[Dict[str, Any]]:
    """Build the ledger entries of one finished telemetry session.

    One ``engine_run`` entry per ``engine_run`` span -- its attributes
    (engine, method, batch size, agents, seed...) plus the measured wall
    seconds and the count of phase-like spans nested under it -- and one
    ``sweep`` entry per runner ``sweep`` span.
    """
    spans = list(getattr(telemetry.tracer, "spans", ()) or ())
    if not spans:
        return []
    by_id = {span.span_id: span for span in spans}

    def nearest_recorded_ancestor(span) -> Optional[int]:
        parent = span.parent_id
        while parent is not None:
            ancestor = by_id.get(parent)
            if ancestor is None:
                return None
            if ancestor.name == "engine_run":
                return ancestor.span_id
            parent = ancestor.parent_id
        return None

    phase_counts: Dict[int, int] = {}
    for span in spans:
        if span.name in PHASE_SPAN_NAMES:
            run_id = nearest_recorded_ancestor(span)
            if run_id is not None:
                phase_counts[run_id] = phase_counts.get(run_id, 0) + 1

    entries: List[Dict[str, Any]] = []
    for span in spans:
        kind = _RECORDED_SPANS.get(span.name)
        if kind is None:
            continue
        entry: Dict[str, Any] = {"kind": kind}
        for key, value in span.attributes.items():
            entry[key] = _scalar(value)
        entry["wall_seconds"] = span.duration
        if kind == "engine_run":
            entry["phases"] = phase_counts.get(span.span_id, 0)
        entries.append(entry)
    return entries


def record_session(telemetry) -> int:
    """Ledger a finished session's engine runs (cheap no-op when disabled)."""
    if ledger_dir() is None:
        return 0
    return append_entries(session_entries(telemetry))


def load_ledger(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load ledger entries from a runs file or a ledger directory.

    Skips blank lines, lines that are not JSON objects and records of other
    schemas, so a ledger file can be concatenated with other JSONL artifacts
    (or end in a torn line) without confusing the loader.
    """
    target = Path(path)
    if target.is_dir():
        target = target / RUNS_FILENAME
    records = read_jsonl(target, skip_invalid=True)
    return [record for record in records if record.get("schema") == LEDGER_SCHEMA]
