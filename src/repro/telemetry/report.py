"""Render a recorded trace into per-engine / per-phase summary tables.

``repro report out.jsonl`` loads a JSONL trace written by
:meth:`~repro.telemetry.runtime.Telemetry.write_trace` and prints:

* **engine runs** -- one row per ``engine_run`` root span: engine label,
  wall seconds, phases integrated under it, phase throughput;
* **span breakdown** -- per (engine, span name) aggregates: count, total
  and mean duration, share of the engine's wall time;
* **counters / gauges / histograms** -- the metrics snapshot;
* **events** -- counts per event name (case progress, batch fusion,
  bulletin refreshes).

Everything renders through :mod:`repro.analysis.reporting`, so the report
matches the benchmark harness's table style.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..analysis.reporting import render_table
from .jsonl import read_jsonl
from .profiler import profile_rows

__all__ = [
    "TRACE_SCHEMA",
    "TraceFormatError",
    "load_trace",
    "engine_run_rows",
    "span_breakdown_rows",
    "metrics_rows",
    "event_rows",
    "render_trace_report",
]

TRACE_SCHEMA = "repro-trace/1"

Record = Dict[str, Any]


class TraceFormatError(ValueError):
    """A trace file exists but cannot be understood as a repro trace."""


def load_trace(path) -> List[Record]:
    """Load a JSONL trace file into a list of record dicts.

    Raises :class:`TraceFormatError` (with the offending line number) on an
    empty file, malformed JSON, or a ``meta`` header declaring a different
    trace schema version -- the CLI turns these into one-line errors.
    """
    records = read_jsonl(path, TraceFormatError)
    if not records:
        raise TraceFormatError(f"{path}: empty trace file")
    first = records[0]
    if first.get("kind") == "meta":
        schema = first.get("schema")
        if schema != TRACE_SCHEMA:
            raise TraceFormatError(
                f"{path}: trace schema {schema!r} is not supported "
                f"(expected {TRACE_SCHEMA!r})"
            )
    return records


def _spans(records: Sequence[Record]) -> List[Record]:
    return [r for r in records if r.get("kind") == "span"]


def _engine_of(record: Record, by_id: Dict[int, Record]) -> Optional[str]:
    """Resolve the engine label of a span via its nearest engine_run ancestor."""
    current: Optional[Record] = record
    while current is not None:
        if current.get("name") == "engine_run":
            return str(current.get("attrs", {}).get("engine", "?"))
        parent = current.get("parent")
        current = by_id.get(parent) if parent is not None else None
    return None


def engine_run_rows(records: Sequence[Record]) -> List[Dict[str, object]]:
    """One row per ``engine_run`` span: wall time and phase throughput."""
    spans = _spans(records)
    by_id = {r["id"]: r for r in spans}
    rows: List[Dict[str, object]] = []
    for record in spans:
        if record.get("name") != "engine_run":
            continue
        attrs = record.get("attrs", {})
        phases = sum(
            1
            for other in spans
            if other.get("name") == "phase"
            and _ancestor_ids(other, by_id).count(record["id"]) > 0
        )
        duration = float(record.get("dur", 0.0))
        row: Dict[str, object] = {
            "engine": attrs.get("engine", "?"),
            "seconds": duration,
            "phases": phases,
            "phases/sec": phases / duration if duration > 0 and phases else float("nan"),
        }
        for key in ("instance", "rows", "paths", "method", "stale", "agents", "edges", "seed"):
            if key in attrs:
                row[key] = attrs[key]
        rows.append(row)
    return rows


def _ancestor_ids(record: Record, by_id: Dict[int, Record]) -> List[int]:
    ids: List[int] = []
    parent = record.get("parent")
    while parent is not None:
        ids.append(parent)
        parent_record = by_id.get(parent)
        parent = parent_record.get("parent") if parent_record is not None else None
    return ids


def span_breakdown_rows(records: Sequence[Record]) -> List[Dict[str, object]]:
    """Aggregate spans by (engine, name): count, total/mean time, share."""
    spans = _spans(records)
    by_id = {r["id"]: r for r in spans}
    engine_totals: Dict[Optional[str], float] = {}
    for record in spans:
        if record.get("name") == "engine_run":
            engine = str(record.get("attrs", {}).get("engine", "?"))
            engine_totals[engine] = engine_totals.get(engine, 0.0) + float(
                record.get("dur", 0.0)
            )
    grouped: Dict[tuple, List[float]] = {}
    for record in spans:
        if record.get("name") == "engine_run":
            continue
        engine = _engine_of(record, by_id)
        grouped.setdefault((engine, record["name"]), []).append(
            float(record.get("dur", 0.0))
        )
    rows: List[Dict[str, object]] = []
    for (engine, name), durations in sorted(
        grouped.items(), key=lambda item: (str(item[0][0]), -sum(item[1]))
    ):
        total = sum(durations)
        wall = engine_totals.get(engine, 0.0)
        rows.append(
            {
                "engine": engine if engine is not None else "-",
                "span": name,
                "count": len(durations),
                "total_s": total,
                "mean_ms": 1000.0 * total / len(durations),
                "share": total / wall if wall > 0 else float("nan"),
            }
        )
    return rows


def metrics_rows(records: Sequence[Record]) -> List[Dict[str, object]]:
    """Flatten the trace's metrics snapshot into table rows."""
    rows: List[Dict[str, object]] = []
    for record in records:
        if record.get("kind") != "metrics":
            continue
        for name in sorted(record.get("counters", {})):
            rows.append(
                {"metric": name, "type": "counter", "value": record["counters"][name]}
            )
        for name in sorted(record.get("gauges", {})):
            rows.append(
                {"metric": name, "type": "gauge", "value": record["gauges"][name]}
            )
        for name in sorted(record.get("histograms", {})):
            histogram = record["histograms"][name]
            count = histogram.get("count", 0)
            mean = histogram.get("total", 0.0) / count if count else float("nan")
            rows.append(
                {
                    "metric": name,
                    "type": "histogram",
                    "value": mean,
                    "count": count,
                    "min": histogram.get("min"),
                    "max": histogram.get("max"),
                    "p50": histogram.get("p50"),
                    "p95": histogram.get("p95"),
                }
            )
        for name in sorted(record.get("series", {})):
            points = record["series"][name]
            rows.append(
                {
                    "metric": name,
                    "type": "series",
                    "value": points[-1][1] if points else float("nan"),
                    "count": len(points),
                }
            )
    return rows


def event_rows(records: Sequence[Record]) -> List[Dict[str, object]]:
    """Count events per name (case progress, fusion decisions, refreshes)."""
    counts: Dict[str, int] = {}
    for record in records:
        if record.get("kind") == "event":
            counts[record["name"]] = counts.get(record["name"], 0) + 1
    return [
        {"event": name, "count": counts[name]} for name in sorted(counts)
    ]


def render_trace_report(records: Sequence[Record], title: str = "trace report") -> str:
    """Render the full report (engine runs, breakdown, metrics, events)."""
    sections: List[str] = []
    engines = engine_run_rows(records)
    if engines:
        sections.append(render_table(engines, title=f"{title}: engine runs"))
    breakdown = span_breakdown_rows(records)
    if breakdown:
        sections.append(render_table(breakdown, title="span breakdown (per engine)"))
    metrics = metrics_rows(records)
    if metrics:
        sections.append(render_table(metrics, title="metrics"))
    events = event_rows(records)
    if events:
        sections.append(render_table(events, title="events"))
    profile = profile_rows(records)
    if profile:
        sections.append(
            render_table(profile, title="sampling profiler (top self-time locations)")
        )
    if not sections:
        sections.append("(empty trace)")
    return "\n\n".join(sections)
