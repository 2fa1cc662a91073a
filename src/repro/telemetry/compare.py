"""Cross-run comparison and regression detection (``repro compare A B``).

Two observability artifacts can be diffed:

* **bench-record files** (``repro-bench/1``, or run-ledger files whose
  entries carry the same fields): records are keyed by their config
  fingerprint (see :func:`repro.telemetry.ledger.config_fingerprint`), the
  best (fastest) run per key on each side is kept, and each matched key
  gets a verdict;
* **trace files** (``repro-trace/1``): spans are aggregated into per-name
  *exclusive self time* (duration minus the duration of direct children),
  and the per-name totals are diffed.

Verdicts use a noise threshold (default 15%): ``regression`` when B is
more than ``threshold`` slower than A, ``improvement`` when more than
``threshold`` faster, ``ok`` otherwise.  Entries faster than
:data:`MIN_SELF_SECONDS` on both sides are always ``ok`` -- timer
granularity dominates down there.  Unmatched keys are reported as
informational ``only-a`` / ``only-b`` rows, never as regressions, so
adding a benchmark does not fail the comparison against an old baseline.

The CI ``bench-compare`` job runs this against the committed baselines in
``benchmarks/baselines/`` and publishes the delta table (non-blocking);
``--fail-on-regression`` makes the exit code reflect the verdicts for
local gating.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Union

from .jsonl import read_jsonl
from .ledger import LEDGER_SCHEMA, config_fingerprint

__all__ = [
    "NOISE_THRESHOLD",
    "MIN_SELF_SECONDS",
    "CompareError",
    "detect_kind",
    "load_comparable",
    "self_time_totals",
    "compare_traces",
    "compare_bench_records",
    "comparison_summary",
    "render_comparison_report",
]

NOISE_THRESHOLD = 0.15
MIN_SELF_SECONDS = 1e-3

Record = Dict[str, Any]
Row = Dict[str, object]


class CompareError(ValueError):
    """A comparison input could not be read or understood."""


def _load_jsonl(path: Union[str, Path]) -> List[Record]:
    try:
        records = read_jsonl(path, CompareError)
    except OSError as error:
        raise CompareError(f"cannot read {path}: {error.strerror or error}") from error
    if not records:
        raise CompareError(f"{path}: no records found (empty file?)")
    return records


def detect_kind(records: Sequence[Record]) -> str:
    """Classify loaded records as ``trace`` or ``bench`` (ledger counts as
    bench -- its entries carry the same measured fields)."""
    first = records[0]
    if first.get("kind") == "meta" and str(first.get("schema", "")).startswith(
        "repro-trace/"
    ):
        return "trace"
    schemas = {record.get("schema") for record in records}
    if "repro-bench/1" in schemas or LEDGER_SCHEMA in schemas:
        return "bench"
    if any(record.get("kind") == "span" for record in records):
        return "trace"
    raise CompareError(
        "unrecognised records: expected a repro-trace/1 trace, a "
        "repro-bench/1 records file, or a repro-ledger/1 runs file"
    )


def load_comparable(path: Union[str, Path]) -> Tuple[str, List[Record]]:
    """Load a file and return ``(kind, records)`` with kind auto-detected."""
    records = _load_jsonl(path)
    return detect_kind(records), records


# Trace comparison -----------------------------------------------------------


def self_time_totals(records: Sequence[Record]) -> Dict[str, float]:
    """Aggregate exclusive self time (seconds) per span name.

    A span's self time is its duration minus its direct children's
    durations, clamped at zero (clock skew between nested perf_counter
    reads can make the children sum slightly past the parent).
    """
    spans = [r for r in records if r.get("kind") == "span"]
    child_totals: Dict[Any, float] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            child_totals[parent] = child_totals.get(parent, 0.0) + float(
                span.get("dur", 0.0)
            )
    totals: Dict[str, float] = {}
    for span in spans:
        self_time = float(span.get("dur", 0.0)) - child_totals.get(span.get("id"), 0.0)
        name = str(span.get("name", "?"))
        totals[name] = totals.get(name, 0.0) + max(self_time, 0.0)
    return totals


def _verdict(a: float, b: float, threshold: float) -> str:
    if a < MIN_SELF_SECONDS and b < MIN_SELF_SECONDS:
        return "ok"
    if a > 0 and b > a * (1.0 + threshold):
        return "regression"
    if a > 0 and b < a * (1.0 - threshold):
        return "improvement"
    return "ok"


def compare_traces(
    records_a: Sequence[Record],
    records_b: Sequence[Record],
    threshold: float = NOISE_THRESHOLD,
) -> List[Row]:
    """Diff per-span-name self-time totals of two traces."""
    totals_a = self_time_totals(records_a)
    totals_b = self_time_totals(records_b)
    rows: List[Row] = []
    for name in sorted(set(totals_a) | set(totals_b)):
        a = totals_a.get(name)
        b = totals_b.get(name)
        if a is None or b is None:
            rows.append(
                {
                    "span": name,
                    "self_a": a if a is not None else float("nan"),
                    "self_b": b if b is not None else float("nan"),
                    "delta": float("nan"),
                    "verdict": "only-a" if b is None else "only-b",
                }
            )
            continue
        delta = (b - a) / a if a > 0 else float("nan")
        rows.append(
            {
                "span": name,
                "self_a": a,
                "self_b": b,
                "delta": delta,
                "verdict": _verdict(a, b, threshold),
            }
        )
    rows.sort(key=lambda row: -(row["self_a"] if row["self_a"] == row["self_a"] else 0.0))  # type: ignore[operator]
    return rows


# Bench comparison -----------------------------------------------------------


def _bench_key(record: Mapping[str, Any]) -> str:
    fingerprint = record.get("fingerprint")
    return str(fingerprint) if fingerprint else config_fingerprint(record)


def _bench_seconds(record: Mapping[str, Any]) -> float:
    seconds = record.get("seconds", record.get("wall_seconds"))
    try:
        return float(seconds)
    except (TypeError, ValueError):
        return float("nan")


def _bench_label(record: Mapping[str, Any]) -> str:
    parts = [
        str(record[key])
        for key in ("bench", "section", "engine", "method", "instance")
        if record.get(key) not in (None, "-")
    ]
    return " / ".join(parts) if parts else _bench_key(record)


def _best_by_key(records: Sequence[Record]) -> Dict[str, Record]:
    """Best (fastest) record per fingerprint; skips non-timed records."""
    best: Dict[str, Record] = {}
    for record in records:
        seconds = _bench_seconds(record)
        if seconds != seconds:
            continue
        key = _bench_key(record)
        current = best.get(key)
        if current is None or seconds < _bench_seconds(current):
            best[key] = record
    return best


def compare_bench_records(
    records_a: Sequence[Record],
    records_b: Sequence[Record],
    threshold: float = NOISE_THRESHOLD,
) -> List[Row]:
    """Diff two bench/ledger record sets keyed by config fingerprint."""
    best_a = _best_by_key(records_a)
    best_b = _best_by_key(records_b)
    rows: List[Row] = []
    for key in sorted(set(best_a) | set(best_b)):
        a = best_a.get(key)
        b = best_b.get(key)
        label = _bench_label(a if a is not None else b)  # type: ignore[arg-type]
        if a is None or b is None:
            rows.append(
                {
                    "entry": label,
                    "fingerprint": key,
                    "seconds_a": _bench_seconds(a) if a else float("nan"),
                    "seconds_b": _bench_seconds(b) if b else float("nan"),
                    "delta": float("nan"),
                    "verdict": "only-a" if b is None else "only-b",
                }
            )
            continue
        seconds_a = _bench_seconds(a)
        seconds_b = _bench_seconds(b)
        delta = (seconds_b - seconds_a) / seconds_a if seconds_a > 0 else float("nan")
        row: Row = {
            "entry": label,
            "fingerprint": key,
            "seconds_a": seconds_a,
            "seconds_b": seconds_b,
            "delta": delta,
            "verdict": _verdict(seconds_a, seconds_b, threshold),
        }
        gap_a, gap_b = a.get("gap"), b.get("gap")
        if gap_a is not None or gap_b is not None:
            row["gap_a"] = gap_a if gap_a is not None else float("nan")
            row["gap_b"] = gap_b if gap_b is not None else float("nan")
        rows.append(row)
    return rows


# Rendering ------------------------------------------------------------------


def comparison_summary(rows: Sequence[Row]) -> Dict[str, int]:
    """Count verdicts across comparison rows."""
    counts = {"regression": 0, "improvement": 0, "ok": 0, "only-a": 0, "only-b": 0}
    for row in rows:
        verdict = str(row.get("verdict", "ok"))
        counts[verdict] = counts.get(verdict, 0) + 1
    return counts


def render_comparison_report(
    rows: Sequence[Row],
    kind: str,
    threshold: float = NOISE_THRESHOLD,
    title: str = "comparison",
) -> str:
    """Render the comparison table plus a one-line verdict summary."""
    from ..analysis.reporting import render_table

    summary = comparison_summary(rows)
    matched = summary["regression"] + summary["improvement"] + summary["ok"]
    lines = []
    if rows:
        # Column union across rows: only solver entries carry gap columns,
        # and render_table alone would key off the first row.
        columns: List[str] = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        lines.append(
            render_table(list(rows), columns=columns, title=f"{title} ({kind})")
        )
    else:
        lines.append(f"{title} ({kind})\n(nothing to compare)")
    verdict_bits = [
        f"{summary['regression']} regression(s)",
        f"{summary['improvement']} improvement(s)",
        f"{matched} matched entries at {threshold:.0%} noise threshold",
    ]
    unmatched = summary["only-a"] + summary["only-b"]
    if unmatched:
        verdict_bits.append(f"{unmatched} unmatched (informational)")
    lines.append("summary: " + ", ".join(verdict_bits))
    return "\n\n".join(lines)
