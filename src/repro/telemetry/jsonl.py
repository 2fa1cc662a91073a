"""The one JSONL line reader behind every telemetry loader.

Traces, bench records, comparison inputs, the run ledger and sweep rows
are all JSONL files: one JSON object per line.  :func:`read_jsonl` parses them the same
way everywhere, and a line that is not valid JSON or not a JSON object is
reported by file and 1-based line number.  Each loader keeps its own
filtering on top (the ledger skips records of other schemas, bench loading
keeps only bench records).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Type

Record = Dict[str, Any]


def read_jsonl(
    path, error: Type[Exception] = ValueError, skip_invalid: bool = False
) -> List[Record]:
    """Return the JSON objects of the non-blank lines of ``path``, in order.

    A line that is not valid JSON, or is valid JSON but not an object,
    raises ``error`` naming ``path`` and the line -- or, with
    ``skip_invalid``, is skipped.
    """
    records: List[Record] = []
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as decode_error:
                if skip_invalid:
                    continue
                raise error(
                    f"{path}: line {number} is not valid JSON ({decode_error.msg})"
                ) from decode_error
            if isinstance(record, dict):
                records.append(record)
            elif not skip_invalid:
                raise error(f"{path}: line {number} is not a JSON object")
    return records
