"""Versioned JSON/CSV report plumbing for the command-line surface.

Reports are deterministic apart from the runtime_ms field: keys are
sorted and violation lists arrive pre-sorted from the suites, so two
clean runs of the same command produce byte-identical JSON modulo
runtime_ms.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Optional, Sequence

SCHEMA_VERSION = 3


def make_report(
    command: str,
    inputs: dict,
    results: dict,
    violations: Optional[list] = None,
    runtime_ms: int = 0,
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
        "violations": violations or [],
        "runtime_ms": runtime_ms,
    }


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def rows_csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w") as fh:
        fh.write(rows_csv(header, rows))
