"""Report serialization: JSON round-trip and the flat CSV schema.

Reports are plain dicts built from Python scalars, lists and dicts, so
json.loads(emit_json(report)) == report holds exactly.  The CSV view is one
row per (trial, statistic) with a fixed column set; histograms, spectra and
aggregates live only in the JSON form.
"""

from __future__ import annotations

import csv
import io
import json
import platform

import numpy as np

CSV_COLUMNS = ("subcommand", "d1", "d2", "p", "alpha", "field", "trial", "statistic", "value")


def platform_block() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.platform(),
    }


def emit_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def emit_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for rec in report.get("records", []):
        writer.writerow({col: rec.get(col, "") for col in CSV_COLUMNS})
    return buf.getvalue()


def render(report: dict, output_format: str) -> str:
    if output_format == "json":
        return emit_json(report)
    if output_format == "csv":
        return emit_csv(report)
    raise ValueError(f"unknown output format {output_format!r}")
