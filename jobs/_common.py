"""Shared helpers for spark-submit entrypoints.

Jobs are thin wrappers: every piece of logic lives in ``repro.*`` functions
that take a SparkSession and return DataFrames/dicts, so the same code runs
under pytest (via the ``spark`` fixture) and under spark-submit.
"""
from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


def get_spark(app: str):
    from repro.spark_session import spark_builder

    return (
        spark_builder(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    print(f"\n## {title}")
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    print(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("-|-".join("-" * w for w in widths))
    for r in rows:
        print(" | ".join(str(c).ljust(w) for c, w in zip(r, widths)))
