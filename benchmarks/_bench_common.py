"""Shared helpers for the benchmarks."""
from __future__ import annotations


class Announcer:
    """Prints through ``capfd.disabled()`` so the table rows land in
    ``bench_output.txt`` even on passing runs (pytest's fd-level capture
    swallows ordinary prints of passing tests)."""

    def __init__(self, capfd=None):
        self.capfd = capfd

    def __call__(self, msg: str) -> None:
        if self.capfd is None:
            print(msg)
            return
        with self.capfd.disabled():
            print(msg, flush=True)
