"""Table 8: UTCQ vs TED compression on the DK, CD and HZ-lite datasets.

Each case runs both Spark compression jobs once through
``repro.stats.table8_stats`` (``benchmark.pedantic(rounds=1)`` — the jobs
are deterministic and heavy), prints the Table 8 row pair, and asserts the
paper's *shape*: UTCQ beats TED by ≥1.8× on total compression ratio, on
every component, and is the faster compressor.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from _bench_common import Announcer
from repro.stats import table8_stats


@pytest.mark.parametrize("name", ["dk", "cd", "hz"])
def test_table8(spark, benchmark, capfd, name):
    st = benchmark.pedantic(table8_stats, args=(spark, name), rounds=1, iterations=1)
    utcq, ted = st["UTCQ"], st["TED"]

    announce = Announcer(capfd)
    announce(f"\n=== Table 8 row [{name}] ({st['n_inst']} instances) ===")
    announce(
        f"{'method':6} {'Total':>8} {'T':>8} {'E':>8} {'D':>8} {'Tp':>8} "
        f"{'p':>8} {'job_s':>7} {'kern_s':>7}"
    )
    for label, s in (("UTCQ", utcq), ("TED", ted)):
        announce(
            f"{label:6} {s['Total']:8.3f} {s['T']:8.3f} {s['E']:8.3f} "
            f"{s['D']:8.3f} {s['Tp']:8.3f} {s['p']:8.3f} {s['job_s']:7.1f} "
            f"{s['kernel_ms'] / 1e3:7.1f}"
        )

    # Paper: UTCQ beats TED by >2–3× on total CR; our lite datasets land
    # at ≈2–2.5× (EXPERIMENTS.md discusses the residual gap).
    assert utcq["Total"] > 1.8 * ted["Total"], "UTCQ must beat TED ~2x on total CR"
    assert utcq["T"] > ted["T"], "SIAR must beat TED's time pairs"
    assert utcq["E"] > ted["E"], "referential E must beat TED's E"
    assert utcq["D"] > ted["D"], "referential D must beat per-instance PDDP"
    assert utcq["Tp"] > ted["Tp"], "referential T' must beat raw bit-strings"
    assert utcq["p"] >= ted["p"] - 1e-9, "probability encoding is shared"
    assert utcq["kernel_ms"] < ted["kernel_ms"], "UTCQ kernels must be faster"
