"""Table 8 — UTCQ vs TED compression ratios and times on DK/CD/HZ-lite.

    spark-submit jobs/table8_compression.py [dataset ...] [--n-traj N]

Prints one row per (dataset, method) with the same structure as the paper's
Table 8: Total / T / E / D / T' / p compression ratios plus wall-clock job
time.  The rows are recorded against the paper's numbers in EXPERIMENTS.md.
"""
import argparse

from _common import get_spark, print_table


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("datasets", nargs="*", default=["dk", "cd", "hz"])
    p.add_argument("--n-traj", type=int, default=None)
    return p.parse_args(argv)


def fmt_row(name, method, s, secs):
    return [
        name, method,
        f"{s['Total']:.3f}", f"{s['T']:.3f}", f"{s['E']:.3f}",
        f"{s['D']:.3f}", f"{s['Tp']:.3f}", f"{s['p']:.3f}",
        f"{secs:.1f}", f"{s['kernel_ms'] / 1e3:.1f}",
    ]


def main() -> None:
    from repro.stats import table8_stats

    args = parse_args()
    spark = get_spark("table8")
    rows = []
    for name in args.datasets:
        st = table8_stats(spark, name, args.n_traj)
        print(f"[{name}] {st['n_inst']} instances compressed")
        for method in ("UTCQ", "TED"):
            rows.append(fmt_row(name, method, st[method], st[method]["job_s"]))
    print_table(
        "Table 8 (lite): compression ratio and time",
        ["dataset", "method", "Total", "T", "E", "D", "T'", "p",
         "job s", "kernel s"],
        rows,
    )
    spark.stop()


if __name__ == "__main__":
    main()
