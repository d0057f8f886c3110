"""Probabilistic where/when/range queries over compressed data — demo job.

    spark-submit jobs/query_demo.py [dataset] [n_traj]

Compresses a dataset, builds the StIU index DataFrames, runs one query of
each type (driver engine + the Spark-SQL range job) and prints results and
latencies.
"""
import sys
import time

from _common import get_spark, print_table


def main() -> None:
    from repro.core.compress_job import compress_dataset
    from repro.core.config import DATASET_CONFIGS
    from repro.core.decoder import decode_instance_partial, decode_timestamps
    from repro.query.queries import UTCQEngine
    from repro.query.query_job import range_query_job
    from repro.query.stiu import index_dataframes
    from repro.roadnet.grid import Rect
    from repro.trajgen import DATASET_PROFILES
    from repro.trajgen.spark_io import dataset_df

    name = sys.argv[1] if len(sys.argv) > 1 else "cd"
    n_traj = int(sys.argv[2]) if len(sys.argv) > 2 else 200
    spark = get_spark("query-demo")
    prof, cfg = DATASET_PROFILES[name], DATASET_CONFIGS[name]
    instances, times, net = dataset_df(spark, prof, n_traj=n_traj)
    compressed = compress_dataset(spark, instances, times, net, cfg).cache()
    compressed.count()
    tindex, sindex = index_dataframes(compressed)
    print(f"index: {tindex.count()} temporal tuples, {sindex.count()} spatial tuples")

    engine = UTCQEngine.from_compressed_df(compressed, net, cfg)
    entry = engine.entries[0]
    tss = decode_timestamps(entry.ct)
    t_mid = (tss[0] + tss[-1]) // 2

    t0 = time.perf_counter()
    wh = engine.where(0, t_mid, 0.2)
    wh_ms = (time.perf_counter() - t0) * 1e3

    # a mapped location actually traversed by trajectory 0's reference
    from repro.core.model import ted_to_instance

    ted = decode_instance_partial(entry.ct, cfg, net.max_out_degree, 0)
    inst = ted_to_instance(net, ted)
    edge = inst.path[len(inst.path) // 2]
    t0 = time.perf_counter()
    wn = engine.when(0, edge, 0.5, 0.2)
    wn_ms = (time.perf_counter() - t0) * 1e3

    xs = [c[0] for c in net.coords.values()]
    ys = [c[1] for c in net.coords.values()]
    rect = Rect(min(xs), min(ys), (min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2)
    t0 = time.perf_counter()
    rg = engine.range(rect, t_mid, 0.3)
    rg_ms = (time.perf_counter() - t0) * 1e3
    t0 = time.perf_counter()
    rg_spark = range_query_job(spark, compressed, sindex, net, cfg, rect, t_mid, 0.3)
    rg_spark_ms = (time.perf_counter() - t0) * 1e3
    assert rg == rg_spark, "Spark range job must agree with the driver engine"

    print_table(
        f"queries on {name} (n_traj={n_traj})",
        ["query", "result", "latency"],
        [
            ["where(0, t_mid, 0.2)", str(wh)[:70], f"{wh_ms:.2f} ms"],
            [f"when(0, {edge}, 0.5, 0.2)", str(wn)[:70], f"{wn_ms:.2f} ms"],
            [f"range(half-net, t_mid, 0.3)", f"{len(rg)} trajectories", f"{rg_ms:.2f} ms"],
            ["range via Spark SQL job", f"{len(rg_spark)} trajectories", f"{rg_spark_ms:.0f} ms"],
        ],
    )
    spark.stop()


if __name__ == "__main__":
    main()
