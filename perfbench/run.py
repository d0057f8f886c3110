"""UTCQ benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload hz --seed 1 --seconds 8 --trace 0

In order: set-up (Spark session, dataset generation, a warm-up compression
job), a timed Spark compression job, loading the query engine from the
compressed rows, a full decode, choosing the queries, and the measured
phase: a fixed number of rounds (from ``--seconds``), each an engine load,
every where/when/range query once from one client against the in-process
``UTCQEngine`` with full decodes spread between them, and two Spark range
jobs, after an untimed one before the first round, with a second
compression job halfway.  Every output is checked
against a computation made apart from the program.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, the end-to-end metrics with ``--trace 0``.  ``--trace 1``
is the separate traced run: the same set-up, compression, load, decode and
queries with spans, the compression kernel serially in this process, one
query round untraced and traced, no measured phase; it reports the
per-layer metrics.

Run from the root of a checkout; everything the run writes goes under
``.perfbench/`` there.  ``--tiny`` shrinks the workload to a few seconds.
See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SPARK_CORES = max(1, min(4, os.cpu_count() or 1))
#: rounds of the query loop timed untraced and then traced in a traced run
TRACE_ROUNDS = 1
DEADLINE_S = 175
#: rounds of the measured loop at the least: each query is timed at least
#: this often, and its latency is the least of its times
MIN_ROUNDS = 2
#: Spark range jobs after each round of the measured loop, after one
#: untimed warm-up job before the first round
SPARK_JOBS_PER_ROUND = 2
#: full decode passes spread over each round of the measured loop
DECODE_PASSES = 2

E2E_UNITS = {
    "setup_s": "s", "compress_s": "s", "ratio_total": "ratio",
    "index_bits_per_inst": "bit", "index_load_s": "s", "decode_s": "s",
    "where_p50_ms": "ms", "where_p99_ms": "ms", "when_p50_ms": "ms",
    "when_p99_ms": "ms", "range_p50_ms": "ms", "range_p99_ms": "ms",
    "spark_range_s": "s", "peak_rss_mb": "MB",
}

#: per-layer span names (self time, seconds) and counters
LAYER_SPANS = {
    "trajgen.generate_s": "trajgen.generate",
    "pivots.select_pivots_s": "pivots.select_pivots",
    "fjd.score_matrix_s": "fjd.score_matrix",
    "refselect.select_references_s": "refselect.select_references",
    "encoder.encode_trajectory_s": "encoder.encode_trajectory",
    "stiu.build_traj_tuples_s": "stiu.build_traj_tuples",
    "compress_job.ct_from_row_s": "compress_job.ct_from_row",
    "decoder.decode_trajectory_s": "decoder.decode_trajectory",
    "decoder.partial_decode_s": "decoder.partial_decode",
    "reference.path_geometry_s": "reference.path_geometry",
    "queries.range_candidates_s": "queries.range_candidates",
    "queries.refine_range_s": "queries.refine_range",
}
LAYER_COUNTS = (
    "fjd.pairs", "refselect.refs", "encoder.blob_bits", "stiu.spatial_tuples",
    "stiu.temporal_tuples", "decoder.partial_decodes_where",
    "decoder.partial_decodes_when", "decoder.partial_decodes_range",
    "bits.read_calls", "queries.range_cands_index", "queries.range_cands_lemma4",
    "queries.range_trajs_refined", "queries.range_hits",
)
#: operations set aside because a known fault answers them wrongly (README)
FAULT_COUNTS = (
    "faults.roundtrip_blobs", "faults.queries_on_bad_blobs",
    "faults.range_first_visit", "faults.when_lemma1",
)
KERNEL_SPANS = (
    "pivots.select_pivots", "fjd.score_matrix", "refselect.select_references",
    "encoder.encode_trajectory", "stiu.build_traj_tuples",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="few-second smoke size")
    return p.parse_args(argv)


def configure_environment() -> None:
    """Point Python, the JVM and the Spark workers at this checkout."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"perfbench: {SRC / 'repro'} not found; run from a checkout")
    sys.path.insert(0, str(SRC))
    for sub in ("tmp", "spark-local", "traces"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    tmp, local = WORK / "tmp", WORK / "spark-local"
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([old] if old else []))
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    # No hsperfdata files under /tmp from the launcher or the Spark driver JVM.
    os.environ["JAVA_TOOL_OPTIONS"] = "-XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{SPARK_CORES}] --driver-memory 2g "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        f"--conf spark.local.dir={local} "
        f"--driver-java-options -Djava.io.tmpdir={tmp} pyspark-shell"
    )


def start_spark(partitions: int):
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(partitions))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )


def stop_spark(spark) -> None:
    """Stop the session, then the JVM it launched, and wait for both."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the JVM exits on EOF
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def settle() -> None:
    """Collect garbage, then exempt every live object from later
    collections, so that the benchmark's own data (inputs, oracle) adds no
    collector work to the timed spans that follow."""
    gc.collect()
    gc.freeze()


def pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


class Run:
    """One benchmark run; ``tracer`` is None for the end-to-end run."""

    def __init__(self, args, tracer) -> None:
        import workloads as W

        self.t_start = time.perf_counter()
        self.args = args
        self.tracer = tracer
        w = W.WORKLOADS[args.workload]
        self.w = W.tiny(w) if args.tiny else w
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.compress_times: list[float] = []
        self.load_times: list[float] = []
        self.spark_times: list[float] = []
        #: per trajectory id, the wall time of each decode in the loop
        self.decode_times: dict[int, list[float]] = {}
        self.faults = dict.fromkeys(FAULT_COUNTS, 0)
        #: trajectories whose blob fails its round trip by the known fault
        self.bad_blobs: set[int] = set()

    def span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    # -- set-up ------------------------------------------------------------
    def setup(self):
        import workloads as W
        from repro.core.compress_job import compress_dataset
        from repro.trajgen import generate_trajectory
        from repro.trajgen.spark_io import (
            INSTANCES_SCHEMA, TIMES_SCHEMA, trajectories_to_pandas,
        )

        w, seed = self.w, self.args.seed
        t0 = time.perf_counter()
        with self.span("setup"):
            spark = self.spark = start_spark(w.partitions_per_core * SPARK_CORES)
            self.net = W.network_of(w)
            gen = generate_trajectory
            if self.tracer:
                def gen(*a):
                    with self.tracer.span("trajgen.generate"):
                        return generate_trajectory(*a)
            self.trajs = W.generate(w, self.net, seed, gen)
            self.inst_pdf, self.times_pdf = trajectories_to_pandas(self.net, self.trajs)
            # createDataFrame keeps the rows in the JVM as Arrow batches.
            self.instances = spark.createDataFrame(self.inst_pdf, INSTANCES_SCHEMA)
            self.times = spark.createDataFrame(self.times_pdf, TIMES_SCHEMA)
            # Warm-up: the first pandas-UDF job of a session starts the
            # Python workers and the JVM compiles the job's hot loops as
            # rows flow; time only warm work after it.
            cut = f"traj_id < {w.warmup_traj}"
            compress_dataset(
                spark, self.instances.filter(cut), self.times.filter(cut),
                self.net, w.cfg,
            ).count()
        self.metrics["setup_s"] = time.perf_counter() - t0

    # -- write path ----------------------------------------------------------
    def compress_job(self):
        """A warm ``compress_dataset``, cached and counted so that every row
        is materialised; returns the DataFrame and records its wall time."""
        from repro.core.compress_job import compress_dataset

        t0 = time.perf_counter()
        with self.span("compress_job"):
            df = compress_dataset(
                self.spark, self.instances, self.times, self.net, self.w.cfg
            ).cache()
            n_rows = df.count()
        self.compress_times.append(time.perf_counter() - t0)
        if n_rows != len(self.trajs):
            self.problems.extend([f"{n_rows} compressed rows for {len(self.trajs)} trajectories"])
        return df

    @staticmethod
    def blobs(df) -> dict[int, bytes]:
        return {r.traj_id: bytes(r.blob) for r in df.select("traj_id", "blob").collect()}

    def compress(self):
        """The first compression job; its rows feed everything after it."""
        import checks as C
        from repro.core.compress_job import ratio_summary

        self.compressed = self.compress_job()
        self.first_blobs = self.blobs(self.compressed)
        summary = ratio_summary(self.compressed)
        self.metrics["ratio_total"] = summary["Total"]
        cols = ["traj_id", "nbits", "comp_t", "comp_e", "comp_d", "comp_tp",
                "comp_p", "comp_meta"]
        rows = [r.asDict() for r in self.compressed.select(*cols).collect()]
        for r in rows:
            self.problems.extend(C.component_bits(r))
        expected = C.original_bits(self.inst_pdf, self.times_pdf) / sum(
            r["nbits"] for r in rows
        )
        if abs(expected - summary["Total"]) > 1e-9 * expected:
            self.problems.extend([f"ratio_total {summary['Total']} != recomputed {expected}"])

    def load_engine(self):
        """``UTCQEngine.from_compressed_df``; returns its wall time."""
        from repro.query.queries import UTCQEngine

        self.engine = None
        t0 = time.perf_counter()
        with self.span("index_load"):
            self.engine = UTCQEngine.from_compressed_df(
                self.compressed, self.net, self.w.cfg
            )
        return time.perf_counter() - t0

    def decode(self):
        """First full decode, checked against the input; its time is not
        reported (the loop's passes are)."""
        import checks as C
        from repro.core.decoder import decode_trajectory
        from repro.query.stiu import index_size_bits

        entries = self.engine.entries.values()
        n_t = sum(len(e.temporal) for e in entries)
        n_s = sum(len(e.spatial) for e in entries)
        self.metrics["index_bits_per_inst"] = index_size_bits(n_t, n_s) / len(self.inst_pdf)

        cfg, deg = self.w.cfg, self.net.max_out_degree
        self.decoded = {}
        with self.span("decode"):
            for tid in sorted(self.engine.entries):
                with self.span("decoder.decode_trajectory"):
                    self.decoded[tid] = decode_trajectory(
                        self.engine.entries[tid].ct, cfg, deg)

        if sorted(self.decoded) != [t.traj_id for t in self.trajs]:
            self.problems.extend(["decoded trajectory ids differ from the input"])
            return
        for t in self.trajs:
            problems, empty_tprime = C.roundtrip(self.net, cfg, t, self.decoded[t.traj_id])
            self.problems.extend(problems)
            if empty_tprime:
                self.bad_blobs.add(t.traj_id)
                self.log(f"traj {t.traj_id}: instances {empty_tprime} lose their "
                         "empty trimmed T' (known fault)")
        self.faults["faults.roundtrip_blobs"] = len(self.bad_blobs)
        # A blob that fails its round trip stays in the dataset but not in
        # the oracle: no query that needs its answer is asked.
        self.oracle = C.Oracle(self.net, {
            tid: C.as_trajectory(self.net, d)
            for tid, d in self.decoded.items() if tid not in self.bad_blobs
        })

    # -- read path -------------------------------------------------------------
    def prepare_queries(self):
        """The round's queries and their expected answers.

        Each type takes its candidates in order until the round holds
        ``mix`` of them.  A candidate is set aside, and counted under
        ``faults.*``, when its answer needs a blob that fails its round
        trip, or when the engine answers it wrongly in the way a known
        fault explains (``Oracle.*_loss``): the failed share of a run has
        to be the same for every seed, and these depend on the seed.  Any
        other wrong answer stays in the round, where it fails the run.
        """
        import checks as C
        import workloads as W
        from repro.core.compress_job import network_grid
        from repro.core.decoder import decode_trajectory
        from repro.query.queries import UTCQEngine

        cfg, mix, o, eng = self.w.cfg, self.w.mix, self.oracle, self.engine
        grid = network_grid(self.net, cfg.grid_n)
        cands = W.query_candidates(self.w, self.net, grid, self.trajs, self.args.seed)
        spans = {t.traj_id: (t.timestamps()[0], t.timestamps()[-1]) for t in self.trajs}

        def needs_bad_blob(kind, q):
            if kind == "range":
                return any(spans[b][0] <= q[1] <= spans[b][1] for b in self.bad_blobs)
            return q[0] in self.bad_blobs

        def known_fault(kind, q, got, want):
            if kind == "range" and o.first_visit_loss(eng, grid, *q, got, want):
                return "faults.range_first_visit"
            if kind == "when" and o.lemma1_loss(q[0], q[3], cfg.eta_p, got, want):
                return "faults.when_lemma1"
            return None

        kinds = {}
        for kind, n in (("where", mix.where), ("when", mix.when), ("range", mix.range)):
            kept = kinds[kind] = []
            set_aside = 0
            for q in getattr(cands, kind):
                if len(kept) == n:
                    break
                if set_aside > n:
                    raise RuntimeError(f"more than {n} {kind} candidates set aside")
                if needs_bad_blob(kind, q):
                    fault = "faults.queries_on_bad_blobs"
                else:
                    want = getattr(o, kind)(*q)
                    got = getattr(eng, kind)(*q)
                    fault = None if C.SAME[kind](got, want) else known_fault(kind, q, got, want)
                if fault:
                    self.faults[fault] += 1
                    set_aside += 1
                else:
                    kept.append((q, want))
        # Round-robin interleaving of the three query types.
        ops = []
        for i in range(max(len(v) for v in kinds.values())):
            for kind, v in kinds.items():
                if i < len(v):
                    ops.append((kind, *v[i]))
        self.ops = ops
        self.spark_queries = kinds["range"][: 1 + self.rounds() * SPARK_JOBS_PER_ROUND]
        self.log("set aside for known faults: " + ", ".join(
            f"{k.removeprefix('faults.')} {v}" for k, v in self.faults.items()))

        p = self.probe = W.probe()
        self.probe_engine = UTCQEngine.from_trajectories(p.net, p.cfg, [p.traj])
        dec = decode_trajectory(self.probe_engine.entries[0].ct, p.cfg, p.net.max_out_degree)
        self.probe_expected = C.Oracle(p.net, {0: C.as_trajectory(p.net, dec)}).range(
            p.rect, p.tq, p.alpha
        )

    def query_round(self, decode: bool = False) -> None:
        """One round: every distinct query once, then the fault probe.
        Untraced, each query's time is added to ``op_times``.  With
        ``decode``, ``DECODE_PASSES`` full decode passes are spread over
        the round, one trajectory at a time between queries, and each
        decode's time is recorded."""
        import checks as C
        from repro.core.decoder import decode_trajectory

        eng = self.engine
        fns = {"where": eng.where, "when": eng.when, "range": eng.range}
        tracer = self.tracer
        tids = sorted(eng.entries) * DECODE_PASSES if decode else []
        decode_at: dict[int, list[int]] = {}
        for k, tid in enumerate(tids):
            decode_at.setdefault(len(self.ops) * k // len(tids), []).append(tid)
        cfg, deg = self.w.cfg, self.net.max_out_degree
        for i, (kind, q, want) in enumerate(self.ops):
            for tid in decode_at.get(i, ()):
                t0 = time.perf_counter()
                dec = decode_trajectory(eng.entries[tid].ct, cfg, deg)
                self.decode_times.setdefault(tid, []).append(time.perf_counter() - t0)
                if dec != self.decoded[tid]:
                    self.problems.extend([f"traj {tid}: decode differs between passes"])
            if tracer:
                with tracer.span("query." + kind):
                    got = fns[kind](*q)
            else:
                t0 = time.perf_counter()
                got = fns[kind](*q)
                self.op_times[i].append(time.perf_counter() - t0)
            if not C.SAME[kind](got, want):
                self.failed += 1
                self.problems.extend([f"{kind}{q}: got {got}, expected {want}"])
        p = self.probe
        # The probe's wrong answer is the StIU first-visit fault: counted
        # as a failed operation, not as an incorrect result.
        if self.probe_engine.range(p.rect, p.tq, p.alpha) != self.probe_expected:
            self.failed += 1
        self.attempted += len(self.ops) + 1

    def rounds(self) -> int:
        """Rounds of the measured loop: the whole rounds that fit in the
        run length on the reference machine, a fixed number for it."""
        if self.args.tiny:
            return 1
        return max(MIN_ROUNDS, int(self.args.seconds // self.w.round_s))

    def measure(self):
        """The measured phase: rounds of the closed loop, each starting with
        an engine load and spreading full decodes over its queries, then
        ``SPARK_JOBS_PER_ROUND`` Spark range jobs; halfway through, a second
        compression job.  Every timing is so sampled across the whole phase
        rather than in one burst, which evens out a host whose speed drifts
        from one second to the next."""
        from repro.query.stiu import index_dataframes

        _, sindex = index_dataframes(self.compressed)
        sindex = sindex.cache()
        sindex.count()
        spark_queries = iter(self.spark_queries)
        # The session's first range job plans, compiles and starts workers
        # for a new kind of job and takes half again as long as the next.
        self.spark_range(sindex, *next(spark_queries))
        self.op_times = [[] for _ in self.ops]
        n = self.rounds()
        for k in range(n):
            self.load_times.append(self.load_engine())
            self.query_round(decode=True)
            for _ in range(SPARK_JOBS_PER_ROUND):
                self.spark_times.append(self.spark_range(sindex, *next(spark_queries)))
            if k == (n - 1) // 2:
                df = self.compress_job()
                if self.blobs(df) != self.first_blobs:
                    self.problems.extend(["compression jobs disagree on the blobs"])
                df.unpersist()
        # Other tenants of a shared host only ever slow a timing down, in
        # bursts shorter than a round: the least of a few timings spread
        # over the phase is the steadiest figure of the work itself.  A
        # Spark range job's work hardly depends on its query (a scan of the
        # cached index and a join with every row's probabilities).
        self.log("spark range jobs (s): " + " ".join(f"{t:.3f}" for t in self.spark_times))
        self.metrics["spark_range_s"] = min(self.spark_times)
        self.metrics["index_load_s"] = min(self.load_times)
        self.metrics["decode_s"] = sum(map(min, self.decode_times.values()))
        lat = {"where": [], "when": [], "range": []}
        for (kind, _, _), times in zip(self.ops, self.op_times):
            lat[kind].append(min(times))
        for kind, v in lat.items():
            self.metrics[f"{kind}_p50_ms"] = statistics.median(v) * 1e3
            self.metrics[f"{kind}_p99_ms"] = pct(v, 0.99) * 1e3
        self.n_samples = {k: len(v) for k, v in lat.items()}

    def spark_range(self, sindex, q, want):
        """One ``range_query_job`` against the cached StIU index DataFrame;
        returns its wall time."""
        from repro.query.query_job import range_query_job

        t0 = time.perf_counter()
        got = range_query_job(self.spark, self.compressed, sindex, self.net, self.w.cfg, *q)
        elapsed = time.perf_counter() - t0
        if got == want:
            return elapsed
        if self.oracle.lemma4_loss(*q, self.w.cfg.eta_p, got, want):
            self.log(f"spark range{q}: got {got}, expected {want}: Lemma 4 on "
                     "unquantised probabilities (known fault)")
        else:
            self.problems.extend([f"spark range{q}: got {got}, expected {want}"])
        return elapsed

    # -- traced-run extras -----------------------------------------------------
    def serial_kernel(self):
        """The compression kernel serially in this process, with a span
        around each stage: the stage sum behind ``compress_job.overhead_s``.
        Its blobs must equal the Spark job's."""
        from repro.core import encoder, fjd
        from repro.query import stiu
        from repro.query.queries import UTCQEngine

        t = self.tracer
        t.wrap(fjd, "fjd", "", counter="fjd.pairs", timed=False)
        t.wrap(encoder, "select_pivots", "pivots.select_pivots")
        t.wrap(encoder, "score_matrix", "fjd.score_matrix")
        t.wrap(encoder, "select_references", "refselect.select_references",
               on_result=lambda a: t.count("refselect.refs", len(a.refs)))
        t.wrap(encoder, "encode_trajectory", "encoder.encode_trajectory",
               on_result=lambda ct: t.count("encoder.blob_bits", ct.nbits))
        t.wrap(stiu, "build_traj_tuples", "stiu.build_traj_tuples",
               on_result=lambda r: (t.count("stiu.temporal_tuples", len(r[0])),
                                    t.count("stiu.spatial_tuples", len(r[1]))))
        try:
            with t.span("kernel.serial"):
                serial = UTCQEngine.from_trajectories(self.net, self.w.cfg, self.trajs)
        finally:
            t.unwrap_all()
        for tid, e in serial.entries.items():
            if e.ct.blob != self.engine.entries[tid].ct.blob:
                self.problems.extend([f"traj {tid}: serial kernel blob differs from Spark's"])

    def traced_queries(self):
        """``TRACE_ROUNDS`` untimed-by-span rounds, then the same rounds
        with every wrapper installed; their time difference is the
        tracing overhead."""
        from repro.bits.bitio import BitReader
        from repro.query import queries
        from repro.query.queries import UTCQEngine
        from repro.query.reference import PathGeometry

        tracer, self.tracer = self.tracer, None
        self.op_times = [[] for _ in self.ops]
        t0 = time.perf_counter()
        for _ in range(TRACE_ROUNDS):
            self.query_round()
        plain = time.perf_counter() - t0
        self.tracer = t = tracer

        # A partial decode is counted under the query that asked for it.
        t.wrap(queries, "decode_instance_partial", "decoder.partial_decode",
               counter=lambda: "decoder.partial_decodes_"
               + t.enclosing("query.").removeprefix("query."))
        t.wrap(PathGeometry, "of", "reference.path_geometry")
        t.wrap(UTCQEngine, "range_candidates", "queries.range_candidates",
               on_result=lambda c: t.count("queries.range_cands_lemma4", len(c)))
        t.wrap(UTCQEngine, "refine_range", "queries.refine_range",
               counter="queries.range_trajs_refined",
               on_result=lambda ok: t.count("queries.range_hits", int(ok)))
        t.wrap(BitReader, "read_bits", "", counter="bits.read_calls", timed=False)
        try:
            t0 = time.perf_counter()
            for _ in range(TRACE_ROUNDS):
                self.query_round()
            traced = time.perf_counter() - t0
        finally:
            t.unwrap_all()
        self.metrics["trace.overhead_pct"] = (traced - plain) / plain * 100
        for _, q, _ in (op for op in self.ops if op[0] == "range"):
            t.count("queries.range_cands_index",
                    len(self.engine.range_candidates(q[0], q[1], 0.0)) * TRACE_ROUNDS)

    # -- running the phases ------------------------------------------------------
    def log(self, what: str) -> None:
        print(f"[perfbench {time.perf_counter() - self.t_start:7.2f}s] {what}", file=sys.stderr)

    def execute(self) -> dict:
        try:
            self.setup()
            self.log("set-up")
            if self.tracer:
                from repro.core import compress_job

                self.tracer.wrap(compress_job, "ct_from_row", "compress_job.ct_from_row")
            self.compress()
            self.log("compression job")
            settle()
            self.load_engine()
            self.log("index load")
            if self.tracer:
                self.tracer.unwrap_all()
            settle()
            self.decode()
            self.log("decode and round-trip checks")
            if self.problems:
                raise RuntimeError(
                    "compression checks failed:\n" + "\n".join(self.problems[:20]))
            self.prepare_queries()
            self.log("queries and expected answers")
            settle()
            if self.tracer:
                self.serial_kernel()
                self.log("serial kernel")
                self.traced_queries()
                self.log("traced query rounds")
            else:
                self.measure()
                self.log("measured phase")
        finally:
            if hasattr(self, "spark"):
                stop_spark(self.spark)
        self.metrics["compress_s"] = min(self.compress_times)
        self.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return self.result()

    def result(self) -> dict:
        if self.tracer:
            t = self.tracer
            selfs = t.self_times()
            kernel = sum(selfs.get(n, 0.0) for n in KERNEL_SPANS)
            m = {k: (selfs.get(v, 0.0), "s") for k, v in LAYER_SPANS.items()}
            m.update({k: (float(t.counters.get(k, 0)), "count") for k in LAYER_COUNTS})
            m.update({k: (float(v), "count") for k, v in self.faults.items()})
            m["compress_job.overhead_s"] = (
                self.metrics["compress_s"] - kernel / SPARK_CORES, "s")
            m["trace.overhead_pct"] = (self.metrics["trace.overhead_pct"], "%")
            path = WORK / "traces" / f"{self.w.name}-{self.args.seed}.json"
            t.dump(path)
            print(f"spans written to {path}", file=sys.stderr)
        else:
            m = {k: (self.metrics[k], u) for k, u in E2E_UNITS.items()}
            print(f"distinct queries per type: {self.n_samples}", file=sys.stderr)
        for k, (v, u) in m.items():
            print(f"{k:32} {v:14.6f} {u}")
        print(f"attempted {self.attempted}  failed {self.failed}")
        for p in self.problems[:20]:
            print("CHECK FAILED:", p)
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()},
        }


def main(argv=None) -> int:
    args = parse_args(argv)
    configure_environment()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads as W
    from tracing import Tracer

    if args.workload not in W.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(W.WORKLOADS)}")

    def on_alarm(*_):
        raise TimeoutError(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(DEADLINE_S)
    result = Run(args, Tracer() if args.trace else None).execute()
    signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
