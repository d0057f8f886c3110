"""Smoke tests for the spark-submit entrypoints (driver-side pieces).

The Spark jobs themselves are exercised through the library functions they
wrap (compress_dataset, ted_compress_dataset, table5/6_stats, the query
jobs) in the other test modules; here we check the wrappers' plumbing that
can run without spawning a second JVM.
"""
import importlib.util
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

JOBS = Path(__file__).parent.parent / "jobs"
sys.path.insert(0, str(JOBS))


def load(name):
    spec = importlib.util.spec_from_file_location(name, JOBS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestCommon:
    def test_print_table(self):
        common = load("_common")
        buf = io.StringIO()
        with redirect_stdout(buf):
            common.print_table("T", ["a", "bb"], [[1, 22], [333, 4]])
        out = buf.getvalue()
        assert "## T" in out
        assert "333" in out and "bb" in out

    def test_print_table_empty_rows(self):
        common = load("_common")
        buf = io.StringIO()
        with redirect_stdout(buf):
            common.print_table("E", ["x"], [])
        assert "## E" in buf.getvalue()


class TestTable7Job:
    def test_runs_without_spark(self, capsys):
        job = load("table7_params")
        job.main()
        out = capsys.readouterr().out
        assert "Table 7: parameter ranges" in out
        assert "number_of_pivots" in out
        assert "1/128" in out
        assert "32x32" in out


class TestJobModulesImport:
    @pytest.mark.parametrize(
        "name",
        ["table5_datasets", "table6_networks", "table8_compression",
         "query_demo", "build_datasets"],
    )
    def test_importable(self, name):
        mod = load(name)
        assert hasattr(mod, "main")

    def test_table8_fmt_row(self):
        mod = load("table8_compression")
        row = mod.fmt_row(
            "dk", "UTCQ",
            {"Total": 1.5, "T": 2, "E": 3, "D": 4, "Tp": 5, "p": 6,
             "kernel_ms": 1500.0},
            12.34,
        )
        assert row[0] == "dk" and row[1] == "UTCQ"
        assert row[2] == "1.500" and row[-1] == "1.5"

    def test_table8_parse_args(self):
        mod = load("table8_compression")
        args = mod.parse_args(["hz", "--n-traj", "40"])
        assert args.datasets == ["hz"] and args.n_traj == 40
        args = mod.parse_args([])
        assert args.datasets == ["dk", "cd", "hz"] and args.n_traj is None
