"""Trace, config and dataset file formats."""

import csv
import json
import math
import os
import re

import numpy as np
import pytest

from evospace import io
from evospace.engine import Trace
from evospace.errors import ConfigError, ModelError
from evospace.io import (load_config, load_dataset_csv, read_config,
                         write_json_report, write_path_csv, write_trace_csv,
                         write_trace_jsonl)


def steps_fixture():
    """A step that took the first +1 mutant, then a halted step."""
    trace = Trace(5, epsilon=0.1)
    trace.record(0, -1.0, -0.9, 2, 1, 0, False)
    trace.perf_true[0] = -0.95   # the loop's oracle column fills it
    trace.halt(1, -0.9)
    return trace


class TestTraceFiles:
    def test_jsonl_round_trip(self, tmp_path):
        steps = steps_fixture()
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(str(path), steps)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        rec0 = json.loads(lines[0])
        assert rec0["step"] == 0
        assert rec0["perf_true"] == -0.95
        rec1 = json.loads(lines[1])
        assert rec1["failed"] is True
        assert rec1["chosen_index"] is None

    def test_jsonl_bytes_deterministic(self, tmp_path):
        steps = steps_fixture()
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace_jsonl(str(first), steps)
        write_trace_jsonl(str(second), steps)
        assert first.read_bytes() == second.read_bytes()
        rec0 = json.loads(first.read_text().splitlines()[0])
        assert rec0["in_target_set"] is False and rec0["chosen_polarity"] == 1
        empty = tmp_path / "empty.jsonl"
        write_trace_jsonl(str(empty), Trace(0, epsilon=0.1))
        assert empty.read_bytes() == b""

    def test_trace_writer_rejects_a_nonfinite_row(self, tmp_path):
        steps = steps_fixture()
        steps.perf_true[0] = math.nan
        with pytest.raises(ModelError, match="^perf_true is not finite"):
            write_trace_jsonl(str(tmp_path / "trace.jsonl"), steps)
        assert list(tmp_path.iterdir()) == []

    def test_csv_columns(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(str(path), steps_fixture())
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["perf_before"] == "-1.0"
        assert rows[1]["failed"] == "True"

    def test_path_csv_full_precision(self, tmp_path):
        path = tmp_path / "path.csv"
        coords = np.array([[0.0, 1.0 / 3.0], [0.1 + 0.2, -1e-17]])
        write_path_csv(str(path), coords)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "c0", "c1"]
        # repr round-trip preserves the exact float
        assert float(rows[1][2]) == 1.0 / 3.0
        assert float(rows[2][1]) == 0.1 + 0.2


class TestAtomicWrites:
    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "report.json"
        write_json_report(str(path), {"a": 1})
        old = path.read_bytes()
        # "a" is serialized before json.dump reaches the object it cannot
        with pytest.raises(TypeError):
            write_json_report(str(path), {"a": 2, "b": object()})
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["report.json"]

    def test_failed_csv_write_mid_stream(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.csv"
        write_trace_csv(str(path), steps_fixture())
        old = path.read_bytes()
        # one-row blocks, and the second block cannot be built
        trace, rows = steps_fixture(), Trace.rows

        def rows_or_fail(self, start, stop):
            if start:
                raise RuntimeError("row source lost")
            return rows(self, start, stop)

        monkeypatch.setattr(io, "_BLOCK_ROWS", 1)
        monkeypatch.setattr(Trace, "rows", rows_or_fail)
        with pytest.raises(RuntimeError):
            write_trace_csv(str(path), trace)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["trace.csv"]

    def test_failed_first_write_leaves_nothing(self, tmp_path):
        with pytest.raises(TypeError):
            write_trace_jsonl(str(tmp_path / "trace.jsonl"), None)
        assert os.listdir(tmp_path) == []

    def test_rewrite_replaces_with_plain_file_mode(self, tmp_path):
        path = tmp_path / "path.csv"
        write_path_csv(str(path), np.zeros((2, 2)))
        write_path_csv(str(path), np.ones((3, 2)))
        assert path.read_text().count("\n") == 4
        plain = tmp_path / "plain.txt"
        plain.write_text("")
        assert os.stat(path).st_mode == os.stat(plain).st_mode


class TestConfigFiles:
    def test_round_trip(self, tmp_path):
        cfg = {"epsilon": 0.1, "knobs": [1 / 9, 1 / 3, 2 / 27],
               "model": {"target": "mean"}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True))
        assert load_config(str(path)) == cfg

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.json"))

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_report_writer(self, tmp_path):
        path = tmp_path / "report.json"
        write_json_report(str(path), {"b": 2, "a": [1.5, None]})
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == {"a": [1.5, None], "b": 2}
        # keys sorted for byte-stable reports
        assert text.index('"a"') < text.index('"b"')

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_report_writer_names_the_first_nonfinite_key(self, tmp_path, bad):
        path = tmp_path / "report.json"
        report = {"z": bad, "b": {"rows": [1.0, {"y": 2.0, "x": bad}]}}
        with pytest.raises(ModelError, match=r"^b\.rows\[1\]\.x is not finite"):
            write_json_report(str(path), report)
        assert list(tmp_path.iterdir()) == []


class TestDatasetCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return str(path)

    def test_header_split(self, tmp_path):
        path = self.write(tmp_path, "x0,x1,y\n1,2,3\n4,5,6\n")
        X, Y = load_dataset_csv(path)
        assert np.array_equal(X, [[1.0, 2.0], [4.0, 5.0]])
        assert np.array_equal(Y, [[3.0], [6.0]])

    def test_no_targets(self, tmp_path):
        path = self.write(tmp_path, "x0,x1\n1,2\n")
        X, Y = load_dataset_csv(path)
        assert X.shape == (1, 2) and Y is None

    def test_positional_split(self, tmp_path):
        path = self.write(tmp_path, "a,b,c\n1,2,3\n")
        X, Y = load_dataset_csv(path, dim_x=2)
        assert np.array_equal(X, [[1.0, 2.0]])
        assert np.array_equal(Y, [[3.0]])

    def test_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_dataset_csv(str(tmp_path / "absent.csv"))
        with pytest.raises(ConfigError):
            load_dataset_csv(self.write(tmp_path, "x0\n"))
        with pytest.raises(ConfigError):
            load_dataset_csv(self.write(tmp_path, "a,b\n1,2\n"))  # no x cols
        with pytest.raises(ConfigError):
            load_dataset_csv(self.write(tmp_path, "x0\nfoo\n"))
        with pytest.raises(ModelError):
            load_dataset_csv(self.write(tmp_path, "x0\ninf\n"))

    def test_ragged_row_names_line_and_widths(self, tmp_path):
        path = self.write(tmp_path, "x0,x1,y\n1,2,3\n4,5\n6,7,8\n")
        with pytest.raises(ConfigError, match=r"line 3 has 2 columns, expected 3"):
            load_dataset_csv(path)
        with pytest.raises(ConfigError, match="non-numeric"):
            load_dataset_csv(self.write(tmp_path, "x0,x1\n1,2\n3,z\n"))


class TestReadConfig:
    TABLE = {"n": ("int", 5, ">= 1"), "x": ("number", None), "flag": ("bool", False),
             "v": ("vector", None, 2), "pick": (("a", {"m": ("matrix", ...)}), "a"),
             "sub": {"seeds": ("ints", None), "name": ("str", ...)}}

    def test_defaults_and_conversions(self):
        assert read_config({"sub": {"name": "s"}}, self.TABLE) == {
            "n": 5, "x": None, "flag": False, "v": None, "pick": "a",
            "sub": {"seeds": None, "name": "s"}}
        out = read_config({"n": 3.0, "v": [1, 2], "x": None,
                           "pick": {"m": [[1, 2], [3, 4]]},
                           "sub": {"seeds": [-1, 2**63 - 1], "name": ""}}, self.TABLE)
        assert out["n"] == 3 and type(out["n"]) is int and out["x"] is None
        assert out["v"].tolist() == [1.0, 2.0] and out["v"].dtype == float
        assert out["pick"]["m"].shape == (2, 2)
        assert out["sub"]["seeds"] == [-1, 2**63 - 1]
        assert type(read_config({"x": 2, "sub": {"name": ""}}, self.TABLE)["x"]) is float

    def test_two_sided_bound(self):
        table = {"t": ("int", None, ">= 1, <= 10"), "r": ("number", 1.0, "> 0, <= 2")}
        assert read_config({"t": 10, "r": 2}, table) == {"t": 10, "r": 2.0}
        for cfg, shown in (({"t": 11}, "t must be an integer >= 1, <= 10, got 11"),
                           ({"t": 0}, "t must be an integer >= 1, <= 10, got 0"),
                           ({"r": 0}, "r must be a number > 0, <= 2, got 0"),
                           ({"r": 2.5}, "r must be a number > 0, <= 2, got 2.5")):
            with pytest.raises(ConfigError, match=re.escape(shown)):
                read_config(cfg, table)

    @pytest.mark.parametrize("cfg, shown", [
        ({"n": True}, "n must be an integer >= 1, got True"),
        ({"n": 0}, "n must be an integer >= 1, got 0"),
        ({"n": 1.5}, "n must be an integer >= 1, got 1.5"),
        ({"n": 2**63}, "n must be an integer >= 1, got 9223372036854775808"),
        ({"n": None}, "n must be an integer >= 1, got None"),
        ({"x": "1"}, "x must be numeric, got '1'"),
        ({"x": float("nan")}, "x must be numeric, got nan"),
        ({"x": 10**400}, "x must be numeric, got 1000"),
        ({"flag": 1}, "flag must be true or false, got 1"),
        ({"v": [1, True]}, "v must be a list of numbers, got [1, True]"),
        ({"v": [1, 2, 3]}, "v must have dimension 2, got shape (3,)"),
        ({"pick": "b"}, "pick must be one of 'a', {m}, got 'b'"),
        ({"pick": {}}, "config key pick.m is required"),
        ({"pick": {"m": [[1], [2, 3]]}}, "pick.m must be numeric: a nonempty list"),
        ({"sub": []}, "config section 'sub' must be an object, got []"),
        ({"sub": {"seeds": [1, "2"]}}, "sub.seeds must be an integer, got '2'"),
        ({"y": 1}, "unknown config key y; the top level allows n, x, flag, v, pick, sub"),
        ({"sub": {"nme": 1}}, "unknown config key sub.nme; 'sub' allows seeds, name"),
    ])
    def test_rejections_name_the_key_the_value_and_the_kind(self, cfg, shown):
        with pytest.raises(ConfigError) as exc:
            read_config(cfg, self.TABLE)
        assert shown in str(exc.value)
