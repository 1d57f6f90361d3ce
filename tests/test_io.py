"""Trace, config and dataset file formats."""

import csv
import json
import math
import os
import re
import tempfile
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evospace import io
from evospace.engine import Trace
from evospace.errors import ConfigError, ModelError
from evospace.io import (json_text, load_config, load_dataset_csv,
                         read_config, write_json_report, write_path_csv,
                         write_trace_csv, write_trace_jsonl)


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
        assert json.loads(lines[0]) == {
            "step": 0, "perf_before": -1.0, "perf_after": -0.9, "bene_size": 2,
            "neut_size": 1, "chosen_index": 0, "chosen_polarity": 1,
            "forced": False, "failed": False, "perf_true": -0.95,
            "in_target_set": False}
        # the halted row: its perf, no choice and no oracle fields
        assert json.loads(lines[1]) == {
            "step": 1, "perf_before": -0.9, "perf_after": -0.9, "bene_size": 0,
            "neut_size": 0, "chosen_index": None, "chosen_polarity": None,
            "forced": False, "failed": True, "perf_true": None,
            "in_target_set": None}

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


# floats whose text is easy to get wrong: signed zero, the smallest
# subnormal, where repr turns to exponents, and inexact sums
_EDGE_FLOATS = (-0.0, 5e-324, 1e16, 1e-5, 1 / 3, 0.1 + 0.2)


@st.composite
def _traces(draw, length, halted):
    """A Trace of ``length`` rows, ``halted`` on its last one, and a path.

    Every float is one of the edge floats or a drawn finite one; a row is
    forced at random.  The path has 1 or 64 columns and may hold NaN and
    infinities, which the path file writes as repr does.
    """
    pool = np.array(_EDGE_FLOATS + tuple(draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    trace = Trace(length, epsilon=float(rng.choice(pool[pool > 0])))
    for name in ("perf_before", "perf_after", "perf_true"):
        getattr(trace, name)[:] = rng.choice(pool, length) * rng.choice([-1, 1], length)
    trace.bene_size[:] = rng.integers(0, 9, length)
    trace.neut_size[:] = rng.integers(0, 9, length)
    trace.j[:] = rng.integers(0, 64, length)
    trace.forced[:] = rng.random(length) < 0.3
    if halted:
        trace.halt(length - 1, float(rng.choice(pool)))
    columns = draw(st.sampled_from([1, 64]))
    path = rng.choice(np.concatenate([pool, [math.nan, math.inf, -math.inf]]),
                      (trace.moves + 1, columns))
    return trace, path


def _reference_files(trace, path) -> dict:
    """The three files as the per-row writers write them."""
    jsonl = "".join(json_text(row) + "\n" for row in trace.rows()).encode()
    trace_csv = StringIO(newline="")
    writer = csv.DictWriter(trace_csv, fieldnames=Trace.FIELDS)
    writer.writeheader()
    writer.writerows(trace.rows())
    path_csv = StringIO(newline="")
    writer = csv.writer(path_csv)
    writer.writerow(["step"] + [f"c{i}" for i in range(path.shape[1])])
    writer.writerows([i, *map(repr, row)] for i, row in enumerate(path.tolist()))
    return {"trace.jsonl": jsonl, "trace.csv": trace_csv.getvalue().encode(),
            "path.csv": path_csv.getvalue().encode()}


class TestBlockWriters:
    """The block writers format the trace columns as the per-row writers did."""

    # halted on row 0, on the last row of a block and on the first of the next
    @pytest.mark.parametrize("length, halted", [
        (0, False), (1, True), (5, False), (4096, True), (4097, True),
        (4097, False)])
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_files_equal_the_per_row_references(self, length, halted, data):
        trace, path = data.draw(_traces(length, halted))
        with tempfile.TemporaryDirectory() as out:
            write_trace_jsonl(os.path.join(out, "trace.jsonl"), trace)
            write_trace_csv(os.path.join(out, "trace.csv"), trace)
            write_path_csv(os.path.join(out, "path.csv"), path)
            got = {}
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    got[name] = fh.read()
        assert got == _reference_files(trace, path)

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from([(1, True), (5, False), (4097, True)]).flatmap(
        lambda shape: _traces(*shape)), bad=st.lists(st.tuples(
        st.sampled_from(["perf_before", "perf_after", "perf_true"]),
        st.floats(0, 1, exclude_max=True),
        st.sampled_from([math.nan, math.inf, -math.inf])), min_size=1, max_size=3))
    def test_a_nonfinite_value_fails_as_json_text_does(self, case, bad):
        trace, _ = case
        for name, where, value in bad:
            getattr(trace, name)[int(where * len(trace))] = value
        try:
            for row in trace.rows():
                json_text(row)
            want = None
        except ModelError as e:
            want = str(e)
        with tempfile.TemporaryDirectory() as out:
            target = os.path.join(out, "trace.jsonl")
            if want is None:   # only a halted row's perf_true, written null
                write_trace_jsonl(target, trace)
                assert os.listdir(out) == ["trace.jsonl"]
            else:
                with pytest.raises(ModelError) as got:
                    write_trace_jsonl(target, trace)
                assert str(got.value) == want
                assert os.listdir(out) == []

    @pytest.mark.parametrize("name", ["perf_before", "perf_after", "perf_true"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_each_float_column_rejects_each_nonfinite_value(self, tmp_path,
                                                           name, value):
        # in the second block, after a whole first one
        trace = Trace(4097, epsilon=0.1)
        for column in (trace.perf_before, trace.perf_after, trace.perf_true):
            column[:] = -0.5
        trace.bene_size[:] = trace.neut_size[:] = trace.j[:] = 0
        trace.forced[:] = False
        getattr(trace, name)[4096] = value
        with pytest.raises(ModelError, match=f"^{name} is not finite, so it "
                                             f"has no JSON form$"):
            write_trace_jsonl(str(tmp_path / "trace.jsonl"), trace)
        assert list(tmp_path.iterdir()) == []

    def test_trace_columns_follow_the_fields(self):
        trace = steps_fixture()
        assert tuple(trace.columns()) == Trace.FIELDS
        assert tuple(trace.rows()[0]) == Trace.FIELDS


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
        # one-row blocks, and the second block's columns cannot be built
        trace, columns = steps_fixture(), Trace.columns
        built = []

        def columns_or_fail(self, start, stop, tokens):
            built.append(start)
            if start:
                raise RuntimeError("row source lost")
            return columns(self, start, stop, tokens)

        monkeypatch.setattr(io, "_BLOCK_ROWS", 1)
        monkeypatch.setattr(Trace, "columns", columns_or_fail)
        with pytest.raises(RuntimeError):
            write_trace_csv(str(path), trace)
        assert built == [0, 1]   # the first block was written before the failure
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

    def test_a_byte_order_mark_keeps_the_first_column(self, tmp_path):
        # spreadsheet exports often start with a UTF-8 BOM, which must not
        # rename the first header to "\ufeffx0" and so drop that column
        text = "x0,x1,y\n0.3,0.4,1\n0.1,0.2,-1\n"
        plain = tmp_path / "plain.csv"
        plain.write_bytes(text.encode())
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        X, Y = load_dataset_csv(str(plain))
        X_bom, Y_bom = load_dataset_csv(str(bom))
        assert X.shape == (2, 2)
        assert np.array_equal(X_bom, X) and np.array_equal(Y_bom, Y)

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
