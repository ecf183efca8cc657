"""Artifact writes are all-or-nothing; array reads check the header's shape."""

import os

import numpy as np
import pytest

from traceweights import artifacts
from traceweights.artifacts import read_array, read_json, write_array, write_json


def _fail_replace(src, dst):
    raise OSError("replace failed")


@pytest.mark.parametrize(
    "write, old, new",
    [
        (write_json, {"b": [1, 2]}, {"a": 0}),
        (lambda path, v: write_array(path, v, "<f8"), np.arange(6.0), np.zeros(4)),
    ],
    ids=["write_json", "write_array"],
)
def test_failed_replace_keeps_the_old_file_and_leaves_no_temp(
    tmp_path, monkeypatch, write, old, new
):
    path = tmp_path / "sub" / "artifact"
    write(path, old)
    before = path.read_bytes()
    monkeypatch.setattr(artifacts.os, "replace", _fail_replace)
    with pytest.raises(OSError, match="replace failed"):
        write(path, new)
    assert path.read_bytes() == before
    assert sorted(p.name for p in path.parent.iterdir()) == ["artifact"]


def test_failed_fill_keeps_the_old_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "a.f32"
    write_array(path, np.ones(3), "<f4")
    with pytest.raises(ValueError):
        write_array(path, ["not a number"], "<f4")
    assert read_array(path, "<f4", (3,)).tolist() == [1.0, 1.0, 1.0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.f32"]


def test_round_trip_bytes_and_writable_reads(tmp_path):
    values = np.arange(6.0).reshape(2, 3)
    write_array(tmp_path / "a.f64", values.T, "<f8")
    assert (tmp_path / "a.f64").read_bytes() == np.ascontiguousarray(values.T, "<f8").tobytes()
    back = read_array(tmp_path / "a.f64", "<f8", (3, 2))
    assert np.array_equal(back, values.T) and back.flags.writeable
    write_json(tmp_path / "d" / "doc.json", {"b": 1, "a": [2.5]})
    assert (tmp_path / "d" / "doc.json").read_text() == '{\n  "a": [\n    2.5\n  ],\n  "b": 1\n}'
    assert read_json(tmp_path / "d" / "doc.json") == {"a": [2.5], "b": 1}


def test_read_array_rejects_a_file_that_does_not_fill_the_shape(tmp_path):
    path = tmp_path / "short.f32"
    write_array(path, np.arange(5.0), "<f4")
    with pytest.raises(ValueError, match="short.f32"):
        read_array(path, "<f4", (2, 3))
    with open(path, "ab") as f:
        f.write(b"\x00\x00")
    assert os.path.getsize(path) == 22
    with pytest.raises(ValueError, match="short.f32"):
        read_array(path, "<f4", (5,))


def test_read_json_with_a_digest_checks_the_stamp(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"config_digest": "abc", "k": 1})
    assert read_json(path, "abc") == {"config_digest": "abc", "k": 1}
    with pytest.raises(ValueError, match=r"doc.json: written under config digest abc, .* is xyz"):
        read_json(path, "xyz")
    write_json(path, {"k": 1})
    assert read_json(path) == {"k": 1}
    with pytest.raises(ValueError, match="config digest None"):
        read_json(path, "abc")
