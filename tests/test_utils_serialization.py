"""Tests for repro.utils.serialization."""

import dataclasses
import os

import numpy as np
import pytest

from repro.exceptions import DataFormatError
from repro.sim.environment import Environment
from repro.sparse.model_state import ModelState
from repro.telemetry.core import Telemetry
from repro.telemetry.export import write_chrome_trace, write_jsonl
from repro.telemetry.promtext import write_promtext
from repro.telemetry.trace_data import load_trace_data
from repro.utils.serialization import (
    copy_file,
    load_arrays,
    load_json,
    save_arrays,
    save_json,
    save_text,
    to_jsonable,
)


@dataclasses.dataclass
class _Sample:
    name: str
    values: np.ndarray


class TestToJsonable:
    def test_passthrough_builtins(self):
        for value in (None, True, 3, 2.5, "s"):
            assert to_jsonable(value) == value

    def test_numpy_scalars(self):
        assert to_jsonable(np.int32(4)) == 4
        assert to_jsonable(np.float64(0.5)) == 0.5
        assert to_jsonable(np.bool_(True)) is True

    def test_numpy_arrays(self):
        assert to_jsonable(np.arange(3)) == [0, 1, 2]

    def test_dataclass(self):
        out = to_jsonable(_Sample(name="x", values=np.ones(2)))
        assert out == {"name": "x", "values": [1.0, 1.0]}

    def test_nested_containers(self):
        out = to_jsonable({"k": (1, {2, 3})})
        assert out["k"][0] == 1
        assert sorted(out["k"][1]) == [2, 3]

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            to_jsonable(object())


class TestJsonRoundTrip:
    def test_round_trip(self, tmp_path):
        path = save_json(tmp_path / "out.json", {"a": np.float32(1.5)})
        assert load_json(path) == {"a": 1.5}

    def test_creates_parent_dirs(self, tmp_path):
        path = save_json(tmp_path / "deep" / "dir" / "f.json", [1, 2])
        assert path.exists()


class TestArraysRoundTrip:
    def test_round_trip(self, tmp_path):
        arrays = {"x": np.arange(5, dtype=np.float32), "y": np.eye(3)}
        path = save_arrays(tmp_path / "arrs.npz", arrays)
        back = load_arrays(path)
        assert set(back) == {"x", "y"}
        assert np.array_equal(back["x"], arrays["x"])
        assert np.array_equal(back["y"], arrays["y"])


def _recorder():
    tel = Telemetry(label="unit")
    tel.attach(Environment(), algorithm="unit", n_devices=1)
    tel.instant("tick")
    tel.detach()
    return tel


#: Every public writer, as ``write(path, source)``; ``source`` is a file
#: that already exists, for the one writer that copies.
WRITERS = {
    "save_json": lambda path, source: save_json(path, {"a": [1, 2]}),
    "save_text": lambda path, source: save_text(path, ("x\n", "y\n")),
    "save_arrays": lambda path, source: save_arrays(path, {"x": np.eye(2)}),
    "copy_file": lambda path, source: copy_file(source, path),
    "write_jsonl": lambda path, source: write_jsonl(_recorder(), path),
    "write_chrome_trace":
        lambda path, source: write_chrome_trace(_recorder(), path),
    "write_promtext": lambda path, source: write_promtext(
        load_trace_data(_recorder()), path),
    "ModelState.save":
        lambda path, source: ModelState.build([("W", (2, 2))]).save(path),
}


class TestInterruptedWrite:
    """``os.replace`` is the one step that makes a write visible; a writer
    that dies before it leaves what was there and no temp file."""

    @pytest.fixture()
    def source(self, tmp_path):
        source = tmp_path / "source"
        source.write_bytes(b"copied")
        return source

    @pytest.fixture()
    def dying_replace(self, monkeypatch):
        def killed(src, dst):
            raise OSError("killed before the rename")
        monkeypatch.setattr(os, "replace", killed)

    @pytest.mark.parametrize("name", sorted(WRITERS))
    def test_previous_file_survives(self, name, tmp_path, source,
                                    dying_replace):
        path = tmp_path / "out"
        path.write_bytes(b"previous")
        with pytest.raises(OSError, match="killed"):
            WRITERS[name](path, source)
        assert path.read_bytes() == b"previous"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "source"]

    @pytest.mark.parametrize("name", sorted(WRITERS))
    def test_no_file_where_there_was_none(self, name, tmp_path, source,
                                          dying_replace):
        with pytest.raises(OSError, match="killed"):
            WRITERS[name](tmp_path / "out", source)
        assert [p.name for p in tmp_path.iterdir()] == ["source"]

    def test_a_chunk_source_that_raises_leaves_no_file(self, tmp_path):
        def lines():
            yield "first\n"
            raise RuntimeError("encoder failed")

        with pytest.raises(RuntimeError, match="encoder failed"):
            save_text(tmp_path / "out.jsonl", lines())
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", sorted(WRITERS))
    def test_uninterrupted_write_lands_at_the_path_itself(self, name,
                                                          tmp_path, source):
        """No suffix appended (``np.savez`` would add ``.npz``), no temp."""
        assert WRITERS[name](tmp_path / "out", source) == tmp_path / "out"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "source"]


class TestUnreadableFiles:
    @pytest.mark.parametrize("content", [None, b"", b'{"a": [1, ', b"\xff\xfe"])
    def test_load_json_names_the_path(self, tmp_path, content):
        path = tmp_path / "doc.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(DataFormatError, match=f"^{path}: "):
            load_json(path)

    @pytest.mark.parametrize("keep", [None, 0, 64, -1, "garbled", "flipped"])
    def test_load_arrays_names_the_path(self, tmp_path, keep):
        path = save_arrays(
            tmp_path / "a.npz", {"x": np.arange(400.0), "y": np.eye(9)})
        raw = path.read_bytes()
        if keep is None:
            path.unlink()
        elif keep == "garbled":
            path.write_bytes(b"not an npz")
        elif keep == "flipped":  # inside the first member's deflate stream
            path.write_bytes(raw[:80] + bytes(8) + raw[88:])
        else:
            path.write_bytes(raw[:keep])
        with pytest.raises(DataFormatError, match=f"^{path}: "):
            load_arrays(path)

    def test_missing_member_names_the_path(self, tmp_path):
        path = save_arrays(tmp_path / "a.npz", {"x": np.arange(3)})
        arrays = load_arrays(path)
        assert "y" not in arrays and arrays.get("y") is None
        with pytest.raises(DataFormatError, match=f"^{path}: .*'y'"):
            arrays["y"]


class TestPathHandling:
    def test_path_becomes_string(self, tmp_path):
        import pathlib

        p = tmp_path / "model.snapshot.npz"
        assert to_jsonable(p) == str(p)
        assert to_jsonable(pathlib.PurePosixPath("a/b")) == "a/b"

    def test_path_inside_containers(self, tmp_path):
        out = to_jsonable({"arrays": tmp_path, "k": [tmp_path]})
        assert out == {"arrays": str(tmp_path), "k": [str(tmp_path)]}

    def test_save_json_with_path_values(self, tmp_path):
        path = save_json(tmp_path / "hdr.json", {"npz": tmp_path / "m.npz"})
        assert load_json(path) == {"npz": str(tmp_path / "m.npz")}


class TestNonFiniteRejection:
    @pytest.mark.parametrize("bad", [
        float("nan"), float("inf"), float("-inf"),
        np.float32("nan"), np.float64("inf"),
    ])
    def test_non_finite_floats_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            to_jsonable(bad)

    def test_non_finite_inside_array_rejected(self):
        with pytest.raises(ValueError):
            to_jsonable(np.array([1.0, np.nan]))

    def test_non_finite_nested_rejected(self):
        with pytest.raises(ValueError):
            to_jsonable({"metrics": {"loss": float("inf")}})

    def test_save_json_refuses_nan(self, tmp_path):
        with pytest.raises(ValueError):
            save_json(tmp_path / "bad.json", {"x": float("nan")})

    def test_finite_floats_still_pass(self):
        assert to_jsonable(np.float32(2.5)) == 2.5
        assert to_jsonable([0.0, -1e300]) == [0.0, -1e300]
