"""Round trips and malformed-input errors for every file format."""

import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meshlift.data import PoseSample, generate_synthetic_dataset
from meshlift.io import (CHECKPOINT_MAGIC, load_body_spec, load_checkpoint,
                         load_dataset, save_body_spec, save_checkpoint,
                         save_dataset, save_obj)
from meshlift.template import TubeBodySpec

# deterministic and small: each property runs in well under a second
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10)


def loads_or_names(load, path, prefix):
    """load(path) either succeeds or raises a ValueError starting with prefix;
    any other exception propagates and fails the calling test."""
    try:
        load(path)
    except ValueError as e:
        assert str(e).startswith(prefix), str(e)


class TestBodySpec:
    def test_roundtrip(self, tmp_path):
        spec = TubeBodySpec(tube_radius=17.0, verts_per_ring=5, rings_per_bone=3)
        p = tmp_path / "spec.json"
        save_body_spec(spec, p)
        back = load_body_spec(p)
        assert back == spec

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"tube_radius": 10.0, "bogus": 1}))
        with pytest.raises(ValueError, match="unknown"):
            load_body_spec(p)

    def test_non_finite_value_names_key(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"tube_radius": float("inf")}))
        with pytest.raises(ValueError, match="template.tube_radius: expected"):
            load_body_spec(p)

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text("{nope")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_body_spec(p)


class TestDataset:
    def test_roundtrip_exact(self, tmp_path):
        spec = TubeBodySpec(verts_per_ring=3, rings_per_bone=2)
        _, samples = generate_synthetic_dataset(spec, 3, seed=1)
        p = tmp_path / "d.jsonl"
        save_dataset(samples, p)
        back = load_dataset(p)
        assert len(back) == 3
        for a, b in zip(samples, back):
            np.testing.assert_array_equal(a.pose2d, b.pose2d)
            np.testing.assert_array_equal(a.pose3d, b.pose3d)
            np.testing.assert_array_equal(a.mesh, b.mesh)
            assert a.camera == b.camera

    def test_optional_fields_absent(self, tmp_path):
        s = PoseSample(pose2d=np.zeros((2, 2)), pose3d=np.zeros((2, 3)))
        p = tmp_path / "d.jsonl"
        save_dataset([s], p)
        assert "mesh" not in p.read_text()
        back = load_dataset(p)
        assert back[0].mesh is None and back[0].camera is None

    def test_malformed_line_names_line_number(self, tmp_path):
        p = tmp_path / "d.jsonl"
        good = json.dumps({"pose2d": [[0, 0], [1, 1]], "pose3d": [[0, 0, 0], [1, 1, 1]]})
        p.write_text(good + "\n{broken\n")
        with pytest.raises(ValueError, match=":2:"):
            load_dataset(p)

    def test_shape_and_key_validation(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text(json.dumps({"pose2d": [[0, 0, 0]], "pose3d": [[0, 0, 0]]}) + "\n")
        with pytest.raises(ValueError, match="pose2d"):
            load_dataset(p)
        p.write_text(json.dumps({"pose2d": [[0, 0]], "pose3d": [[0, 0, 0]],
                                 "velocity": 3}) + "\n")
        with pytest.raises(ValueError, match="unknown keys"):
            load_dataset(p)

    @pytest.mark.parametrize("field", ["pose2d", "pose3d", "mesh"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_value_names_line_and_field(self, tmp_path, field, bad):
        rec = {"pose2d": [[0, 0], [1, 1]], "pose3d": [[0, 0, 0], [1, 1, 1]],
               "mesh": [[0, 0, 0], [1, 1, 1]]}
        p = tmp_path / "d.jsonl"
        good = json.dumps(rec)
        rec[field][1][0] = bad
        p.write_text(good + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(ValueError, match=f":2: {field} has non-finite"):
            load_dataset(p)

    def test_inconsistent_joint_counts(self, tmp_path):
        p = tmp_path / "d.jsonl"
        lines = [json.dumps({"pose2d": [[0, 0]] * j, "pose3d": [[0, 0, 0]] * j})
                 for j in (2, 3)]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="inconsistent joint counts"):
            load_dataset(p)

    def test_mesh_vertex_count_differs_from_first_mesh(self, tmp_path):
        def rec(v):
            return json.dumps({"pose2d": [[0, 0]] * 2, "pose3d": [[0, 0, 0]] * 2,
                               "mesh": [[0, 0, 0]] * v})
        p = tmp_path / "d.jsonl"
        p.write_text("\n".join([rec(176), rec(176), rec(175)]) + "\n")
        with pytest.raises(ValueError, match=r"d.jsonl:3: inconsistent vertex counts: "
                                             r"mesh has 175 rows, line 1 has 176"):
            load_dataset(p)

    def test_empty_dataset(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text("\n")
        with pytest.raises(ValueError, match="no samples"):
            load_dataset(p)


class TestDatasetMalformed:
    GOOD = {"pose2d": [[0.0, 0.0], [1.0, 1.0]], "pose3d": [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
            "mesh": [[0.0, 0.0, 0.0]], "camera": {"scale": 1.0, "offset": [0.0, 0.0]}}

    def write(self, path, *lines):
        path.write_text("".join(line + "\n" for line in lines))
        return path

    def test_good_record_loads(self, tmp_path):
        (s,) = load_dataset(self.write(tmp_path / "d.jsonl", json.dumps(self.GOOD)))
        assert s.camera == self.GOOD["camera"]

    @pytest.mark.parametrize("line, match", [
        ("3", "expected a JSON object, got int"),
        ('[{"pose2d": []}]', "expected a JSON object, got list"),
        (json.dumps({**GOOD, "camera": 5}), "camera must be an object"),
        (json.dumps({**GOOD, "camera": {"scale": 1.0}}), "camera must be an object"),
        (json.dumps({**GOOD, "pose2d": {"x": 1}}), "bad record"),
        (json.dumps({**GOOD, "mesh": [[{}, 1, 2]]}), "bad record"),
        ('{"pose2d": [[1e400, 0]], "pose3d": [[0, 0, 0]]}', "pose2d has non-finite"),
    ])
    def test_rejected_with_path_and_line(self, tmp_path, line, match):
        p = self.write(tmp_path / "d.jsonl", json.dumps(self.GOOD), line)
        with pytest.raises(ValueError, match=f"^{re.escape(f'dataset {p}:2: {match}')}"):
            load_dataset(p)

    def test_bad_utf8_names_line(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_bytes(json.dumps(self.GOOD).encode() + b"\n\xff\xfe\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'dataset {p}:2: invalid JSON')}"):
            load_dataset(p)

    @PROPERTY
    @given(value=JSON_VALUES)
    @example(value=3)
    @example(value=10 ** 400)
    def test_any_json_line_loads_or_names_line(self, tmp_path_factory, value):
        p = self.write(tmp_path_factory.mktemp("jsonl") / "d.jsonl",
                       json.dumps(self.GOOD), json.dumps(value))
        loads_or_names(load_dataset, p, f"dataset {p}:2: ")

    @PROPERTY
    @given(field=st.sampled_from(sorted(GOOD)), value=JSON_VALUES)
    @example(field="camera", value=5)
    @example(field="mesh", value=10 ** 400)
    def test_any_json_field_loads_or_names_line(self, tmp_path_factory, field, value):
        p = self.write(tmp_path_factory.mktemp("jsonl") / "d.jsonl",
                       json.dumps(self.GOOD), json.dumps({**self.GOOD, field: value}))
        loads_or_names(load_dataset, p, f"dataset {p}:2: ")


class TestCheckpoint:
    def tensors(self):
        rng = np.random.default_rng(0)
        return {"a.weight": rng.standard_normal((3, 4)).astype(np.float32),
                "a.bias": np.zeros((1, 4), np.float32),
                "bn.running_var": np.ones(4, np.float32)}

    def test_roundtrip(self, tmp_path):
        p = tmp_path / "c.bin"
        cfg = {"levels": 3, "seed": 7, "widths": [64, 32, 32]}
        save_checkpoint(p, cfg, self.tensors())
        cfg2, tensors2 = load_checkpoint(p)
        assert cfg2 == cfg
        for k, v in self.tensors().items():
            assert tensors2[k].dtype == np.float32
            np.testing.assert_array_equal(tensors2[k], v)

    def test_header_layout(self, tmp_path):
        p = tmp_path / "c.bin"
        save_checkpoint(p, {}, self.tensors())
        raw = p.read_bytes()
        assert raw[:4] == CHECKPOINT_MAGIC == b"P2M1"
        mlen = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
        manifest = json.loads(raw[8:8 + mlen])
        assert manifest["format_version"] == 1
        names = [t["name"] for t in manifest["tensors"]]
        assert names == ["a.weight", "a.bias", "bn.running_var"]
        offs = [t["byte_offset"] for t in manifest["tensors"]]
        assert offs == [0, 48, 64]
        assert all(t["dtype"] == "f32" for t in manifest["tensors"])

    def test_save_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(a, {"seed": 1}, self.tensors())
        save_checkpoint(b, {"seed": 1}, self.tensors())
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "c.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="bad magic"):
            load_checkpoint(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "c.bin"
        save_checkpoint(p, {}, self.tensors())
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(ValueError, match="out of range"):
            load_checkpoint(p)

    def test_truncated_manifest(self, tmp_path):
        p = tmp_path / "c.bin"
        save_checkpoint(p, {}, self.tensors())
        raw = p.read_bytes()
        p.write_bytes(raw[:20])
        with pytest.raises(ValueError, match="truncated manifest"):
            load_checkpoint(p)

    def rewrite_manifest(self, p, edit):
        """Apply edit to the manifest's tensor list and write the file back."""
        raw = p.read_bytes()
        mlen = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
        manifest = json.loads(raw[8:8 + mlen])
        edit(manifest["tensors"])
        mbytes = json.dumps(manifest).encode("utf-8")
        p.write_bytes(raw[:4] + len(mbytes).to_bytes(4, "little") + mbytes
                      + raw[8 + mlen:])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_save_rejects_non_finite_and_names_it(self, tmp_path, bad):
        tensors = self.tensors()
        tensors["a.bias"][0, 2] = bad
        p = tmp_path / "c.bin"
        with pytest.raises(ValueError, match="'a.bias' has non-finite"):
            save_checkpoint(p, {}, tensors)
        assert not p.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_load_rejects_non_finite_and_names_it(self, tmp_path, bad):
        p = tmp_path / "c.bin"
        save_checkpoint(p, {}, self.tensors())
        raw = bytearray(p.read_bytes())
        # the payload is the file's last 80 bytes; a.bias starts at byte 48
        at = len(raw) - 80 + 48 + 2 * 4
        raw[at:at + 4] = np.array([bad], dtype="<f4").tobytes()
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="'a.bias' has non-finite"):
            load_checkpoint(p)

    def test_duplicate_name_rejected(self, tmp_path):
        p = tmp_path / "c.bin"
        save_checkpoint(p, {}, self.tensors())

        def rename(entries):
            entries[2]["name"] = "a.bias"
        self.rewrite_manifest(p, rename)
        with pytest.raises(ValueError, match="duplicate tensor 'a.bias'"):
            load_checkpoint(p)

    def test_overlapping_payloads_rejected(self, tmp_path):
        p = tmp_path / "c.bin"
        save_checkpoint(p, {}, self.tensors())

        def overlap(entries):
            entries[1]["byte_offset"] = 40  # into a.weight's bytes 0-48
        self.rewrite_manifest(p, overlap)
        with pytest.raises(ValueError, match="'a.weight' and 'a.bias' overlap"):
            load_checkpoint(p)

    NEEDS = "manifest needs a config object and a tensors list"

    @pytest.mark.parametrize("edit, match", [
        (lambda m: [], "manifest is not a JSON object"),
        (lambda m: {k: v for k, v in m.items() if k != "tensors"}, NEEDS),
        (lambda m: {k: v for k, v in m.items() if k != "config"}, NEEDS),
        (lambda m: {**m, "tensors": [1]}, "tensor entry without a name"),
        (lambda m: {**m, "tensors": [{k: v for k, v in m["tensors"][0].items()
                                      if k != "name"}]}, "tensor entry without a name"),
        (lambda m: {**m, "tensors": [{**m["tensors"][0], "shape": [-1]}]},
         "tensor 'a.weight' needs non-negative integer shape"),
        (lambda m: {**m, "tensors": [{**m["tensors"][0], "shape": [3.0, 4]}]},
         "tensor 'a.weight' needs non-negative integer shape"),
        (lambda m: {**m, "tensors": [{**m["tensors"][0], "byte_offset": "0"}]},
         "tensor 'a.weight' needs non-negative integer shape and byte_offset"),
        (lambda m: {**m, "tensors": [{**m["tensors"][0], "shape": [10 ** 30]}]},
         "tensor 'a.weight' payload out of range"),
    ])
    def test_malformed_manifest_rejected(self, tmp_path, edit, match):
        p = tmp_path / "c.bin"
        save_checkpoint(p, {}, self.tensors())
        raw = p.read_bytes()
        mlen = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
        mbytes = json.dumps(edit(json.loads(raw[8:8 + mlen]))).encode("utf-8")
        p.write_bytes(raw[:4] + len(mbytes).to_bytes(4, "little") + mbytes
                      + raw[8 + mlen:])
        with pytest.raises(ValueError, match=f"^{re.escape(f'checkpoint {p}: {match}')}"):
            load_checkpoint(p)

    @pytest.fixture(scope="class")
    def valid(self, tmp_path_factory):
        p = tmp_path_factory.mktemp("ckpt") / "valid.bin"
        save_checkpoint(p, {"seed": 7, "widths": [64, 32]}, self.tensors())
        return p.read_bytes()

    @PROPERTY
    @given(data=st.data())
    def test_any_truncation_loads_or_names_file(self, tmp_path_factory, valid, data):
        cut = data.draw(st.integers(0, len(valid)), label="cut")
        p = tmp_path_factory.mktemp("ckpt") / "c.bin"
        p.write_bytes(valid[:cut])
        loads_or_names(load_checkpoint, p, f"checkpoint {p}: ")

    @PROPERTY
    @given(data=st.data(), value=st.integers(0, 255))
    def test_any_byte_change_loads_or_names_file(self, tmp_path_factory, valid, data,
                                                  value):
        at = data.draw(st.integers(0, len(valid) - 1), label="at")
        raw = bytearray(valid)
        raw[at] = value
        p = tmp_path_factory.mktemp("ckpt") / "c.bin"
        p.write_bytes(bytes(raw))
        loads_or_names(load_checkpoint, p, f"checkpoint {p}: ")

    def test_float64_inputs_are_stored_as_f32(self, tmp_path):
        p = tmp_path / "c.bin"
        save_checkpoint(p, {}, {"x": np.array([1.0, 2.0])})
        _, tensors = load_checkpoint(p)
        assert tensors["x"].dtype == np.float32


class TestObj:
    def test_roundtrip(self, tmp_path):
        verts = np.array([[0.0, 0, 0], [100.25, 0, 0], [0, 50.5, 0], [0, 0, 75.125]])
        faces = np.array([[0, 1, 2], [0, 2, 3]])
        p = tmp_path / "m.obj"
        save_obj(p, verts, faces)
        rows = [line.split() for line in p.read_text().splitlines()]
        v2 = np.array([[float(x) for x in r[1:]] for r in rows if r[0] == "v"])
        f2 = np.array([[int(x) - 1 for x in r[1:]] for r in rows if r[0] == "f"])
        np.testing.assert_allclose(v2, verts, rtol=1e-5)
        np.testing.assert_array_equal(f2, faces)

    def test_one_based_text(self, tmp_path):
        p = tmp_path / "m.obj"
        save_obj(p, np.zeros((3, 3)), np.array([[0, 1, 2]]))
        lines = p.read_text().splitlines()
        assert lines[-1] == "f 1 2 3"
        assert lines[0] == "v 0 0 0"

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="faces"):
            save_obj(tmp_path / "x.obj", np.zeros((3, 3)), np.array([[0, 1]]))
        with pytest.raises(ValueError, match="out of range"):
            save_obj(tmp_path / "x.obj", np.zeros((3, 3)), np.array([[0, 1, 9]]))
