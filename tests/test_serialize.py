import json

import numpy as np
import pytest

from hici.serialize import FORMAT_TAG, load_tensors, save_tensors


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a.weight": rng.normal(size=(3, 5)),
        "b.gate": np.array([0.1 + 0.2]),          # value with no short decimal form
        "c.table": rng.normal(size=(7,)),
    }
    prefix = str(tmp_path / "ckpt")
    save_tensors(prefix, tensors)
    loaded = load_tensors(prefix)
    assert set(loaded) == set(tensors)
    for name, arr in tensors.items():
        assert loaded[name].dtype == np.float64
        assert arr.tobytes() == loaded[name].tobytes()


def test_manifest_layout(tmp_path):
    prefix = str(tmp_path / "t")
    save_tensors(prefix, {"x": np.zeros((2, 2)), "y": np.ones(3)})
    with open(prefix + ".json") as fh:
        manifest = json.load(fh)
    assert manifest["format"] == FORMAT_TAG
    entries = manifest["tensors"]
    assert [e["name"] for e in entries] == ["x", "y"]
    assert entries[0]["offset"] == 0
    assert entries[1]["offset"] == entries[0]["nbytes"] == 32
    assert entries[0]["shape"] == [2, 2]
    assert all(e["dtype"] == "f8" for e in entries)


def test_blob_is_little_endian_row_major(tmp_path):
    prefix = str(tmp_path / "t")
    arr = np.arange(6.0).reshape(2, 3)
    save_tensors(prefix, {"x": arr})
    raw = np.fromfile(prefix + ".bin", dtype="<f8")
    assert np.array_equal(raw, np.arange(6.0))


def test_f4_storage_option(tmp_path):
    prefix = str(tmp_path / "t")
    arr = np.array([[1.0, 2.5], [-3.25, 0.125]])
    save_tensors(prefix, {"x": arr}, dtype="f4")
    loaded = load_tensors(prefix)
    assert np.array_equal(loaded["x"], arr)  # exactly representable values
    assert loaded["x"].dtype == np.float64


def test_unknown_dtype_rejected(tmp_path):
    with pytest.raises(ValueError, match="dtype"):
        save_tensors(str(tmp_path / "t"), {"x": np.zeros(2)}, dtype="f2")


def test_unknown_format_rejected(tmp_path):
    prefix = str(tmp_path / "t")
    save_tensors(prefix, {"x": np.zeros(2)})
    with open(prefix + ".json") as fh:
        manifest = json.load(fh)
    manifest["format"] = "something-else"
    with open(prefix + ".json", "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(ValueError, match="unknown format"):
        load_tensors(prefix)


# (field, replacement given the entry) pairs, each a bad manifest entry
_BAD_ENTRIES = [
    ("dtype", lambda e: "f2"),
    ("dtype", lambda e: ["f8"]),
    ("nbytes", lambda e: e["nbytes"] - 1),
    ("nbytes", lambda e: e["nbytes"] + 8),
    ("offset", lambda e: e["offset"] + e["nbytes"] + 8 * 64),
    ("offset", lambda e: -8),
    ("shape", lambda e: [e["shape"][0], -e["shape"][1]]),
    ("shape", lambda e: [float(e["shape"][0]), e["shape"][1]]),
    ("shape", lambda e: e["shape"] + [2]),
]


def test_corrupt_manifest_or_blob_raises_value_error_naming_the_tensor(tmp_path):
    rng = np.random.default_rng(0)
    shapes = {"a": (2, 3), "b": (4, 1), "c": (1, 5)}
    prefix = str(tmp_path / "t")
    save_tensors(prefix, {n: rng.normal(size=s) for n, s in shapes.items()})
    with open(prefix + ".json") as fh:
        manifest = json.load(fh)
    with open(prefix + ".bin", "rb") as fh:
        blob = fh.read()

    def load_with(entries, raw):
        with open(prefix + ".json", "w") as fh:
            json.dump(dict(manifest, tensors=entries), fh)
        with open(prefix + ".bin", "wb") as fh:
            fh.write(raw)
        return load_tensors(prefix)

    for _ in range(40):
        i = int(rng.integers(len(shapes)))
        field, bad = _BAD_ENTRIES[int(rng.integers(len(_BAD_ENTRIES)))]
        entries = [dict(e) for e in manifest["tensors"]]
        entries[i][field] = bad(entries[i])
        name = entries[i]["name"]
        with pytest.raises(ValueError, match=f"tensor '{name}'"):
            load_with(entries, blob)

    for cut in rng.integers(1, len(blob) + 1, size=10):
        with pytest.raises(ValueError, match="outside the"):
            load_with(manifest["tensors"], blob[:len(blob) - int(cut)])
    for name, error in (("a", r"t\.json: tensor 'a': duplicate name"),
                        (["b"], r"t\.json: tensor \['b'\]: the name is not a string")):
        entries = [dict(e) for e in manifest["tensors"]]
        entries[1]["name"] = name
        with pytest.raises(ValueError, match=error):
            load_with(entries, blob)
    assert set(load_with(manifest["tensors"], blob)) == set(shapes)


@pytest.mark.parametrize("blob", ["/etc/hostname", "../t.bin", "sub/t.bin", "..", ".", ""])
def test_manifest_blob_must_be_a_plain_file_name(tmp_path, blob):
    prefix = str(tmp_path / "t")
    save_tensors(prefix, {"x": np.zeros(2)})
    with open(prefix + ".json") as fh:
        manifest = json.load(fh)
    with open(prefix + ".json", "w") as fh:
        json.dump(dict(manifest, blob=blob), fh)
    with pytest.raises(ValueError, match=r"t\.json: blob .* is not a plain file name"):
        load_tensors(prefix)
