"""Tensor serialization: JSON manifest plus one raw little-endian blob.

Layout (documented here, stable):

  <name>.json   manifest, a JSON object:
                  {"format": "hici-tensors-v1",
                   "blob": "<name>.bin",
                   "tensors": [{"name": str, "shape": [int, ...],
                                "dtype": "f8"|"f4", "offset": int,
                                "nbytes": int}, ...]}
                entries appear in write order; offsets are byte offsets
                into the blob.
  <name>.bin    the concatenation of every tensor's row-major (C order)
                little-endian bytes, in manifest order, no padding.

Round trips are bit-exact for f8. f4 is a storage option for checkpoints
that can tolerate precision loss; compute always happens in f8.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

FORMAT_TAG = "hici-tensors-v1"

_DTYPES = {"f8": np.dtype("<f8"), "f4": np.dtype("<f4")}


def save_tensors(prefix, tensors, dtype="f8"):
    """Write `{name: ndarray}` to `<prefix>.json` + `<prefix>.bin`.

    Iteration order of the mapping defines blob order. Returns the
    manifest path.
    """
    if dtype not in _DTYPES:
        raise ValueError(f"unsupported dtype {dtype!r}; use one of {sorted(_DTYPES)}")
    np_dtype = _DTYPES[dtype]
    entries = []
    offset = 0
    blob_path = f"{prefix}.bin"
    manifest_path = f"{prefix}.json"
    with open(blob_path, "wb") as blob:
        for name, arr in tensors.items():
            arr = np.ascontiguousarray(arr, dtype=np_dtype)
            raw = arr.tobytes(order="C")
            blob.write(raw)
            entries.append({
                "name": name,
                "shape": list(arr.shape),
                "dtype": dtype,
                "offset": offset,
                "nbytes": len(raw),
            })
            offset += len(raw)
    manifest = {
        "format": FORMAT_TAG,
        "blob": os.path.basename(blob_path),
        "tensors": entries,
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return manifest_path


def load_tensors(prefix):
    """Read tensors written by `save_tensors`; returns `{name: ndarray}` (f8)."""
    manifest_path = f"{prefix}.json"
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_path}: expected a JSON object")
    if manifest.get("format") != FORMAT_TAG:
        raise ValueError(f"{manifest_path}: unknown format {manifest.get('format')!r}")
    if not isinstance(manifest.get("blob"), str) or not isinstance(manifest.get("tensors"), list):
        raise ValueError(f"{manifest_path}: needs a 'blob' file name and a 'tensors' list")
    blob_path = os.path.join(os.path.dirname(manifest_path), manifest["blob"])
    with open(blob_path, "rb") as fh:
        raw = fh.read()
    out = {}
    for e in manifest["tensors"]:
        if not isinstance(e, dict):
            raise ValueError(f"{manifest_path}: tensor entry {e!r} is not an object")
        where = f"{manifest_path}: tensor {e.get('name')!r}"
        missing = sorted({"name", "shape", "dtype", "offset", "nbytes"} - set(e))
        if missing:
            raise ValueError(f"{where}: manifest entry lacks {', '.join(missing)}")
        shape, offset = e["shape"], e["offset"]
        dt = _DTYPES.get(e["dtype"]) if isinstance(e["dtype"], str) else None
        if dt is None:
            raise ValueError(f"{where}: unknown dtype {e['dtype']!r}")
        if not isinstance(shape, list) or not all(_is_count(s) for s in shape):
            raise ValueError(f"{where}: shape {shape!r} is not a list of non-negative ints")
        nbytes = math.prod(shape) * dt.itemsize
        if e["nbytes"] != nbytes:
            raise ValueError(f"{where}: nbytes {e['nbytes']!r} vs {nbytes} for shape {shape}")
        if not _is_count(offset) or offset + nbytes > len(raw):
            raise ValueError(f"{where}: bytes [{offset!r}, +{nbytes}) lie outside the "
                             f"{len(raw)}-byte blob")
        arr = np.frombuffer(raw, dtype=dt, count=nbytes // dt.itemsize, offset=offset)
        out[e["name"]] = arr.reshape(shape).astype(np.float64)
    return out


def _is_count(x):
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0
