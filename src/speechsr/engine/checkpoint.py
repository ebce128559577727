"""Versioned binary container for named float64 arrays plus JSON metadata.

Layout (documented for external consumers):

    bytes 0..7    magic b"SSRCKPT1"
    bytes 8..11   uint32 little-endian header length H
    bytes 12..12+H-1  UTF-8 JSON header:
        {"format_version": 1,
         "meta": {...},                     # arbitrary JSON metadata
         "arrays": [{"name": str, "shape": [int], "offset": int}, ...]}
    remainder      concatenation of raw C-order little-endian float64 blobs;
                   ``offset`` counts elements from the start of the payload.

Arrays are stored sorted by name, so identical state produces identical
bytes. A save goes to ``<path>.tmp`` first and replaces ``path`` only once
fully written, so a crash mid-save leaves the previous file intact.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"SSRCKPT1"
FORMAT_VERSION = 1


def save_state(path, meta: dict, arrays: dict[str, np.ndarray]):
    entries = []
    blobs = []
    offset = 0
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(arr.tobytes())
        offset += arr.size
    header = json.dumps(
        {"format_version": FORMAT_VERSION, "meta": meta, "arrays": entries},
        sort_keys=True,
    ).encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(header)))
            fh.write(header)
            for blob in blobs:
                fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def load_state(path) -> tuple[dict, dict[str, np.ndarray]]:
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:8] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    (hlen,) = struct.unpack("<I", raw[8:12])
    if 12 + hlen > len(raw):
        raise ValueError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(raw[12:12 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: corrupt checkpoint header: {exc}") from exc
    if header.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {header.get('format_version')}")
    for field in ("meta", "arrays"):
        if field not in header:
            raise ValueError(f"{path}: checkpoint header has no {field!r}")
    if not isinstance(header["arrays"], list):
        raise ValueError(f"{path}: checkpoint header's 'arrays' is not a list")
    payload = np.frombuffer(raw[12 + hlen:], dtype="<f8")
    arrays = {}
    for entry in header["arrays"]:
        if not _well_formed(entry):
            raise ValueError(f"{path}: malformed checkpoint array entry {entry!r}; needs a string"
                             " 'name', a list of non-negative ints 'shape' and a non-negative"
                             " int 'offset'")
        shape = tuple(entry["shape"])
        n = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        if start + n > payload.size:
            raise ValueError(f"{path}: truncated checkpoint payload at {entry['name']}")
        arrays[entry["name"]] = payload[start:start + n].reshape(shape).astype(np.float64)
    return header["meta"], arrays


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _well_formed(entry) -> bool:
    """An array entry as :func:`save_state` writes it."""
    return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list) and all(map(_is_count, entry["shape"]))
            and _is_count(entry.get("offset")))
