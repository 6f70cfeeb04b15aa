"""Single-file binary container for model configs and parameters.

Layout (all integers little-endian):

    bytes 0..3    magic "MFCK"
    bytes 4..7    format version, u32 (currently 1)
    bytes 8..15   manifest length in bytes, u64
    manifest      UTF-8 JSON: {"config": <model config or null>,
                   "tensors": [{"name", "shape", "dtype", "frozen",
                                "offset", "byte_len"}, ...]}
    payload       concatenated raw little-endian f32 buffers; offsets are
                  relative to the start of the payload, nondecreasing and
                  non-overlapping

The payload is written in manifest order. Tensor names are the model's
hierarchical parameter paths (e.g. "stage3.block2.mlp.fc1.weight"). Frozen
marks tensors the optimizer never updates (frozen mixer weights, running
statistics). Loading rebuilds the model from the embedded config and copies
payload bytes back bit-exactly, straight from the bytes read from the file;
it never runs model math, and the model it returns records no graph.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Dict, Optional

import numpy as np

from .analysis import count_params
from .model import ConfigError, Model, ModelConfig, build
from .tensor import InvalidArgument

MAGIC = b"MFCK"
VERSION = 1
_PAYLOAD_DTYPE = np.dtype("<f4")


class CheckpointFormatError(RuntimeError):
    """The file is not a container this version can read."""


class CheckpointCorruptionError(RuntimeError):
    """Manifest and payload disagree; the named tensor cannot be restored."""


def _build_manifest(entries: Dict[str, tuple], config: Optional[dict]) -> dict:
    tensors = []
    offset = 0
    for name, (arr, frozen) in entries.items():
        byte_len = arr.size * _PAYLOAD_DTYPE.itemsize
        tensors.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "dtype": "f32",
                "frozen": bool(frozen),
                "offset": offset,
                "byte_len": byte_len,
            }
        )
        offset += byte_len
    return {"config": config, "tensors": tensors}


def _write_container(path: str, entries: Dict[str, tuple], config: Optional[dict]) -> None:
    manifest = _build_manifest(entries, config)
    manifest_bytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    try:
        with open(path, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", VERSION))
            f.write(struct.pack("<Q", len(manifest_bytes)))
            f.write(manifest_bytes)
            for name, (arr, _) in entries.items():
                f.write(np.ascontiguousarray(arr, dtype=_PAYLOAD_DTYPE).tobytes())
    except OSError as e:
        raise OSError(f"cannot write container to {path!r}: {e}") from e


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _entry_fields(entry, index: int, path: str) -> tuple:
    """(name, shape, offset, byte_len) of one manifest entry, each checked for type."""
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise CheckpointCorruptionError(f"{path!r}: manifest entry {index} is not an object with a string name")
    name, shape = entry["name"], entry.get("shape")
    if not isinstance(shape, list) or not all(_is_count(d) for d in shape):
        raise CheckpointCorruptionError(f"{path!r}: tensor {name!r} has malformed shape {shape!r}")
    if not _is_count(entry.get("offset")) or not _is_count(entry.get("byte_len")):
        raise CheckpointCorruptionError(f"{path!r}: tensor {name!r} lacks a valid offset and byte_len")
    return name, tuple(shape), entry["offset"], entry["byte_len"]


def _read_container(path: str) -> tuple:
    """Returns (manifest dict, {name: f32 array})."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise OSError(f"cannot read container from {path!r}: {e}") from e
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise CheckpointFormatError(f"{path!r} is not a checkpoint container (bad magic)")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != VERSION:
        raise CheckpointFormatError(f"{path!r}: unsupported container version {version}")
    (mlen,) = struct.unpack("<Q", blob[8:16])
    if 16 + mlen > len(blob):
        raise CheckpointCorruptionError(f"{path!r}: manifest truncated")
    try:
        manifest = json.loads(blob[16 : 16 + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointCorruptionError(f"{path!r}: manifest is not valid JSON: {e}") from e
    if not isinstance(manifest, dict) or not isinstance(manifest.get("tensors"), list):
        raise CheckpointCorruptionError(f"{path!r}: manifest missing a 'tensors' list")
    payload = memoryview(blob)[16 + mlen :]  # views, not copies, of the file bytes
    arrays: Dict[str, np.ndarray] = {}
    prev_end = 0
    for index, entry in enumerate(manifest["tensors"]):
        name, shape, start, byte_len = _entry_fields(entry, index, path)
        if byte_len != math.prod(shape) * _PAYLOAD_DTYPE.itemsize:
            raise CheckpointCorruptionError(f"{path!r}: tensor {name!r} declares {byte_len} bytes for shape {shape}")
        if start < prev_end:
            raise CheckpointCorruptionError(f"{path!r}: tensor {name!r} overlaps the previous entry")
        end = start + byte_len
        if end > len(payload):
            raise CheckpointCorruptionError(f"{path!r}: payload truncated at tensor {name!r}")
        arrays[name] = np.frombuffer(payload[start:end], dtype=_PAYLOAD_DTYPE).reshape(shape)
        prev_end = end
    return manifest, arrays


def save(model: Model, path: str) -> None:
    """Write the model's config and every persistent array to ``path``; f32 models only."""
    state = model.state_arrays()
    for name, (arr, _) in state.items():
        if arr.dtype != np.float32:
            raise InvalidArgument(f"save: tensor {name!r} is {arr.dtype.name}; containers hold float32 models only")
    _write_container(path, state, model.config.to_json_dict())


def load(path: str) -> Model:
    """Rebuild the model stored at ``path`` with parameters restored bit-exactly.

    The model is returned for serving: its forwards record no autodiff
    graph. Call ``requires_grad_(True)`` on it to train or fine-tune it.
    """
    manifest, arrays = _read_container(path)
    if manifest.get("config") is None:
        raise CheckpointFormatError(f"{path!r}: container has no model config (tensor-only file?)")
    try:
        config = ModelConfig.from_json_dict(manifest["config"])
    except ConfigError as e:
        raise CheckpointCorruptionError(f"{path!r}: embedded model config is malformed: {e}") from e
    # Refuse before building: the config alone may name a model far larger than the file.
    needed = sum(count_params(config))
    declared = sum(arr.size for arr in arrays.values())
    if declared < needed:
        raise CheckpointCorruptionError(
            f"{path!r}: manifest declares {declared:,} elements, its config needs at least {needed:,}"
        )
    model = build(config, seed=0)
    state = model.state_arrays()
    missing = set(state) - set(arrays)
    extra = set(arrays) - set(state)
    if missing or extra:
        detail = []
        if missing:
            detail.append(f"missing {sorted(missing)[:3]}")
        if extra:
            detail.append(f"unexpected {sorted(extra)[:3]}")
        raise CheckpointCorruptionError(f"{path!r}: tensor set mismatch ({'; '.join(detail)})")
    for name, (arr, _) in state.items():
        loaded = arrays[name]
        if loaded.shape != arr.shape:
            raise CheckpointCorruptionError(
                f"{path!r}: tensor {name!r} has shape {loaded.shape}, model expects {arr.shape}"
            )
        np.copyto(arr, loaded)
    return model.requires_grad_(False)


def save_tensors(path: str, tensors: Dict[str, np.ndarray]) -> None:
    """Write a config-free container of named arrays (e.g. an inference input)."""
    _write_container(path, {name: (np.asarray(a), False) for name, a in tensors.items()}, None)


def load_tensors(path: str) -> Dict[str, np.ndarray]:
    _, arrays = _read_container(path)
    return arrays
