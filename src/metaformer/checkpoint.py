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
hierarchical parameter paths (e.g. "stage3.block2.mlp.fc1.weight"), each
named once. Frozen
marks tensors the optimizer never updates (frozen mixer weights, running
statistics). Loading checks the header and every manifest entry against the
file's size first, then builds the model from the embedded config without a
random init and reads each tensor's payload bytes from the file straight into
its array, bit-exactly, refusing a tensor that holds a NaN or an infinity; it
never runs model math, and the model it returns records no graph.
"""

from __future__ import annotations

import json
import math
import os
import stat
import struct
from typing import Dict, Optional

import numpy as np

from .analysis import count_params
from .model import ConfigError, Model, ModelConfig
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


def _write_container(path: str, entries: Dict[str, tuple], config: Optional[dict], where: str) -> None:
    """Write ``entries`` ({name: (array, frozen)}) and ``config``; names must be strings and arrays float32.

    Both are checked before ``path`` is opened, so a refused call writes nothing
    and no file is written that the readers would refuse.
    """
    for name, (arr, _) in entries.items():
        if not isinstance(name, str):
            raise InvalidArgument(f"{where}: tensor name {name!r} is {type(name).__name__}, not a string")
        if arr.dtype.type is not np.float32:
            raise InvalidArgument(f"{where}: tensor {name!r} is {arr.dtype.name}; containers hold float32 arrays only")
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


def _open(path: str):
    try:
        return open(path, "rb", buffering=0)
    except OSError as e:
        raise OSError(f"cannot read container from {path!r}: {e}") from e


def _read_manifest(f, path: str) -> tuple:
    """(manifest dict, {name: (shape, file offset)}), reading no payload byte.

    Every entry is checked against the file's size, so a later read of an
    entry comes up short only if the file shrinks while it is open. That
    size and the seeks need a regular file; a pipe or device is refused.
    """
    st = os.fstat(f.fileno())
    if not stat.S_ISREG(st.st_mode):
        raise OSError(f"cannot read container from {path!r}: not a regular file")
    size = st.st_size
    head = f.read(16)
    if len(head) < 16 or head[:4] != MAGIC:
        raise CheckpointFormatError(f"{path!r} is not a checkpoint container (bad magic)")
    (version,) = struct.unpack("<I", head[4:8])
    if version != VERSION:
        raise CheckpointFormatError(f"{path!r}: unsupported container version {version}")
    (mlen,) = struct.unpack("<Q", head[8:16])
    manifest_bytes = f.read(mlen) if 16 + mlen <= size else b""  # never ask for more than the file holds
    if len(manifest_bytes) < mlen:
        raise CheckpointCorruptionError(f"{path!r}: manifest truncated")
    try:
        manifest = json.loads(manifest_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointCorruptionError(f"{path!r}: manifest is not valid JSON: {e}") from e
    if not isinstance(manifest, dict) or not isinstance(manifest.get("tensors"), list):
        raise CheckpointCorruptionError(f"{path!r}: manifest missing a 'tensors' list")
    payload_start = 16 + mlen
    entries: Dict[str, tuple] = {}
    prev_end = 0
    for index, entry in enumerate(manifest["tensors"]):
        name, shape, start, byte_len = _entry_fields(entry, index, path)
        if name in entries:
            raise CheckpointCorruptionError(f"{path!r}: tensor {name!r} appears twice in the manifest")
        if byte_len != math.prod(shape) * _PAYLOAD_DTYPE.itemsize:
            raise CheckpointCorruptionError(f"{path!r}: tensor {name!r} declares {byte_len} bytes for shape {shape}")
        if start < prev_end:
            raise CheckpointCorruptionError(f"{path!r}: tensor {name!r} overlaps the previous entry")
        end = start + byte_len
        if payload_start + end > size:
            raise CheckpointCorruptionError(f"{path!r}: payload truncated at tensor {name!r}")
        entries[name] = (shape, payload_start + start)
        prev_end = end
    return manifest, entries


def _read_into(f, path: str, name: str, offset: int, out: np.ndarray) -> None:
    """Fill ``out`` (C-contiguous f32 of either byte order) with the payload of ``name`` at ``offset``."""
    view = memoryview(out.reshape(-1).view(np.uint8))  # raw bytes; a non-native dtype cannot be cast
    f.seek(offset)
    filled = 0
    while filled < len(view):
        n = f.readinto(view[filled:])
        if not n:
            raise CheckpointCorruptionError(f"{path!r}: payload truncated at tensor {name!r}")
        filled += n
    if out.dtype != _PAYLOAD_DTYPE:  # big-endian f32, e.g. native on a big-endian host
        out.byteswap(inplace=True)


def save(model: Model, path: str) -> None:
    """Write the model's config and every persistent array to ``path``; f32 models only.

    A tensor holding a NaN or an infinity is refused with ``FloatingPointError``
    before ``path`` is opened, since ``load`` would refuse the file.
    """
    state = model.state_arrays()
    for name, (arr, _) in state.items():
        if not np.isfinite(arr).all():
            raise FloatingPointError(f"save: tensor {name!r} holds a non-finite value; {path!r} not written")
    _write_container(path, state, model.config.to_json_dict(), "save")


def load(path: str) -> Model:
    """Rebuild the model stored at ``path`` with parameters restored bit-exactly.

    Every check on the manifest runs before any payload byte is read. The
    model is built without a random init (``Model(config, None)``) and each
    tensor is read from the file straight into its array, then checked to be
    finite. The model is returned for serving: its forwards record no
    autodiff graph. Call ``requires_grad_(True)`` on it to train or fine-tune
    it.
    """
    with _open(path) as f:
        manifest, entries = _read_manifest(f, path)
        if manifest.get("config") is None:
            raise CheckpointFormatError(f"{path!r}: container has no model config (tensor-only file?)")
        try:
            config = ModelConfig.from_json_dict(manifest["config"])
        except ConfigError as e:
            raise CheckpointCorruptionError(f"{path!r}: embedded model config is malformed: {e}") from e
        # Refuse before building: the config alone may name a model far larger than the file.
        needed = sum(count_params(config))
        declared = sum(math.prod(shape) for shape, _ in entries.values())
        if declared < needed:
            raise CheckpointCorruptionError(
                f"{path!r}: manifest declares {declared:,} elements, its config needs at least {needed:,}"
            )
        model = Model(config, None)
        state = model.state_arrays()
        missing = set(state) - set(entries)
        extra = set(entries) - set(state)
        if missing or extra:
            detail = []
            if missing:
                detail.append(f"missing {sorted(missing)[:3]}")
            if extra:
                detail.append(f"unexpected {sorted(extra)[:3]}")
            raise CheckpointCorruptionError(f"{path!r}: tensor set mismatch ({'; '.join(detail)})")
        for name, (arr, _) in state.items():
            shape = entries[name][0]
            if shape != arr.shape:
                raise CheckpointCorruptionError(
                    f"{path!r}: tensor {name!r} has shape {shape}, model expects {arr.shape}"
                )
        for name, (_, offset) in entries.items():
            arr = state[name][0]
            _read_into(f, path, name, offset, arr)
            if not np.isfinite(arr).all():  # checked while the tensor is still in cache
                raise CheckpointCorruptionError(f"{path!r}: tensor {name!r} holds a non-finite value")
    return model.requires_grad_(False)


def save_tensors(path: str, tensors: Dict[str, np.ndarray]) -> None:
    """Write a config-free container of named float32 arrays (e.g. an inference input)."""
    _write_container(path, {name: (np.asarray(a), False) for name, a in tensors.items()}, None, "save_tensors")


def tensor_shapes(path: str) -> Dict[str, tuple]:
    """The shape of every named array of a container, in manifest order, from the manifest alone."""
    with _open(path) as f:
        _, entries = _read_manifest(f, path)
    return {name: shape for name, (shape, _) in entries.items()}


def load_tensors(path: str) -> Dict[str, np.ndarray]:
    """Every named array of a container, each read from the file into a fresh little-endian f32 array."""
    with _open(path) as f:
        _, entries = _read_manifest(f, path)
        arrays = {name: np.empty(shape, _PAYLOAD_DTYPE) for name, (shape, _) in entries.items()}
        for name, (_, offset) in entries.items():
            _read_into(f, path, name, offset, arrays[name])
    return arrays
