"""Fuzz of the container reader: damaged files raise one of three errors.

Every case starts from one tiny saved model and damages it: cuts it short,
flips bytes of its header and manifest, or rewrites manifest fields, entries
and the embedded config. ``load`` and ``load_tensors`` may succeed (some
damage is harmless) or raise ``CheckpointFormatError``,
``CheckpointCorruptionError`` or ``OSError``; anything else is a reader bug.
A smaller sample also runs ``metaformer infer`` on the damaged file, which
must exit 0, or 2 with one ``error:`` line.
"""

import contextlib
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaformer import cli
from metaformer.checkpoint import CheckpointCorruptionError, CheckpointFormatError, load, load_tensors, save, save_tensors
from metaformer.model import ModelConfig, build

CONFIG = ModelConfig(dims=(2, 2, 2, 2), depths=(1, 1, 1, 1), num_classes=2, input_size=32)
READ_ERRORS = (CheckpointFormatError, CheckpointCorruptionError, OSError)
FUZZ = settings(derandomize=True, max_examples=150, deadline=None)

# Mostly near-valid values of the wrong type or size, which get furthest into the reader.
JSON_VALUES = st.one_of(
    st.integers(-8, 3000),
    st.sampled_from((0.0, 8.0, 1e300, float("nan"), True, False, None, "", "8", [], [2], {"a": 1}, 2**64)),
    st.text(max_size=4), st.lists(st.integers(-3, 70), max_size=4),
)
FIELDS = ("name", "shape", "dtype", "frozen", "offset", "byte_len")
# Rewrites of a numeric field, or of every dim of a shape, that keep its magnitude: a negated
# shape of even rank still matches its byte_len.
RETYPES = {"float": float, "str": str, "neg": lambda v: -v}
CONFIGS = st.one_of(
    JSON_VALUES,
    st.builds(lambda name: {"variant": name}, st.sampled_from(("S12", "M48", "X1", ""))),
    st.builds(lambda custom: {"custom": custom},
              st.dictionaries(st.sampled_from(("dims", "depths", "mixers", "norm", "num_classes", "input_size",
                                               "layer_scale_init", "drop_path", "in_channels")),
                              JSON_VALUES, max_size=3)),
)
MUTATIONS = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 99), st.sampled_from(FIELDS), JSON_VALUES),
    st.tuples(st.just("drop"), st.integers(0, 99), st.sampled_from(FIELDS)),
    st.tuples(st.just("shift"), st.integers(0, 99), st.sampled_from(("offset", "byte_len")), st.integers(-64, 64)),
    st.tuples(st.just("reshape"), st.integers(0, 99), st.lists(st.integers(0, 70), max_size=4)),
    st.tuples(st.just("retype"), st.integers(0, 99), st.sampled_from(("shape", "offset", "byte_len")),
              st.sampled_from(tuple(RETYPES))),
    st.tuples(st.just("remove"), st.integers(0, 99)),
    st.tuples(st.just("duplicate"), st.integers(0, 99)),
    st.tuples(st.just("config"), CONFIGS),
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """(path to damage, valid infer input, pristine container bytes, header + manifest length)."""
    root = tmp_path_factory.mktemp("fuzz")
    pristine, request = str(root / "pristine.ckpt"), str(root / "input.mft")
    save(build(CONFIG, seed=0), pristine)
    save_tensors(request, {"input": np.random.default_rng(0).random((1, 3, 32, 32), dtype=np.float32)})
    blob = open(pristine, "rb").read()
    return str(root / "damaged.ckpt"), request, blob, 16 + struct.unpack("<Q", blob[8:16])[0]


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def mutate(manifest: dict, mutation: tuple) -> None:
    kind, *args = mutation
    tensors = manifest["tensors"]
    if kind == "config":
        manifest["config"] = args[0]
        return
    entry = tensors[args[0] % len(tensors)]
    if kind == "set":
        entry[args[1]] = args[2]
    elif kind == "drop":
        entry.pop(args[1], None)
    elif kind == "shift" and isinstance(entry.get(args[1]), int):
        entry[args[1]] += args[2]
    elif kind == "reshape":
        entry["shape"] = args[1]
    elif kind == "retype":
        value, cast = entry.get(args[1]), RETYPES[args[2]]
        if is_number(value):
            entry[args[1]] = cast(value)
        elif isinstance(value, list) and all(is_number(v) for v in value):
            entry[args[1]] = [cast(v) for v in value]
    elif kind == "remove":
        tensors.remove(entry)
    elif kind == "duplicate":
        tensors.insert(args[0] % len(tensors), dict(entry))


def with_manifest(blob: bytes, head: int, mutations) -> bytes:
    manifest = json.loads(blob[16:head].decode("utf-8"))
    for mutation in mutations:
        if manifest["tensors"] or mutation[0] == "config":
            mutate(manifest, mutation)
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    return blob[:8] + struct.pack("<Q", len(mbytes)) + mbytes + blob[head:]


def read_both(path: str, damaged: bytes) -> bool:
    """Write ``damaged`` to ``path`` and read it both ways; True if ``load`` refused it."""
    with open(path, "wb") as f:
        f.write(damaged)
    try:
        load_tensors(path)
    except READ_ERRORS:
        pass
    try:
        load(path)
    except READ_ERRORS:
        return True
    return False


@FUZZ
@given(cut=st.integers(0, 10**9))
def test_truncated_containers_raise_read_errors(files, cut):
    path, _, blob, _ = files
    assert read_both(path, blob[: cut % len(blob)])


@FUZZ
@given(flips=st.lists(st.tuples(st.integers(0, 10**9), st.integers(1, 255)), min_size=1, max_size=4))
def test_header_and_manifest_byte_flips_raise_read_errors(files, flips):
    path, _, blob, head = files
    damaged = bytearray(blob)
    for position, mask in flips:
        damaged[position % head] ^= mask
    read_both(path, bytes(damaged))


@FUZZ
@given(mutations=st.lists(MUTATIONS, min_size=1, max_size=3))
def test_manifest_mutations_raise_read_errors(files, mutations):
    path, _, blob, head = files
    read_both(path, with_manifest(blob, head, mutations))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(cut=st.integers(0, 10**9),
       flips=st.lists(st.tuples(st.integers(0, 10**9), st.integers(1, 255)), max_size=2),
       mutations=st.lists(MUTATIONS, max_size=2))
def test_infer_on_a_damaged_container_exits_0_or_2_with_one_line(files, cut, flips, mutations):
    path, request, blob, head = files
    damaged = bytearray(with_manifest(blob, head, mutations))
    mhead = 16 + struct.unpack("<Q", damaged[8:16])[0]
    for position, mask in flips:
        damaged[position % mhead] ^= mask
    if cut % 3 == 0:
        damaged = damaged[: cut % len(damaged)]
    refused = read_both(path, bytes(damaged))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["infer", "--ckpt", path, "--input", request])
    err = stderr.getvalue().splitlines()
    if refused:
        assert code == 2 and len(err) == 1 and err[0].startswith("error:"), (code, err)
    else:
        assert code == 0 and not err, (code, err)
