import builtins
import hashlib
import json
import os
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from metaformer import checkpoint, cli, model as model_module
from metaformer.checkpoint import (
    MAGIC,
    CheckpointCorruptionError,
    CheckpointFormatError,
    load,
    load_tensors,
    save,
    save_tensors,
)
from metaformer.mixers import MIXER_KINDS, MixerConfig
from metaformer.model import VARIANTS, Model, ModelConfig, build
from metaformer.analysis import count_params
from metaformer.tensor import InvalidArgument, Tensor
from metaformer.train import AdamW, label_smoothing_ce, synth_batch, tiny_train_config

TINY = ModelConfig(dims=(8, 16, 32, 64), depths=(1, 1, 2, 1), num_classes=4,
                   input_size=32, drop_path=0.0)

ABLATION_CONFIGS = [
    TINY,
    TINY.with_mixers(("identity",) * 4),
    TINY.with_mixers(("random_matrix",) * 4),
    TINY.with_mixers(("pooling", "pooling", "depthwise_conv", "attention"), norm="ln"),
    TINY.with_mixers(("pooling", "pooling", "spatial_fc", "spatial_fc")),
    ModelConfig(dims=(8, 16, 32, 64), depths=(1, 1, 1, 1), num_classes=4, input_size=32,
                norm="bn", activation="relu", use_layer_scale=False),
    ModelConfig(dims=(8, 16, 32, 64), depths=(1, 1, 1, 1), num_classes=4, input_size=32,
                norm="none", use_residual=False, use_channel_mlp=False),
]


def forward_bits(model: Model, seed=0) -> np.ndarray:
    x = Tensor(np.random.default_rng(seed).random((2, 3, 32, 32)).astype(np.float32))
    return model.forward(x, mode="eval").data


@pytest.mark.parametrize("idx", range(len(ABLATION_CONFIGS)))
def test_roundtrip_identity_on_ablation_configs(idx, tmp_path):
    cfg = ABLATION_CONFIGS[idx]
    model = build(cfg, seed=3)
    path = str(tmp_path / "m.ckpt")
    save(model, path)
    restored = load(path)
    assert restored.config == cfg
    for (name, a), (_, b) in zip(model.named_parameters(), restored.named_parameters()):
        assert np.array_equal(a.data, b.data), name
    assert np.array_equal(forward_bits(model), forward_bits(restored))


def test_canonical_resave_is_byte_identical(tmp_path):
    model = build(TINY, seed=1)
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save(model, p1)
    save(load(p1), p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_payload_size_matches_param_count(tmp_path):
    cfg = TINY.with_mixers(("random_matrix",) * 4)
    model = build(cfg, seed=0)
    path = str(tmp_path / "m.ckpt")
    save(model, path)
    blob = open(path, "rb").read()
    (mlen,) = struct.unpack("<Q", blob[8:16])
    payload_len = len(blob) - 16 - mlen
    trainable, frozen = count_params(model)
    # No batch-norm buffers in this config, so the payload is exactly the parameters.
    assert payload_len == (trainable + frozen) * 4


def test_manifest_contents(tmp_path):
    model = build(TINY, seed=0)
    path = str(tmp_path / "m.ckpt")
    save(model, path)
    blob = open(path, "rb").read()
    assert blob[:4] == MAGIC
    (version,) = struct.unpack("<I", blob[4:8])
    assert version == 1
    (mlen,) = struct.unpack("<Q", blob[8:16])
    manifest = json.loads(blob[16 : 16 + mlen].decode("utf-8"))
    names = [t["name"] for t in manifest["tensors"]]
    assert len(names) == len(set(names))
    assert len(names) == len(list(model.named_parameters()))
    assert "stage3.block1.mlp.fc1.weight" in names
    offsets = [t["offset"] for t in manifest["tensors"]]
    assert offsets == sorted(offsets)
    ends = [t["offset"] + t["byte_len"] for t in manifest["tensors"]]
    assert all(o >= e for o, e in zip(offsets[1:], ends[:-1]))
    assert manifest["config"] == TINY.to_json_dict()


def test_frozen_flags_honored(tmp_path):
    cfg = TINY.with_mixers(("random_matrix",) * 4)
    model = build(cfg, seed=5)
    path = str(tmp_path / "m.ckpt")
    save(model, path)
    blob = open(path, "rb").read()
    (mlen,) = struct.unpack("<Q", blob[8:16])
    manifest = json.loads(blob[16 : 16 + mlen].decode("utf-8"))
    frozen = {t["name"] for t in manifest["tensors"] if t["frozen"]}
    assert frozen == {name for name, _ in model.frozen_parameters()}
    restored = load(path)
    for (name, a), (_, b) in zip(model.frozen_parameters(), restored.frozen_parameters()):
        assert not b.requires_grad
        assert np.array_equal(a.data, b.data)
        sums = b.data.astype(np.float64).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)


def test_bn_running_stats_roundtrip(tmp_path):
    cfg = ModelConfig(dims=(8, 16, 32, 64), depths=(1, 1, 1, 1), num_classes=4,
                      input_size=32, norm="bn")
    model = build(cfg, seed=0)
    x = Tensor(np.random.default_rng(1).random((4, 3, 32, 32)).astype(np.float32))
    model.forward(x, mode="train", rng=np.random.default_rng(0))  # move running stats off init
    path = str(tmp_path / "m.ckpt")
    save(model, path)
    restored = load(path)
    for (name, a), (_, b) in zip(model.named_buffers(), restored.named_buffers()):
        assert np.array_equal(a, b), name
    assert np.array_equal(forward_bits(model), forward_bits(restored))


def test_truncated_payload_raises_corruption_error(tmp_path):
    model = build(TINY, seed=0)
    path = str(tmp_path / "m.ckpt")
    save(model, path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-100])
    with pytest.raises(CheckpointCorruptionError, match="truncated"):
        load(path)


def test_bad_magic_and_version(tmp_path):
    path = str(tmp_path / "m.ckpt")
    open(path, "wb").write(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointFormatError, match="magic"):
        load(path)
    model = build(TINY, seed=0)
    save(model, path)
    blob = bytearray(open(path, "rb").read())
    blob[4:8] = struct.pack("<I", 99)
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointFormatError, match="version"):
        load(path)


def test_shape_mismatch_names_tensor(tmp_path):
    model = build(TINY, seed=0)
    path = str(tmp_path / "m.ckpt")
    save(model, path)
    blob = open(path, "rb").read()
    (mlen,) = struct.unpack("<Q", blob[8:16])
    manifest = json.loads(blob[16 : 16 + mlen].decode("utf-8"))
    # Swap the declared shape of the head bias without touching its byte budget.
    for t in manifest["tensors"]:
        if t["name"] == "head.bias":
            t["shape"] = [2, 2]
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    out = blob[:8] + struct.pack("<Q", len(mbytes)) + mbytes + blob[16 + mlen :]
    open(path, "wb").write(out)
    with pytest.raises(CheckpointCorruptionError, match="head.bias"):
        load(path)


def rewrite_manifest(path, mutate):
    blob = open(path, "rb").read()
    (mlen,) = struct.unpack("<Q", blob[8:16])
    manifest = json.loads(blob[16 : 16 + mlen].decode("utf-8"))
    mutate(manifest)
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    open(path, "wb").write(blob[:8] + struct.pack("<Q", len(mbytes)) + mbytes + blob[16 + mlen :])


def _set_entry(index, **fields):
    return lambda m: m["tensors"][index].update(fields)


def _drop_field(key):
    return lambda m: m["tensors"][0].pop(key)


MALFORMED_MANIFESTS = {
    "missing shape": _drop_field("shape"),
    "missing offset": _drop_field("offset"),
    "missing byte_len": _drop_field("byte_len"),
    "string shape": _set_entry(0, shape="8,3,7,7"),
    "negative dims": _set_entry(-1, shape=[-2, -2]),  # head.bias: 4 elements, as its byte_len says
    "float offset": _set_entry(0, offset=0.0),
    "non-list tensors": lambda m: m.update(tensors={"embed1.weight": 0}),
    "non-object entry": lambda m: m["tensors"].__setitem__(0, 5),
}


@pytest.mark.parametrize("case", MALFORMED_MANIFESTS)
def test_malformed_manifest_raises_corruption_error(case, tmp_path, capsys):
    path = str(tmp_path / "m.ckpt")
    save(build(TINY, seed=0), path)
    rewrite_manifest(path, MALFORMED_MANIFESTS[case])
    with pytest.raises(CheckpointCorruptionError):
        load(path)
    assert cli.main(["infer", "--ckpt", path, "--input", path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


def test_malformed_embedded_config_raises_corruption_error(tmp_path, capsys):
    path = str(tmp_path / "m.ckpt")
    save(build(TINY, seed=0), path)
    rewrite_manifest(path, lambda m: m.update(config={"custom": {"dims": 5}}))
    with pytest.raises(CheckpointCorruptionError, match=r"m\.ckpt.*config\.custom\.dims"):
        load(path)
    assert cli.main(["infer", "--ckpt", path, "--input", path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "config.custom.dims" in err[0], err


def test_manifest_naming_a_tensor_twice_is_refused(tmp_path, capsys):
    path = str(tmp_path / "m.ckpt")
    save(build(TINY, seed=0), path)

    def add_second_head_bias(manifest):
        end = max(t["offset"] + t["byte_len"] for t in manifest["tensors"])
        manifest["tensors"].append({"name": "head.bias", "shape": [4], "dtype": "f32", "frozen": False,
                                    "offset": end, "byte_len": 16})

    rewrite_manifest(path, add_second_head_bias)
    with open(path, "ab") as f:
        f.write(np.ones(4, dtype="<f4").tobytes())
    for read in (load, load_tensors):
        with pytest.raises(CheckpointCorruptionError, match=r"m\.ckpt.*'head\.bias' appears twice"):
            read(path)
    assert cli.main(["infer", "--ckpt", path, "--input", path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "head.bias" in err[0], err


def test_variant_overrides_survive_save_and_load(tmp_path):
    cfg = ModelConfig.variant_named("S12", num_classes=4)
    path = str(tmp_path / "m.ckpt")
    save(build(cfg, seed=0), path)
    restored = load(path)
    assert restored.config == cfg
    assert restored.head_weight.shape == (4, 512)


# Configs that must come back equal from JSON: variants with overrides, a
# variant's fields built by hand, every mixer kind with every mixer field set,
# and the pinned training config. The small ones also go through a container.
_S12 = ModelConfig.variant_named("S12")
LARGE_ROUNDTRIP_CONFIGS = {
    **{f"{name}-4-classes": ModelConfig.variant_named(name, num_classes=4) for name in VARIANTS},
    **{f"{name}-no-drop-path": replace(ModelConfig.variant_named(name), drop_path=0.0) for name in VARIANTS},
    "S12-by-hand": ModelConfig(dims=_S12.dims, depths=_S12.depths, layer_scale_init=_S12.layer_scale_init,
                               drop_path=_S12.drop_path),
}
SMALL_ROUNDTRIP_CONFIGS = {
    **{f"{kind}-all-fields": replace(TINY, mixers=(MixerConfig(kind=kind, pool_size=5, kernel=5, heads=2),) * 4)
       for kind in MIXER_KINDS},
    "tiny-train": tiny_train_config(),
}


@pytest.mark.parametrize("name", [*LARGE_ROUNDTRIP_CONFIGS, *SMALL_ROUNDTRIP_CONFIGS])
def test_every_config_survives_json_and_container_round_trips(name, tmp_path):
    cfg = {**LARGE_ROUNDTRIP_CONFIGS, **SMALL_ROUNDTRIP_CONFIGS}[name]
    assert ModelConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict()))) == cfg
    if name in SMALL_ROUNDTRIP_CONFIGS:
        path = str(tmp_path / "m.ckpt")
        save(build(cfg, seed=0), path)
        assert load(path).config == cfg


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_payload_is_refused_naming_the_tensor(value, tmp_path, capsys):
    name = "stage2.block0.mlp.fc1.weight"
    path = saved_tiny(tmp_path)
    blob = bytearray(open(path, "rb").read())
    head = header_and_manifest_len(path)
    entry = next(t for t in json.loads(blob[16:head])["tensors"] if t["name"] == name)
    at = head + entry["offset"] + 4 * 5  # its sixth element
    blob[at : at + 4] = np.array([value], dtype="<f4").tobytes()
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointCorruptionError, match=rf"m\.ckpt.*'{re.escape(name)}' holds a non-finite value"):
        load(path)
    assert cli.main(["infer", "--ckpt", path, "--input", path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and name in err[0], err


# (name, shape, frozen) of every persisted array, in container order, as the
# state walk must produce it. Renaming or reordering any tensor changes a
# checkpoint's bytes and breaks loading of earlier checkpoints.
STATE_HYBRID_BN = ModelConfig(
    dims=(8, 16, 32, 64), depths=(1, 1, 1, 1), num_classes=4, input_size=32, norm="bn",
    mixers=(MixerConfig(kind="attention", heads=2), MixerConfig(kind="depthwise_conv"),
            MixerConfig(kind="random_matrix"), MixerConfig(kind="spatial_fc")),
)
STATE_HYBRID_BN_SHA256 = "4d710e1aa61f8adaa50415305045d3d2bf516fd49c15f4dba1ea6a51be97a78d"
STATE_POOL_IDENTITY = ModelConfig(
    dims=(8, 16, 32, 64), depths=(1, 1, 1, 1), num_classes=4, input_size=32,
    mixers=(MixerConfig(kind="pooling"), MixerConfig(kind="identity"),
            MixerConfig(kind="pooling"), MixerConfig(kind="identity")),
    use_channel_mlp=False, use_layer_scale=False,
)
STATE_POOL_IDENTITY_LIST = [
    ["embed1.weight", [8, 3, 7, 7], False], ["embed1.bias", [8], False],
    ["stage1.block0.norm1.gamma", [8], False], ["stage1.block0.norm1.beta", [8], False],
    ["embed2.weight", [16, 8, 3, 3], False], ["embed2.bias", [16], False],
    ["stage2.block0.norm1.gamma", [16], False], ["stage2.block0.norm1.beta", [16], False],
    ["embed3.weight", [32, 16, 3, 3], False], ["embed3.bias", [32], False],
    ["stage3.block0.norm1.gamma", [32], False], ["stage3.block0.norm1.beta", [32], False],
    ["embed4.weight", [64, 32, 3, 3], False], ["embed4.bias", [64], False],
    ["stage4.block0.norm1.gamma", [64], False], ["stage4.block0.norm1.beta", [64], False],
    ["norm.gamma", [64], False], ["norm.beta", [64], False],
    ["head.weight", [4, 64], False], ["head.bias", [4], False],
]


def state_list(cfg):
    return [[name, list(arr.shape), frozen] for name, (arr, frozen) in build(cfg, seed=0).state_arrays().items()]


def test_state_arrays_names_order_and_frozen_flags_are_pinned():
    hybrid = state_list(STATE_HYBRID_BN)
    assert len(hybrid) == 79
    blob = json.dumps(hybrid, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == STATE_HYBRID_BN_SHA256, hybrid
    assert state_list(STATE_POOL_IDENTITY) == STATE_POOL_IDENTITY_LIST


def test_load_never_runs_forward(tmp_path, monkeypatch):
    model = build(TINY, seed=0)
    path = str(tmp_path / "m.ckpt")
    save(model, path)

    def boom(self, *a, **k):
        raise AssertionError("load must not execute model math")

    monkeypatch.setattr(Model, "forward", boom)
    load(path)


def test_tensor_container_roundtrip(tmp_path):
    path = str(tmp_path / "input.mft")
    arr = np.random.default_rng(0).random((1, 3, 32, 32)).astype(np.float32)
    save_tensors(path, {"input": arr})
    back = load_tensors(path)
    assert set(back) == {"input"}
    assert np.array_equal(back["input"], arr)
    with pytest.raises(CheckpointFormatError, match="no model config"):
        load(path)


@pytest.mark.parametrize("tensors,message", [
    ({3: np.zeros(2, np.float32)}, r"^save_tensors: tensor name 3 is int, not a string$"),
    ({"x": np.zeros(2)}, r"^save_tensors: tensor 'x' is float64; containers hold float32 arrays only$"),
    ({"x": np.arange(2)}, r"^save_tensors: tensor 'x' is int64; containers hold float32 arrays only$"),
])
def test_save_tensors_refuses_what_load_tensors_would_not_give_back_and_writes_nothing(tmp_path, tensors, message):
    path = tmp_path / "input.mft"
    with pytest.raises(InvalidArgument, match=message):
        save_tensors(str(path), tensors)
    assert not path.exists()


@pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0, 4)])
def test_zero_size_arrays_round_trip(tmp_path, shape):
    path = str(tmp_path / "x.mft")
    save_tensors(path, {"empty": np.zeros(shape, np.float32), "after": np.arange(3, dtype=np.float32)})
    back = load_tensors(path)
    assert back["empty"].shape == shape and back["after"].tolist() == [0.0, 1.0, 2.0]


def test_load_checks_the_config_size_before_building(tmp_path, monkeypatch, capsys):
    path = str(tmp_path / "m.ckpt")
    save(build(TINY, seed=0), path)
    rewrite_manifest(path, lambda m: m.update(config={"variant": "M48"}))

    def no_build(*a, **k):
        raise AssertionError("load built the model before checking the manifest's size")

    monkeypatch.setattr(checkpoint, "Model", no_build)
    with pytest.raises(CheckpointCorruptionError, match=r"m\.ckpt.*declares [\d,]+ elements.*needs at least"):
        load(path)
    assert cli.main(["infer", "--ckpt", path, "--input", path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "elements" in err[0], err


def test_save_refuses_non_f32_models_and_writes_nothing(tmp_path):
    path = tmp_path / "m.ckpt"
    with pytest.raises(InvalidArgument, match=r"'embed1\.weight' is float64"):
        save(build(TINY, seed=0, dtype="f64"), str(path))
    assert not path.exists()


def test_save_to_a_directory_is_refused_naming_the_path(tmp_path):
    with pytest.raises(OSError, match=rf"cannot write container to {re.escape(repr(str(tmp_path)))}: .*Is a directory"):
        save(build(TINY, seed=0), str(tmp_path))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_save_refuses_a_non_finite_parameter_naming_it_and_writes_nothing(value, tmp_path):
    path = tmp_path / "m.ckpt"
    model = build(TINY, seed=0)
    model.state_arrays()["stage2.block0.mlp.fc1.weight"][0][3, 1, 0, 0] = value
    with pytest.raises(FloatingPointError, match=r"'stage2\.block0\.mlp\.fc1\.weight' holds a non-finite value"):
        save(model, str(path))
    assert not path.exists()


# sha256 of the container that STATE_POOL_IDENTITY holding fill_state()'s values
# serializes to: header, manifest and payload bytes of format version 1.
POOL_IDENTITY_CONTAINER_SHA256 = "19b24013f75dcbddcb9f47affb27f1957695316f5ea79aafec13ffe54e047266"


def fill_state(model):
    for arr, _ in model.state_arrays().values():
        arr[...] = (np.arange(arr.size) % 251 / 7.0 - 17.0).reshape(arr.shape)
    return model


def test_f32_container_bytes_are_pinned(tmp_path):
    path = tmp_path / "m.ckpt"
    save(fill_state(build(STATE_POOL_IDENTITY, seed=0)), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == POOL_IDENTITY_CONTAINER_SHA256


# ---------------------------------------------------------------- serving without a graph

def test_loaded_model_forward_records_no_graph(tmp_path):
    path = str(tmp_path / "m.ckpt")
    save(build(STATE_HYBRID_BN, seed=0), path)
    restored = load(path)
    out = restored.forward(Tensor(np.random.default_rng(0).random((2, 3, 32, 32)).astype(np.float32)), mode="eval")
    assert out.requires_grad is False
    assert out._parents == ()
    assert all(not t.requires_grad for _, t in restored.named_state() if isinstance(t, Tensor))


def test_loaded_model_keeps_its_trainable_and_frozen_split(tmp_path):
    model = build(STATE_HYBRID_BN, seed=4)
    x = Tensor(np.random.default_rng(1).random((4, 3, 32, 32)).astype(np.float32))
    model.forward(x, mode="train", rng=np.random.default_rng(0))  # move BN buffers off init
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save(model, str(p1))
    restored = load(str(p1))
    save(restored, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert [n for n, _ in restored.named_parameters()] == [n for n, _ in model.named_parameters()]
    assert [n for n, _ in restored.frozen_parameters()] == [n for n, _ in model.frozen_parameters()]
    assert count_params(restored) == count_params(model) == count_params(STATE_HYBRID_BN)
    assert count_params(restored)[1] > 0
    assert restored.requires_grad_(True) is restored
    assert all(t.requires_grad for _, t in restored.named_parameters())
    frozen = list(restored.frozen_parameters())
    assert frozen and all(not t.requires_grad for _, t in frozen)


def adamw_step(model):
    images, labels = synth_batch(0, 0, 4, model.config.input_size)
    logits = model.forward(Tensor(images), mode="train", rng=np.random.default_rng(1))
    optimizer = AdamW(list(model.named_parameters()))
    label_smoothing_ce(logits, labels, 0.1).backward()
    optimizer.step(1e-3)
    return model.state_arrays()


def test_adamw_step_on_a_loaded_model_matches_the_saved_model(tmp_path):
    config = tiny_train_config()
    path = str(tmp_path / "m.ckpt")
    save(build(config, seed=2), path)
    expected = adamw_step(build(config, seed=2))
    got = adamw_step(load(path).requires_grad_(True))
    assert list(got) == list(expected)
    for name, (arr, frozen) in expected.items():
        assert got[name][1] == frozen
        assert np.array_equal(got[name][0], arr), name


# ---------------------------------------------------------------- init-free load

def test_load_draws_no_random_init(tmp_path, monkeypatch):
    model = build(STATE_HYBRID_BN, seed=6)
    x = Tensor(np.random.default_rng(1).random((4, 3, 32, 32)).astype(np.float32))
    model.forward(x, mode="train", rng=np.random.default_rng(0))  # move BN buffers off init
    path = str(tmp_path / "m.ckpt")
    save(model, path)

    def no_rng(*a, **k):
        raise AssertionError("load drew a random init")

    monkeypatch.setattr(model_module, "child_rng", no_rng)
    restored = load(path).state_arrays()
    expected = model.state_arrays()
    assert list(restored) == list(expected)
    for name, (arr, frozen) in expected.items():
        assert restored[name][1] == frozen
        assert restored[name][0].dtype == np.float32
        assert np.array_equal(restored[name][0], arr), name


class ReadCounter:
    """A file whose reads are tallied in ``bytes_read``."""

    def __init__(self, f):
        self.f, self.bytes_read = f, 0

    def read(self, *args):
        data = self.f.read(*args)
        self.bytes_read += len(data)
        return data

    def readinto(self, buf):
        n = self.f.readinto(buf)
        self.bytes_read += n or 0
        return n

    def __getattr__(self, name):
        return getattr(self.f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


def count_reads(monkeypatch) -> list:
    """Every file ``checkpoint`` opens from now on, as a ReadCounter."""
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(ReadCounter(builtins.open(*args, **kwargs)))
        return opened[-1]

    monkeypatch.setattr(checkpoint, "open", counting_open, raising=False)
    return opened


def header_and_manifest_len(path) -> int:
    blob = open(path, "rb").read()
    return 16 + struct.unpack("<Q", blob[8:16])[0]


def saved_tiny(tmp_path) -> str:
    path = str(tmp_path / "m.ckpt")
    save(build(TINY, seed=0), path)
    return path


def test_container_cut_mid_payload_is_refused_before_reading_payload(tmp_path, monkeypatch):
    path = saved_tiny(tmp_path)
    blob = open(path, "rb").read()
    head = header_and_manifest_len(path)
    open(path, "wb").write(blob[: (head + len(blob)) // 2])
    opened = count_reads(monkeypatch)
    for reader in (load, load_tensors):
        with pytest.raises(CheckpointCorruptionError, match="payload truncated at tensor"):
            reader(path)
    assert [f.bytes_read for f in opened] == [head, head]


def test_entry_pointing_past_eof_is_refused_before_reading_payload(tmp_path, monkeypatch):
    path = saved_tiny(tmp_path)
    payload_len = len(open(path, "rb").read()) - header_and_manifest_len(path)
    rewrite_manifest(path, _set_entry(-1, offset=payload_len))  # head.bias, 16 bytes past the end
    head = header_and_manifest_len(path)
    opened = count_reads(monkeypatch)
    for reader in (load, load_tensors):
        with pytest.raises(CheckpointCorruptionError, match="payload truncated at tensor 'head.bias'"):
            reader(path)
    assert [f.bytes_read for f in opened] == [head, head]


def test_file_shrinking_after_the_manifest_check_raises_truncated(tmp_path, monkeypatch):
    path = saved_tiny(tmp_path)
    size = len(open(path, "rb").read())
    read_manifest = checkpoint._read_manifest

    def then_shrink(f, p):
        out = read_manifest(f, p)
        os.truncate(p, size - 100)
        return out

    monkeypatch.setattr(checkpoint, "_read_manifest", then_shrink)
    with pytest.raises(CheckpointCorruptionError, match="payload truncated at tensor 'head.weight'"):
        load(path)


@pytest.mark.parametrize("byte_order", ["<", ">"])
def test_payload_reads_into_arrays_of_either_byte_order(tmp_path, byte_order):
    # One of the two orders is non-native on any host: load_tensors' little-endian
    # arrays on a big-endian host, a big-endian array here on a little-endian one.
    path = str(tmp_path / "x.mft")
    values = np.arange(6, dtype=np.float32).reshape(2, 3) - 2.5
    save_tensors(path, {"x": values})
    out = np.empty(values.shape, byte_order + "f4")
    with checkpoint._open(path) as f:
        _, entries = checkpoint._read_manifest(f, path)
        checkpoint._read_into(f, path, "x", entries["x"][1], out)
    assert np.array_equal(out, values)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_pipe_is_refused_as_not_a_regular_file(tmp_path):
    path = str(tmp_path / "input.mft")
    save_tensors(path, {"input": np.zeros((1, 3, 32, 32), np.float32)})
    blob = open(path, "rb").read()
    for reader in (load, load_tensors):
        r, w = os.pipe()
        try:
            os.write(w, blob[:4096])
            os.close(w)
            with pytest.raises(OSError, match="not a regular file"):
                reader(f"/dev/fd/{r}")
        finally:
            os.close(r)
