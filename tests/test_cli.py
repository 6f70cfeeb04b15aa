import json
import re
import subprocess
import sys

import numpy as np
import pytest

from metaformer import checkpoint, cli, train
from metaformer.checkpoint import save, save_tensors
from metaformer.model import ModelConfig, build
from metaformer.tensor import ACTIVATIONS, gelu

TINY_JSON = {
    "custom": {
        "dims": [8, 16, 32, 64],
        "depths": [1, 1, 2, 1],
        "mixers": [{"kind": "pooling", "pool_size": 3}] * 4,
        "norm": "mln",
        "activation": "gelu",
        "layer_scale_init": 0.1,
        "drop_path": 0.0,
        "num_classes": 4,
        "input_size": 32,
    }
}


MICRO_JSON = {
    "custom": {
        "dims": [4, 8, 8, 16],
        "depths": [1, 1, 1, 1],
        "mixers": [{"kind": "pooling", "pool_size": 3}] * 4,
        "norm": "mln",
        "activation": "gelu",
        "layer_scale_init": 0.1,
        "drop_path": 0.0,
        "num_classes": 4,
        "input_size": 32,
    }
}


def write_config(tmp_path, obj=None):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj if obj is not None else TINY_JSON))
    return str(path)


def run_main(argv):
    try:
        return cli.main(argv)
    except SystemExit as e:
        return e.code


# ---------------------------------------------------------------- describe

def test_describe_s12_table(capsys):
    assert run_main(["describe", "--variant", "S12"]) == 0
    out = capsys.readouterr().out
    assert "11.9M" in out
    assert "1.8G" in out
    assert "56x56" in out


def test_describe_m36_table(capsys):
    assert run_main(["describe", "--variant", "M36"]) == 0
    out = capsys.readouterr().out
    assert "56.1M" in out
    assert "8.8G" in out


def test_describe_json_schema(capsys):
    assert run_main(["describe", "--variant", "S24", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    for key in ("trainable_params", "frozen_params", "macs", "input_size", "per_stage", "stage_grids"):
        assert key in obj
    assert obj["stage_grids"] == [56, 28, 14, 7]
    assert obj["input_size"] == 224


def test_describe_custom_config(tmp_path, capsys):
    assert run_main(["describe", "--config", write_config(tmp_path), "--input-size", "32"]) == 0
    assert "stage4" in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_describe_defaults_to_the_configs_own_input_size(tmp_path, capsys, fmt):
    # A spatial-fc stage binds the model to its input_size; without --input-size it is reported there.
    bound = {"custom": dict(TINY_JSON["custom"], mixers=[{"kind": "pooling"}] * 3 + [{"kind": "spatial_fc"}])}
    for obj in (TINY_JSON, bound):
        assert run_main(["describe", "--config", write_config(tmp_path, obj), "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            report = json.loads(out)
            assert (report["input_size"], report["stage_grids"]) == (32, [8, 4, 2, 1])
        else:
            assert out.startswith("model custom @ 32x32\n") and "8x8" in out


def test_describe_rejects_bad_config(tmp_path, capsys):
    bad = dict(TINY_JSON)
    bad["custom"] = dict(bad["custom"], norm="instance")
    assert run_main(["describe", "--config", write_config(tmp_path, bad)]) == 1
    assert "norm" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_describe_input_size_below_32_exits_1_with_one_line(tmp_path, capsys, fmt):
    for source in (["--variant", "S12"], ["--config", write_config(tmp_path)]):
        assert run_main(["describe", *source, "--input-size", "16", "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: input_size: must be >= 32, the smallest input a forward accepts, got 16"
        ]


def input_size_line(size, path=""):
    return (f"error: {path}input_size: a batch-1 f32 input [1, 3, S, S] must fit in 9223372036854775807 bytes, "
            f"got S = {size}")


@pytest.mark.parametrize("size", [str(2**63), str(10**19)])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_describe_input_size_numpy_cannot_size_exits_1_with_one_line(tmp_path, capsys, fmt, size):
    for source in (["--variant", "S12"], ["--config", write_config(tmp_path)]):
        assert run_main(["describe", *source, "--input-size", size, "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [input_size_line(size)]


@pytest.mark.parametrize("contents,message", [
    (None, "cannot read config"),
    ("{not json", "is not valid JSON"),
])
def test_unreadable_or_non_json_config_exits_1_with_one_line(tmp_path, capsys, contents, message):
    path = tmp_path / "config.json"
    if contents is not None:
        path.write_text(contents)
    for argv in (["describe"], ["gradcheck"], ["train-toy", "--steps", "1", "--out", str(tmp_path / "o.ckpt")]):
        assert run_main(argv + ["--config", str(path)]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0], err


def test_unknown_flag_rejected_with_usage(tmp_path, capsys):
    assert run_main(["describe", "--variant", "S12", "--bogus"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_unknown_subcommand_rejected(capsys):
    assert run_main(["frobnicate"]) == 1


# --------------------------------------------------------------- gradcheck

def test_gradcheck_tiny_config_passes(tmp_path, capsys):
    assert run_main(["gradcheck", "--config", write_config(tmp_path), "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    assert "FAIL" not in out


def test_gradcheck_is_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, MICRO_JSON)
    run_main(["gradcheck", "--config", cfg, "--seed", "1"])
    first = capsys.readouterr().out
    run_main(["gradcheck", "--config", cfg, "--seed", "1"])
    second = capsys.readouterr().out
    assert first == second


def test_gradcheck_refuses_oversized_configs(tmp_path, capsys):
    big = {"variant": "S12"}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(big))
    assert run_main(["gradcheck", "--config", str(path)]) == 1
    assert "refuses" in capsys.readouterr().err


def test_gradcheck_refuses_oversized_configs_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"variant": "S12"}))
    assert run_main(["gradcheck", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error: gradcheck refuses configs over 200,000 parameters"), err


@pytest.mark.parametrize("size", [10**9, 10**19, 2**63])
def test_gradcheck_config_whose_input_numpy_cannot_size_exits_1_with_one_line(tmp_path, capsys, size):
    config = write_config(tmp_path, {"custom": {**MICRO_JSON["custom"], "input_size": size}})
    assert run_main(["gradcheck", "--config", config]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [input_size_line(size, "config.custom.")]


def test_gradcheck_detects_corrupted_backward(tmp_path, capsys, monkeypatch):
    def gelu_with_wrong_backward(a):
        out = gelu(a)
        orig = out._backward_fn
        if orig is not None:
            out._backward_fn = lambda g: orig(g * 1.5)
        return out

    monkeypatch.setitem(ACTIVATIONS, "gelu", gelu_with_wrong_backward)
    rc = run_main(["gradcheck", "--config", write_config(tmp_path, MICRO_JSON), "--seed", "0"])
    assert rc == 2
    assert "FAIL" in capsys.readouterr().out


# --------------------------------------------------------------- train-toy

def test_train_toy_zero_steps_equals_fresh_build(tmp_path):
    cfg_path = write_config(tmp_path)
    ckpt = str(tmp_path / "out.ckpt")
    assert run_main(["train-toy", "--config", cfg_path, "--steps", "0", "--seed", "3",
                     "--out", ckpt]) == 0
    from metaformer.checkpoint import load

    restored = load(ckpt)
    fresh = build(ModelConfig.from_json_dict(TINY_JSON), seed=3)
    for (name, a), (_, b) in zip(fresh.named_parameters(), restored.named_parameters()):
        assert np.array_equal(a.data, b.data), name


def test_train_toy_same_flags_byte_identical(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    outs = []
    for name in ("a.ckpt", "b.ckpt"):
        path = str(tmp_path / name)
        assert run_main(["train-toy", "--config", cfg_path, "--steps", "2", "--batch-size", "4",
                         "--seed", "0", "--lr", "1e-3", "--out", path]) == 0
        outs.append(open(path, "rb").read())
    assert outs[0] == outs[1]
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(summary) >= {"steps", "checkpoint", "metrics", "final_loss", "final_train_acc"}


def test_train_toy_writes_metrics_ndjson(tmp_path):
    cfg_path = write_config(tmp_path)
    ckpt = str(tmp_path / "out.ckpt")
    metrics = str(tmp_path / "m.ndjson")
    assert run_main(["train-toy", "--config", cfg_path, "--steps", "2", "--batch-size", "4",
                     "--seed", "0", "--lr", "1e-3", "--out", ckpt, "--metrics", metrics]) == 0
    records = [json.loads(line) for line in open(metrics)]
    assert [r["step"] for r in records] == [0, 1]
    assert all(set(r) == {"step", "lr", "loss", "train_acc"} for r in records)


def test_train_toy_non_finite_loss_exits_2_without_checkpoint(tmp_path):
    cfg_path = write_config(tmp_path, MICRO_JSON)
    ckpt = tmp_path / "out.ckpt"
    proc = subprocess.run(
        [sys.executable, "-m", "metaformer.cli", "train-toy", "--config", cfg_path, "--steps", "4",
         "--batch-size", "4", "--lr", "1e30", "--out", str(ckpt)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stderr
    err = proc.stderr.splitlines()
    assert len(err) == 1 and re.fullmatch(r"error: train_loop: loss is \S+ at step \d+; stopping before the update", err[0]), err
    assert proc.stdout == ""
    assert not ckpt.exists()


def test_train_toy_update_that_overflows_after_the_last_loss_exits_2_without_checkpoint(tmp_path, capsys):
    # The one step's loss is finite; its AdamW update at lr 1e40 overflows f32, so save sees inf or NaN.
    ckpt = tmp_path / "out.ckpt"
    argv = ["train-toy", "--config", write_config(tmp_path), "--steps", "1", "--lr", "1e40", "--out", str(ckpt)]
    assert run_main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and re.fullmatch(r"error: save: tensor '\S+' holds a non-finite value; .* not written",
                                          err[0]), err
    assert not ckpt.exists()


@pytest.mark.parametrize("exc,line", [
    (MemoryError("Unable to allocate 7.15 GiB for an array"), "error: out of memory: Unable to allocate 7.15 GiB for an array"),
    (MemoryError(), "error: out of memory"),
])
def test_train_toy_allocation_failure_exits_2_with_one_line(tmp_path, capsys, monkeypatch, exc, line):
    def train_loop(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "train_loop", train_loop)
    ckpt = tmp_path / "out.ckpt"
    argv = ["train-toy", "--config", write_config(tmp_path, MICRO_JSON), "--steps", "1", "--out", str(ckpt)]
    assert run_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [line]
    assert not ckpt.exists()


@pytest.mark.parametrize("command,custom,message", [
    # The config's batch-1 f32 input fits; gradcheck's batch-2 f64 input does not.
    ("gradcheck", {"input_size": 6 * 10**8}, "array is too big"),
    ("train-toy", {"dims": [10**18, 8, 8, 16]}, "array is too big"),
    ("train-toy", {"dims": [2**63, 8, 8, 16]}, "Maximum allowed dimension exceeded"),
], ids=["gradcheck input 6e8", "train-toy dims 1e18", "train-toy dims 2**63"])
def test_an_array_numpy_cannot_size_exits_2_with_one_out_of_memory_line(tmp_path, capsys, command, custom, message):
    argv = [command, "--config", write_config(tmp_path, {"custom": {**MICRO_JSON["custom"], **custom}})]
    if command == "train-toy":
        argv += ["--steps", "1", "--batch-size", "4", "--out", str(tmp_path / "out.ckpt")]
    assert run_main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith(f"error: out of memory: {message}"), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_a_value_error_other_than_numpys_size_refusals_still_raises(tmp_path, monkeypatch):
    def train_loop(*args, **kwargs):
        raise ValueError("negative dimensions are not allowed")

    monkeypatch.setattr(cli, "train_loop", train_loop)
    argv = ["train-toy", "--config", write_config(tmp_path, MICRO_JSON), "--steps", "1", "--out", str(tmp_path / "o")]
    with pytest.raises(ValueError, match="negative dimensions are not allowed"):
        cli.main(argv)


@pytest.mark.parametrize("flags,message", [
    (["--batch-size", "0"], "batch_size must be >= 1, got 0"),
    (["--batch-size", "-3"], "batch_size must be >= 1, got -3"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
    (["--lr", "nan"], "lr_peak must be finite, got nan"),
])
def test_train_toy_out_of_range_values_exit_1_with_one_line(tmp_path, capsys, flags, message):
    ckpt = tmp_path / "out.ckpt"
    argv = ["train-toy", "--config", write_config(tmp_path, MICRO_JSON), "--steps", "2", "--out", str(ckpt)]
    assert run_main(argv + flags) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0], err
    assert not ckpt.exists() and not (tmp_path / "out.ckpt.metrics.ndjson").exists()


def test_train_toy_missing_out_directory_exits_2_before_training(tmp_path, capsys):
    metrics = tmp_path / "m.ndjson"
    argv = ["train-toy", "--config", write_config(tmp_path, MICRO_JSON), "--steps", "2", "--batch-size", "4",
            "--out", str(tmp_path / "missing" / "x.ckpt"), "--metrics", str(metrics)]
    assert run_main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error:") and "missing" in err[0], err
    assert not metrics.exists()


def test_train_toy_out_naming_a_directory_exits_2_before_training(tmp_path, capsys):
    metrics = tmp_path / "m.ndjson"
    out = tmp_path / "outdir"
    out.mkdir()
    argv = ["train-toy", "--config", write_config(tmp_path, MICRO_JSON), "--steps", "2", "--batch-size", "4",
            "--out", str(out), "--metrics", str(metrics)]
    assert run_main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error:") and "is a directory" in err[0], err
    assert not metrics.exists()
    assert list(out.iterdir()) == []


def test_train_toy_config_with_fewer_classes_than_the_dataset_exits_1_before_building(tmp_path, capsys, monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("built a model it cannot train")

    monkeypatch.setattr(train, "build", build)
    config = {"custom": {**MICRO_JSON["custom"], "num_classes": 3}}
    ckpt = tmp_path / "out.ckpt"
    argv = ["train-toy", "--config", write_config(tmp_path, config), "--steps", "1", "--batch-size", "4",
            "--out", str(ckpt)]
    assert run_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: train_loop: the dataset has 4 classes, but the config has num_classes 3"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_train_toy_config_of_one_input_channel_exits_1_before_building(tmp_path, capsys, monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("built a model it cannot train")

    monkeypatch.setattr(train, "build", build)
    config = {"custom": {**MICRO_JSON["custom"], "in_channels": 1}}
    argv = ["train-toy", "--config", write_config(tmp_path, config), "--steps", "1", "--batch-size", "4",
            "--out", str(tmp_path / "out.ckpt")]
    assert run_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: train_loop: the dataset has 3 channels, but the config has in_channels 1"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("batch_size", ["9223372036854775808", "10000000000000000000", "375299968947542"])
def test_train_toy_batch_that_numpy_cannot_size_exits_1_with_one_line(tmp_path, capsys, batch_size):
    argv = ["train-toy", "--config", write_config(tmp_path, MICRO_JSON), "--steps", "1", "--batch-size", batch_size,
            "--out", str(tmp_path / "out.ckpt")]
    assert run_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: train_loop: batch_size must be <= 375299968947541 at input_size 32, got {batch_size}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_train_toy_allocation_failure_before_the_first_record_leaves_no_metrics_file(tmp_path, capsys, monkeypatch):
    def synth_batch(*args, **kwargs):
        raise MemoryError("Unable to allocate 72.8 TiB for an array")

    monkeypatch.setattr(train, "synth_batch", synth_batch)
    argv = ["train-toy", "--config", write_config(tmp_path, MICRO_JSON), "--steps", "2", "--batch-size", "4",
            "--out", str(tmp_path / "out.ckpt")]
    assert run_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: out of memory: Unable to allocate 72.8 TiB for an array"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("tolerance", ["nan", "-1", "0", "inf"])
def test_gradcheck_tolerance_not_finite_and_positive_exits_1_with_one_line(tmp_path, capsys, tolerance):
    argv = ["gradcheck", "--config", write_config(tmp_path, MICRO_JSON), "--tolerance", tolerance]
    assert run_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --tolerance must be finite and > 0, got {float(tolerance)}"]


def test_gradcheck_negative_seed_exits_1_with_one_line(tmp_path, capsys):
    assert run_main(["gradcheck", "--config", write_config(tmp_path, MICRO_JSON), "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: seed must be >= 0, got -1"]


# ------------------------------------------------------------------- infer

@pytest.fixture
def ckpt_and_input(tmp_path):
    model = build(ModelConfig.from_json_dict(TINY_JSON), seed=0)
    ckpt = str(tmp_path / "model.ckpt")
    save(model, ckpt)
    image = np.random.default_rng(0).random((1, 3, 32, 32)).astype(np.float32)
    input_path = str(tmp_path / "input.mft")
    save_tensors(input_path, {"input": image})
    return ckpt, input_path


def test_infer_probabilities_sum_to_one(ckpt_and_input, capsys):
    ckpt, inp = ckpt_and_input
    assert run_main(["infer", "--ckpt", ckpt, "--input", inp, "--topk", "4"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 4
    assert sum(r["probability"] for r in rows) == pytest.approx(1.0, abs=1e-6)


def test_infer_fresh_model_is_near_uniform(ckpt_and_input, capsys):
    ckpt, inp = ckpt_and_input
    run_main(["infer", "--ckpt", ckpt, "--input", inp, "--topk", "4"])
    rows = json.loads(capsys.readouterr().out)
    for r in rows:
        assert abs(r["probability"] - 0.25) < 0.15


def test_infer_is_deterministic(ckpt_and_input, capsys):
    ckpt, inp = ckpt_and_input
    run_main(["infer", "--ckpt", ckpt, "--input", inp])
    first = capsys.readouterr().out
    run_main(["infer", "--ckpt", ckpt, "--input", inp])
    assert capsys.readouterr().out == first


def test_infer_resolution_mismatch_exits_1(tmp_path, ckpt_and_input, capsys):
    ckpt, _ = ckpt_and_input
    bad = str(tmp_path / "bad.mft")
    save_tensors(bad, {"input": np.zeros((1, 3, 16, 16), dtype=np.float32)})
    assert run_main(["infer", "--ckpt", ckpt, "--input", bad]) == 1


@pytest.mark.parametrize("tensors,message", [
    ({"image": np.zeros((1, 3, 32, 32), np.float32)}, "exactly one tensor named 'input', found ['image']"),
    ({"input": np.zeros((1, 3, 32, 32), np.float32), "extra": np.zeros(1, np.float32)},
     "exactly one tensor named 'input', found ['extra', 'input']"),
    ({"input": np.zeros((3, 32, 32), np.float32)}, "shape [1, C, H, W], got [3, 32, 32]"),
    ({"input": np.zeros((2, 3, 32, 32), np.float32)}, "shape [1, C, H, W], got [2, 3, 32, 32]"),
])
def test_infer_malformed_input_container_exits_1_with_one_line(tmp_path, ckpt_and_input, capsys, tensors, message):
    ckpt, _ = ckpt_and_input
    bad = str(tmp_path / "bad.mft")
    save_tensors(bad, tensors)
    assert run_main(["infer", "--ckpt", ckpt, "--input", bad]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0], err


def test_infer_model_checkpoint_as_input_exits_1_with_one_short_line(ckpt_and_input, capsys):
    ckpt, _ = ckpt_and_input
    assert run_main(["infer", "--ckpt", ckpt, "--input", ckpt]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error:") and len(err[0]) < 300, err


@pytest.mark.parametrize("tensors,message", [
    ({"image": np.zeros((1, 3, 32, 32), np.float32)}, "exactly one tensor named 'input'"),
    ({"input": np.zeros((2, 3, 32, 32), np.float32)}, "shape [1, C, H, W], got [2, 3, 32, 32]"),
])
def test_infer_refuses_input_names_and_shape_before_reading_any_payload(tmp_path, ckpt_and_input, capsys,
                                                                        monkeypatch, tensors, message):
    ckpt, _ = ckpt_and_input
    bad = str(tmp_path / "bad.mft")
    save_tensors(bad, tensors)
    reads = []
    real_read_into = checkpoint._read_into

    def counting_read_into(f, path, *rest):
        reads.append(path)
        return real_read_into(f, path, *rest)

    monkeypatch.setattr(checkpoint, "_read_into", counting_read_into)
    assert run_main(["infer", "--ckpt", ckpt, "--input", bad]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0], err
    assert reads and bad not in reads  # the checkpoint's payload was read, the input's was not


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_infer_rejects_non_finite_input(tmp_path, ckpt_and_input, capsys, value):
    ckpt, _ = ckpt_and_input
    image = np.random.default_rng(0).random((1, 3, 32, 32)).astype(np.float32)
    image[0, 1, 2, 3] = value
    bad = str(tmp_path / "bad.mft")
    save_tensors(bad, {"input": image})
    assert run_main(["infer", "--ckpt", ckpt, "--input", bad]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error:") and "non-finite" in err[0], err


def test_infer_input_that_overflows_the_model_exits_2_with_one_line(tmp_path, ckpt_and_input):
    # Finite, but f32 sums of it overflow: the logits and probabilities come out non-finite.
    ckpt, _ = ckpt_and_input
    signs = np.where(np.random.default_rng(0).random((1, 3, 32, 32)) > 0.5, 1.0, -1.0)
    bad = str(tmp_path / "huge.mft")
    save_tensors(bad, {"input": (3e38 * signs).astype(np.float32)})
    proc = subprocess.run([sys.executable, "-m", "metaformer.cli", "infer", "--ckpt", ckpt, "--input", bad],
                          capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    err = proc.stderr.splitlines()
    assert len(err) == 1 and re.fullmatch(r"error: infer: \d+ of 4 class probabilities are non-finite .*", err[0]), err


@pytest.mark.parametrize("topk", ["0", "-1"])
def test_infer_topk_below_1_exits_1_with_one_line(ckpt_and_input, capsys, topk):
    ckpt, inp = ckpt_and_input
    assert run_main(["infer", "--ckpt", ckpt, "--input", inp, "--topk", topk]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --topk must be >= 1, got {topk}"]


def test_infer_missing_file_exits_2(ckpt_and_input):
    ckpt, _ = ckpt_and_input
    assert run_main(["infer", "--ckpt", ckpt, "--input", "/nonexistent.mft"]) == 2


# ------------------------------------------------------------- subprocess

def test_cli_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "metaformer.cli", "describe", "--variant", "S12"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "11.9M" in proc.stdout
    bad = subprocess.run(
        [sys.executable, "-m", "metaformer.cli", "describe", "--variant", "S99"],
        capture_output=True, text=True,
    )
    assert bad.returncode == 1
    assert "error" in bad.stderr
