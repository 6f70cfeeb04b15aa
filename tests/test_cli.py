import json
import re
import subprocess
import sys

import numpy as np
import pytest

from metaformer import cli
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


def test_describe_rejects_bad_config(tmp_path, capsys):
    bad = dict(TINY_JSON)
    bad["custom"] = dict(bad["custom"], norm="instance")
    assert run_main(["describe", "--config", write_config(tmp_path, bad)]) == 1
    assert "norm" in capsys.readouterr().err


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
