"""Fuzz of the command line: every argv ends in exit 0, 1 or 2, a refusal in one ``error:`` line.

Each case draws one of the four commands and damages at most two of its
flags: a damaged flag takes any value or none, the others a valid value.
Numeric flags take 0, -1, a small valid value, 2**63, 10**19, NaN, the two
infinities or a word; path flags take a missing path, a directory, an
empty file, a truncated model container, a model container with one or two
header or manifest bytes flipped, a model container, a tensor container, a
valid config, one of four damaged configs (a zero in ``dims``, an unknown
mixer kind, ``input_size`` 10**9, a NaN ``layer_scale_init``), a config of
one input channel, which only ``train-toy`` refuses, or a new path in an
existing directory.
``cli.main`` runs in-process, in a fresh directory per case, and must:

- exit 0, 1 or 2, with no traceback on stderr;
- on a non-zero exit print exactly one ``error:`` line (argparse's
  refusals keep their usage line before it);
- on exit 1 leave its directory as it was;
- on exit 0 print strict JSON from ``infer`` and ``describe --format json``.

Draws that pass validation stay tiny: the only valid config is a micro one,
``train-toy`` always gets ``--batch-size`` (its valid draws are 1 and 4;
2**63 and 10**19 are refused by the bound), a run that would train more
than two steps is skipped, and so is a ``gradcheck`` that would run.
Guards turn a skipped case that does run into a failure instead of a long
test.
"""

import contextlib
import io
import json
import math
import os
import re
import struct
import tempfile
from unittest import mock

import numpy as np
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from metaformer import cli, train
from metaformer.checkpoint import save, save_tensors
from metaformer.model import ModelConfig, build

from test_cli import MICRO_JSON

HUGE = (str(2**63), str(10**19))
SMALL = {"--input-size": "32", "--seed": "1", "--tolerance": "1e-4", "--steps": "2", "--batch-size": "4",
         "--lr": "1e-3", "--topk": "3"}
# MICRO_JSON with one field damaged; each is refused.
DAMAGED_CONFIGS = {
    "zero_dim": {"dims": [4, 0, 8, 16]},
    "unknown_mixer": {"mixers": [{"kind": "pooling"}] * 3 + [{"kind": "conv9"}]},
    "huge_input": {"input_size": 10**9},
    "nan_scale": {"layer_scale_init": float("nan")},
}
# MICRO_JSON on a single input channel: valid, but train-toy refuses it, as the dataset is RGB.
OTHER_CONFIGS = {"one_channel": {"in_channels": 1}}
PATHS = ("missing", "dir", "empty", "truncated", "flipped", "model", "tensors", "config", "new", *DAMAGED_CONFIGS,
         *OTHER_CONFIGS)
# Byte flips of the model container, as tests/test_checkpoint_fuzz.py draws them: (position, xor mask), the position
# taken modulo the header and manifest length.
FLIPS = st.lists(st.tuples(st.integers(0, 10**9), st.integers(1, 255)), min_size=1, max_size=2)
FLAGS = {
    "describe": {"--variant": ("S12", "S99"), "--config": PATHS, "--input-size": None,
                 "--format": ("table", "json", "yaml")},
    "gradcheck": {"--config": PATHS, "--seed": None, "--tolerance": None},
    "train-toy": {"--config": PATHS, "--steps": None, "--batch-size": None, "--seed": None, "--lr": None,
                  "--out": PATHS, "--metrics": PATHS},
    "infer": {"--ckpt": PATHS, "--input": PATHS, "--topk": None},
}
# What an undamaged flag takes (None: left out). describe's undamaged source is one of its two flags.
VALID = {"--variant": ("S12",), "--config": ("@config",), "--input-size": (None, "32"),
         "--format": (None, "table", "json"), "--seed": (None, "0", "1"), "--tolerance": (None, "1e-4"),
         "--steps": ("0", "1", "2"), "--batch-size": ("1", "4"), "--lr": (None, "1e-3"), "--out": ("@new", "@model"),
         "--metrics": (None, "@empty", "@new"), "--ckpt": ("@model",), "--input": ("@tensors",), "--topk": (None, "3")}


def values(flag, choices):
    """Every value a damaged flag can take, ``None`` (left out) included."""
    if choices is None:  # a numeric flag
        choices = ("0", "-1", SMALL[flag], *HUGE, "nan", "inf", "-inf", "many")
    elif choices is PATHS:
        choices = tuple(f"@{c}" for c in PATHS)
    return choices + (None,)


@st.composite
def argvs(draw):
    """A command and its flags, of which at most two are damaged: drawn from every value, not the valid ones."""
    command = draw(st.sampled_from(tuple(FLAGS)))
    damaged = draw(st.sets(st.sampled_from(tuple(FLAGS[command])), max_size=2))
    source = draw(st.sampled_from(("--variant", "--config")))
    argv = [command]
    for flag, choices in FLAGS[command].items():
        if flag in damaged:
            pool = values(flag, choices)
            if command == "train-toy" and flag == "--batch-size":
                pool = pool[:-1]  # its default, 32, is not tiny
        elif command == "describe" and flag in ("--variant", "--config") and flag != source:
            pool = (None,)
        else:
            pool = VALID[flag]
        value = draw(st.sampled_from(pool))
        if value is not None:
            argv.append(f"{flag}={value}")
    return argv


def make_files(root, flips):
    """Every file kind a path flag can name, in ``root``, the flipped container damaged by ``flips``; kind -> path."""
    paths = {kind: os.path.join(root, name) for kind, name in (
        ("missing", "absent/x"), ("dir", "dir"), ("empty", "empty"), ("truncated", "truncated.ckpt"),
        ("flipped", "flipped.ckpt"), ("model", "model.ckpt"), ("tensors", "input.mft"), ("new", "new.out"))}
    os.mkdir(paths["dir"])
    open(paths["empty"], "wb").close()
    for kind, damage in (("config", {}), *DAMAGED_CONFIGS.items(), *OTHER_CONFIGS.items()):
        paths[kind] = os.path.join(root, f"{kind}.json")
        with open(paths[kind], "w") as f:
            json.dump({"custom": {**MICRO_JSON["custom"], **damage}}, f)
    save(build(ModelConfig.from_json_dict(MICRO_JSON), seed=0), paths["model"])
    save_tensors(paths["tensors"], {"input": np.random.default_rng(0).random((1, 3, 32, 32), dtype=np.float32)})
    with open(paths["model"], "rb") as f:
        blob = f.read()
    with open(paths["truncated"], "wb") as f:
        f.write(blob[: len(blob) // 2])
    flipped, head = bytearray(blob), 16 + struct.unpack("<Q", blob[8:16])[0]
    for position, mask in flips:
        flipped[position % head] ^= mask
    with open(paths["flipped"], "wb") as f:
        f.write(flipped)
    return paths


def snapshot(root):
    files = {}
    for folder, dirs, names in os.walk(root):
        files[folder] = None
        for name in names:
            with open(os.path.join(folder, name), "rb") as f:
                files[os.path.join(folder, name)] = f.read()
    return files


def as_int(value, default):
    try:
        return int(default if value is None else value)
    except ValueError:
        return None


def as_float(value, default):
    try:
        return float(default if value is None else value)
    except ValueError:
        return math.nan


def runs_long(argv):
    """Whether this argv passes validation and then runs a gradient check or more than two training steps."""
    opts = dict(token.split("=", 1) for token in argv[1:])
    seed = as_int(opts.get("--seed"), 0)
    if seed is None or seed < 0:
        return False
    if argv[0] == "gradcheck" and opts.get("--config") in ("@config", "@one_channel"):
        tolerance = as_float(opts.get("--tolerance"), 1e-4)
        return math.isfinite(tolerance) and tolerance > 0
    if argv[0] == "train-toy" and opts.get("--config") == "@config":
        steps, batch = as_int(opts.get("--steps"), None), as_int(opts.get("--batch-size"), None)
        return (opts.get("--out") not in ("@missing", "@dir") and steps is not None and steps > 2
                and batch is not None and 1 <= batch <= 4 and math.isfinite(as_float(opts.get("--lr"), 0.0)))
    return False


def strict_json(text):
    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    return json.loads(text, parse_constant=refuse)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(argv=argvs(), flips=FLIPS)
# Numbers numpy cannot size as an image batch: a traceback from synth_batch before the bound.
@example(argv=["train-toy", "--config=@config", "--steps=1", "--batch-size=9223372036854775808", "--out=@new"],
         flips=[(0, 1)])
@example(argv=["train-toy", "--config=@config", "--steps=1", "--batch-size=10000000000000000000", "--out=@new"],
         flips=[(0, 1)])
# A config the dataset cannot feed: refused before the model is built.
@example(argv=["train-toy", "--config=@one_channel", "--steps=1", "--batch-size=4", "--out=@new"], flips=[(0, 1)])
# A config whose input numpy cannot size: a traceback from gradcheck's input batch before the input_size bound.
@example(argv=["gradcheck", "--config=@huge_input"], flips=[(0, 1)])
def test_every_argv_exits_0_1_or_2_and_a_refusal_is_one_error_line(argv, flips):
    assume(not runs_long(argv))
    real_synth_batch = train.synth_batch
    batches = []

    def synth_batch(*args, **kwargs):
        batches.append(args)
        assert len(batches) <= 2, f"{argv} trains more than two steps"
        return real_synth_batch(*args, **kwargs)

    def check_parameter_group(*args, **kwargs):
        raise AssertionError(f"{argv} runs a gradient check")

    with tempfile.TemporaryDirectory() as root:
        paths = make_files(root, flips)
        argv = [re.sub(r"@(\w+)", lambda m: paths[m.group(1)], token) for token in argv]
        before = snapshot(root)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                mock.patch.object(train, "synth_batch", synth_batch), \
                mock.patch.object(cli, "check_parameter_group", check_parameter_group):
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code
        changed = snapshot(root) != before
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    event(f"{argv[0]} exit {code}")
    if code != 0:
        lines = err.splitlines()
        errors = [line for line in lines if "error:" in line]
        assert len(errors) == 1 and lines[-1] == errors[0], (argv, err)
        if not errors[0].startswith("error:"):  # argparse's refusal, after its usage line
            assert code == 1 and lines[0].startswith("usage:") and errors[0].startswith("metaformer"), (argv, err)
        else:
            assert lines == errors, (argv, err)
    if code == 1:
        assert not changed, argv
    if code == 0 and (argv[0] == "infer" or "--format=json" in argv):
        strict_json(out)
