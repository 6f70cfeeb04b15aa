"""Fuzz of the model config: every value is refused where it enters, or survives every round trip.

Each case overrides some fields of a tiny config with drawn values: right
and wrong types, bools, NaN and infinities, out-of-range and wrong-length
values. The same draw is given to ``ModelConfig`` in Python (lists as
tuples, mixer objects as ``MixerConfig``) and to ``from_json_dict`` as JSON.
Both must raise ``ConfigError``, or both give the same config, and
``metaformer describe --config`` must exit 0, or 1 with one ``error:``
line, accordingly. A config that constructs must build, run one f32 eval
forward at its own ``input_size`` with finite logits, survive its JSON
round trip with NaN and infinities refused by the encoder, and come back
from ``save``/``load`` equal, saving to the same bytes.

Valid values are drawn from small ranges, so that each model stays tiny.
"""

import contextlib
import io
import json
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaformer import cli
from metaformer.checkpoint import load, save
from metaformer.mixers import MIXER_KINDS, MixerConfig
from metaformer.model import ConfigError, ModelConfig, build
from metaformer.norms import NORM_KINDS
from metaformer.tensor import ACTIVATIONS, Tensor

TINY = {"dims": [4, 4, 8, 8], "depths": [1, 1, 1, 1], "num_classes": 3, "input_size": 32}

WRONG = st.sampled_from((None, True, False, "", "8", 0.5, 4.0, float("nan"), float("inf"), [], {}))
MIXER = st.fixed_dictionaries(
    {"kind": st.sampled_from(MIXER_KINDS)},
    optional={"pool_size": st.sampled_from((1, 3, 5)), "kernel": st.sampled_from((1, 3, 5)),
              "heads": st.sampled_from((None, 1, 2, 4))},
)


def four(values, sizes=(4,)):
    """Lists of ``values``, one length drawn from ``sizes``."""
    return st.sampled_from(sizes).flatmap(lambda n: st.lists(values, min_size=n, max_size=n))


# In range: any combination of these is a valid config. layer_scale_init is at most 1, as every
# variant's is; validate refuses larger values, which can overflow the f32 forward.
VALID = {
    "dims": four(st.sampled_from((4, 8))),
    "depths": four(st.integers(1, 2)),
    "mixers": four(MIXER),
    "norm": st.sampled_from(NORM_KINDS),
    "activation": st.sampled_from(tuple(ACTIVATIONS)),
    "use_residual": st.booleans(),
    "use_channel_mlp": st.booleans(),
    "use_layer_scale": st.booleans(),
    "layer_scale_init": st.floats(1e-6, 1.0),
    "drop_path": st.floats(0.0, 0.9),
    "num_classes": st.integers(1, 5),
    "in_channels": st.integers(1, 4),
    "input_size": st.integers(32, 40),
}
# Out of range, of the wrong length, or in range for some other fields only (heads that do not
# divide a width, a layer_scale_init <= 0 with layer scale off).
DAMAGED = {
    **{name: st.one_of(WRONG, WRONG) for name in VALID},
    "dims": four(st.one_of(st.integers(-1, 8), WRONG), sizes=(3, 4, 4, 5)),
    "depths": four(st.one_of(st.integers(-1, 2), WRONG), sizes=(3, 4, 4, 5)),
    "mixers": four(st.one_of(
        st.fixed_dictionaries({"kind": st.one_of(st.sampled_from(MIXER_KINDS), st.sampled_from(("bogus", 5)))},
                              optional={"pool_size": st.one_of(st.integers(-1, 8), WRONG),
                                        "kernel": st.one_of(st.integers(-1, 8), WRONG),
                                        "heads": st.one_of(st.integers(0, 5), WRONG)}),
        st.sampled_from(({"pool_size": 3}, {"kind": "pooling", "size": 3})), MIXER, WRONG), sizes=(3, 4, 4, 5)),
    "norm": st.sampled_from(("instance", "", "MLN")),
    "activation": st.sampled_from(("tanh", "")),
    "layer_scale_init": st.one_of(st.sampled_from((float("nan"), float("inf"), -float("inf"))),
                                  st.sampled_from((0.0, -0.5, 0)),
                                  st.floats(1.0, 1e300, exclude_min=True), st.sampled_from((2, 1e9, 1e38))),
    "drop_path": st.sampled_from((-0.1, 1.0, 1.5, float("nan"), float("inf"))),
    "num_classes": st.sampled_from((0, -1)),
    "in_channels": st.sampled_from((0, -1)),
    "input_size": st.sampled_from((31, 0, -32)),
}
# A valid config with one field damaged.
DAMAGED_CONFIG = st.tuples(
    st.fixed_dictionaries(VALID),
    st.sampled_from(tuple(VALID)).flatmap(lambda name: st.tuples(st.just(name), DAMAGED[name])),
).map(lambda drawn: {**drawn[0], drawn[1][0]: drawn[1][1]})
MIXER_FIELDS = {f.name for f in fields(MixerConfig)}

# Python values JSON cannot hold, or writes back as another type.
PYTHON_ONLY = st.sampled_from((
    np.int64(4), np.int32(40), np.float32(0.1), np.float64(0.1), np.bool_(True), Fraction(1, 10), 1 + 0j,
    [4, 4, 8, 8], (4.0, 4, 8, 8), (np.int64(4),) * 4, MixerConfig(), (MixerConfig(),) * 4,
    (MixerConfig(kind="depthwise_conv", kernel=np.int64(3)),) * 4, (MixerConfig(kind="attention", heads=np.int8(2)),) * 4,
))


def python_value(value):
    """The Python field value of a JSON value: lists become tuples, mixer objects ``MixerConfig``s."""
    if isinstance(value, list):
        return tuple(python_value(v) for v in value)
    if isinstance(value, dict) and "kind" in value and set(value) <= MIXER_FIELDS:
        return MixerConfig(**value)
    return value


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("config-fuzz")


def describe(path) -> tuple:
    """(exit code, stderr lines) of ``metaformer describe --config path``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["describe", "--config", str(path)])
    return code, stderr.getvalue().splitlines()


def check_valid(config: ModelConfig, workdir) -> None:
    """The properties of a config that constructs: a finite forward, and JSON and container round trips."""
    assert ModelConfig.from_json_dict(json.loads(json.dumps(config.to_json_dict(), allow_nan=False))) == config
    model = build(config, seed=0)
    size = config.input_size
    x = np.random.default_rng(0).standard_normal((1, config.in_channels, size, size)).astype(np.float32)
    logits = model.forward(Tensor(x), mode="eval").data
    assert logits.shape == (1, config.num_classes) and np.isfinite(logits).all(), logits
    first, second = workdir / "first.ckpt", workdir / "second.ckpt"
    save(model, str(first))
    loaded = load(str(first))
    assert loaded.config == config
    save(loaded, str(second))
    assert first.read_bytes() == second.read_bytes()


def check_both_paths(custom: dict, workdir) -> None:
    """``custom`` in Python and as JSON is refused alike, or gives one config that holds every property."""
    try:
        config = ModelConfig(**{k: python_value(v) for k, v in custom.items()})
    except ConfigError:
        config = None
    path = workdir / "config.json"
    path.write_text(json.dumps({"custom": custom}))
    try:
        from_json = ModelConfig.from_json_dict(json.loads(path.read_text()))
    except ConfigError:
        from_json = None
    assert from_json == config
    code, err = describe(path)
    if config is None:
        assert code == 1 and len(err) == 1 and err[0].startswith("error:"), (code, err)
        return
    assert code == 0 and not err, (code, err)
    check_valid(config, workdir)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(custom=st.fixed_dictionaries(VALID))
def test_valid_configs_run_and_round_trip(workdir, custom):
    check_both_paths(custom, workdir)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(custom=DAMAGED_CONFIG)
def test_damaged_configs_are_refused_alike_or_round_trip(workdir, custom):
    check_both_paths(custom, workdir)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(name=st.sampled_from(tuple(VALID)), value=PYTHON_ONLY)
def test_python_only_values_are_refused_or_round_trip(workdir, name, value):
    try:
        config = ModelConfig(**{**{k: python_value(v) for k, v in TINY.items()}, name: value})
    except ConfigError:
        return
    check_valid(config, workdir)
