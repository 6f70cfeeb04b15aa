"""Each norm and each residual branch is one graph node, bit-identical to the chain it replaced.

The chains (``oracles.chain_norm``, ``chain_drop_path``, ``chain_block``)
record the same computation as separate elementary nodes. Outputs, every
gradient, BatchNorm's running buffers and the drop-path RNG stream must
match them bit for bit, in f32 and f64.
"""

import numpy as np
import pytest

from metaformer.block import MetaFormerBlock, drop_path
from metaformer.mixers import MixerConfig
from metaformer.model import ModelConfig
from metaformer.tensor import Tensor, affine_norm, residual_add

from oracles import chain_block, chain_drop_path, chain_norm

DTYPES = ("f32", "f64")
NORM_AXES = {"mln": (1, 2, 3), "ln": 1, "bn": (0, 2, 3), "bn_eval": (0, 2, 3)}


def assert_same(got, want, what=""):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


@pytest.mark.parametrize("shape", [(4, 6, 5, 7), (2, 8, 1, 1), (1, 3, 4, 4)])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kind", sorted(NORM_AXES))
def test_affine_norm_matches_the_chain(kind, dtype, shape):
    rng = np.random.default_rng(0)
    C = shape[1]
    data = rng.standard_normal(shape) * 3.0 + 1.5
    gamma, beta = 1.0 + 0.3 * rng.standard_normal(C), 0.3 * rng.standard_normal(C)
    proj = Tensor(rng.standard_normal(shape), dtype=dtype)
    moments = None
    if kind == "bn_eval":
        moments = (rng.standard_normal(C).astype(proj.dtype), rng.uniform(0.5, 2.0, C).astype(proj.dtype))
    results = []
    for op in (affine_norm, chain_norm):
        x, g, b = (Tensor(a, dtype=dtype, requires_grad=True) for a in (data, gamma, beta))
        fixed = moments if op is chain_norm or moments is None else tuple(m.reshape(1, C, 1, 1) for m in moments)
        y, mu, var = op(x, g, b, NORM_AXES[kind], 1e-5, fixed)
        (y * proj).sum().backward()
        results.append((y.data, mu, var, x.grad, g.grad, b.grad))
    for name, got, want in zip(("y", "mu", "var", "x.grad", "gamma.grad", "beta.grad"), *results):
        assert_same(np.asarray(got), np.asarray(want), name)


def test_affine_norm_is_one_node_that_keeps_its_input_unchanged():
    x = Tensor(np.random.default_rng(1).standard_normal((2, 3, 4, 4)), dtype="f32", requires_grad=True)
    before = x.data.copy()
    gamma = Tensor(np.ones(3), dtype="f32", requires_grad=True)
    beta = Tensor(np.zeros(3), dtype="f32", requires_grad=True)
    y, _, _ = affine_norm(x, gamma, beta, (1, 2, 3), 1e-5)
    # Batch moments: x is listed again for its term through the mean, added after the centring's.
    assert y._parents == (x, gamma, beta, x)
    assert_same(x.data, before)


def test_residual_add_with_all_terms_off_returns_the_branch():
    h = Tensor(np.ones((2, 3, 1, 1)), dtype="f32", requires_grad=True)
    assert residual_add(None, h) is h


def test_residual_add_aliasing_x_and_h_matches_the_chain():
    # Identity mixer after no norm: the branch input is the residual itself.
    rng = np.random.default_rng(2)
    data, scale = rng.standard_normal((3, 4, 2, 2)), rng.standard_normal(4)
    mask = np.array([2.0, 0.0, 2.0]).reshape(3, 1, 1, 1)
    grads = []
    for fused in (True, False):
        x = Tensor(data, dtype="f64", requires_grad=True)
        ls = Tensor(scale, dtype="f64", requires_grad=True)
        out = residual_add(x, x, ls, mask) if fused else x + (x * ls.reshape(1, 4, 1, 1)) * Tensor(mask)
        (out * out).sum().backward()
        grads.append((out.data, x.grad, ls.grad))
    for got, want in zip(*grads):
        assert_same(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
def test_drop_path_matches_the_chain_and_draws_the_same_stream(dtype):
    data = np.random.default_rng(3).standard_normal((16, 3, 2, 2))
    results = []
    for op in (drop_path, chain_drop_path):
        rng = np.random.default_rng(4)
        x = Tensor(data, dtype=dtype, requires_grad=True)
        out = op(x, 0.4, "train", rng)
        (out * out).sum().backward()
        results.append((out.data, x.grad, rng.random(3)))
    for got, want in zip(*results):
        assert_same(got, want)
    assert 0 < np.count_nonzero(results[0][0].reshape(16, -1).any(axis=1)) < 16


SWITCHES = [(res, ls, mlp) for res in (True, False) for ls in (True, False) for mlp in (True, False)]


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("res,ls,mlp", SWITCHES)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("norm", ["mln", "ln", "bn", "none"])
def test_block_matches_the_chain(norm, dtype, res, ls, mlp, mode):
    # With no norm the identity mixer makes the branch input the residual input itself.
    mixer = MixerConfig(kind="identity" if norm == "none" else "pooling")
    cfg = ModelConfig(dims=(8,) * 4, mixers=(mixer,) * 4, norm=norm, use_residual=res, use_layer_scale=ls,
                      use_channel_mlp=mlp, layer_scale_init=0.5)
    data_rng = np.random.default_rng(5)
    data = data_rng.standard_normal((6, 8, 5, 5)) * 2.0 + 0.5
    proj = Tensor(data_rng.standard_normal(data.shape), dtype=dtype)
    results = []
    for fused in (True, False):
        block = MetaFormerBlock(cfg, 0, 0.4, np.random.default_rng(6), n_tokens=25, dtype=dtype)
        affine_rng = np.random.default_rng(7)
        for name, p in block.named_parameters():
            if name.endswith(("gamma", "beta")):
                p.data[:] = affine_rng.standard_normal(p.shape) * 0.3 + (1.0 if name.endswith("gamma") else 0.0)
        for buf in (b for _, b in block.named_buffers()):
            buf[:] = affine_rng.uniform(0.5, 1.5, buf.shape)
        x = Tensor(data, dtype=dtype, requires_grad=True)
        rng = np.random.default_rng(8)
        out = block(x, mode, rng) if fused else chain_block(block, x, mode, rng)
        (out * proj).sum().backward()
        state = {"out": out.data, "x.grad": x.grad, "rng": rng.random(4)}
        state.update({f"{n}.grad": p.grad_array() for n, p in block.named_parameters()})
        state.update({n: b.copy() for n, b in block.named_buffers()})
        results.append(state)
    got, want = results
    assert sorted(got) == sorted(want)
    for key in want:
        assert_same(got[key], want[key], key)
