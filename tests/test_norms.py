import numpy as np
import pytest

from metaformer.gradcheck import check_tensor_gradient
from metaformer.norms import NORMS, BatchNorm, ChannelLayerNorm, ModifiedLayerNorm
from metaformer.tensor import InvalidArgument, Tensor

from oracles import naive_batch_norm_train, naive_layer_norm_channel, naive_mln


def make_f64(cls, channels, **kw):
    return cls(channels, dtype="f64", **kw)


# ---------------------------------------------------------------------- MLN

def test_mln_constant_sample_maps_to_zero():
    norm = make_f64(ModifiedLayerNorm, 3)
    x = Tensor(np.full((2, 3, 4, 4), 7.0), dtype="f64")
    np.testing.assert_allclose(norm(x).data, 0.0, atol=1e-12)


def test_mln_preserves_prenormalized_pm_one():
    norm = ModifiedLayerNorm(2, eps=1e-14, dtype="f64")
    x = np.empty((1, 2, 2, 2))
    x[0, 0] = -1.0
    x[0, 1] = 1.0
    out = norm(Tensor(x, dtype="f64"))
    np.testing.assert_allclose(out.data, x, atol=1e-6)


def test_mln_matches_bruteforce_oracle():
    rng = np.random.default_rng(0)
    norm = make_f64(ModifiedLayerNorm, 3)
    norm.gamma.data[:] = rng.standard_normal(3)
    norm.beta.data[:] = rng.standard_normal(3)
    x = rng.standard_normal((2, 3, 4, 4))
    got = norm(Tensor(x, dtype="f64")).data
    want = naive_mln(x, norm.gamma.data, norm.beta.data, norm.eps)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_mln_output_statistics():
    rng = np.random.default_rng(1)
    norm = make_f64(ModifiedLayerNorm, 4)
    x = rng.standard_normal((3, 4, 5, 5)) * 3.0 + 1.0
    out = norm(Tensor(x, dtype="f64")).data
    for b in range(3):
        assert abs(out[b].mean()) < 1e-5
        assert abs(out[b].var() - 1.0) < 1e-3


# ----------------------------------------------------------------------- LN

def test_ln_single_channel_collapses_to_beta():
    norm = make_f64(ChannelLayerNorm, 1)
    norm.beta.data[:] = 0.75
    x = Tensor(np.random.default_rng(2).standard_normal((2, 1, 3, 3)), dtype="f64")
    np.testing.assert_allclose(norm(x).data, 0.75, atol=1e-9)


def test_ln_preserves_pm_one_channels():
    norm = ChannelLayerNorm(2, eps=1e-14, dtype="f64")
    x = np.empty((1, 2, 3, 3))
    x[0, 0] = -1.0
    x[0, 1] = 1.0
    np.testing.assert_allclose(norm(Tensor(x, dtype="f64")).data, x, atol=1e-6)


def test_ln_matches_bruteforce_oracle():
    rng = np.random.default_rng(3)
    norm = make_f64(ChannelLayerNorm, 5)
    norm.gamma.data[:] = rng.standard_normal(5)
    norm.beta.data[:] = rng.standard_normal(5)
    x = rng.standard_normal((2, 5, 3, 4))
    got = norm(Tensor(x, dtype="f64")).data
    want = naive_layer_norm_channel(x, norm.gamma.data, norm.beta.data, norm.eps)
    np.testing.assert_allclose(got, want, atol=1e-10)


# ----------------------------------------------------------------------- BN

def test_bn_eval_with_unit_stats_is_identity_up_to_eps():
    norm = make_f64(BatchNorm, 3)
    x = Tensor(np.random.default_rng(4).standard_normal((2, 3, 4, 4)), dtype="f64")
    np.testing.assert_allclose(norm(x, mode="eval").data, x.data, atol=1e-4)


def test_bn_train_constant_channel_yields_beta():
    norm = make_f64(BatchNorm, 2)
    norm.beta.data[:] = [0.5, -0.5]
    x = Tensor(np.full((2, 2, 3, 3), 4.0), dtype="f64")
    out = norm(x, mode="train").data
    np.testing.assert_allclose(out[:, 0], 0.5, atol=1e-9)
    np.testing.assert_allclose(out[:, 1], -0.5, atol=1e-9)


def test_bn_train_matches_bruteforce_oracle():
    rng = np.random.default_rng(5)
    norm = make_f64(BatchNorm, 4)
    norm.gamma.data[:] = rng.standard_normal(4)
    norm.beta.data[:] = rng.standard_normal(4)
    x = rng.standard_normal((3, 4, 5, 5))
    got = norm(Tensor(x, dtype="f64"), mode="train").data
    want = naive_batch_norm_train(x, norm.gamma.data, norm.beta.data, norm.eps)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_bn_running_stats_update():
    norm = make_f64(BatchNorm, 2)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 2, 3, 3))
    norm(Tensor(x, dtype="f64"), mode="train")
    count = 4 * 3 * 3
    for c in range(2):
        mu = x[:, c].mean()
        unbiased = x[:, c].var() * count / (count - 1)
        assert norm.running_mean[c] == pytest.approx(0.9 * 0.0 + 0.1 * mu, rel=1e-12)
        assert norm.running_var[c] == pytest.approx(0.9 * 1.0 + 0.1 * unbiased, rel=1e-12)


def test_bn_train_rejects_single_element_batches():
    norm = make_f64(BatchNorm, 2)
    with pytest.raises(InvalidArgument, match=">= 2"):
        norm(Tensor(np.zeros((1, 2, 1, 1)), dtype="f64"), mode="train")


# ----------------------------------------------------------------- generic

@pytest.mark.parametrize("kind", ["mln", "ln", "bn"])
def test_shift_invariance(kind):
    norm = NORMS[kind](3, dtype="f64")
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 3, 4, 4))
    mode = "train" if kind == "bn" else "eval"
    base = norm(Tensor(x, dtype="f64"), mode=mode).data
    shifted = norm(Tensor(x + 11.5, dtype="f64"), mode=mode).data
    np.testing.assert_allclose(base, shifted, atol=1e-9)


def test_none_norm_is_identity_and_has_no_params():
    norm = NORMS["none"](3, dtype="f64")
    x = Tensor(np.random.default_rng(8).standard_normal((1, 3, 2, 2)), dtype="f64")
    assert norm(x) is x
    assert list(norm.named_parameters("p")) == []


@pytest.mark.parametrize("eps", [0.0, -1e-5])
@pytest.mark.parametrize("cls", [ModifiedLayerNorm, ChannelLayerNorm, BatchNorm])
def test_norms_refuse_a_non_positive_eps(cls, eps):
    with pytest.raises(InvalidArgument, match=f"norm eps must be positive, got {eps}"):
        cls(2, eps=eps)


@pytest.mark.parametrize("kind", ["mln", "ln", "bn"])
def test_norm_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(9)
    norm = NORMS[kind](3, dtype="f64")
    norm.gamma.data[:] = 1.0 + 0.3 * rng.standard_normal(3)
    norm.beta.data[:] = 0.3 * rng.standard_normal(3)
    x = Tensor(rng.standard_normal((2, 3, 4, 4)), dtype="f64", requires_grad=True)
    proj = Tensor(rng.standard_normal((2, 3, 4, 4)), dtype="f64")
    mode = "train" if kind == "bn" else "eval"

    def loss():
        return (norm(x, mode=mode) * proj).sum()

    coords = [tuple(rng.integers(0, s) for s in x.shape) for _ in range(12)]
    assert check_tensor_gradient(loss, x, coords=coords) < 1e-4
    assert check_tensor_gradient(loss, norm.gamma) < 1e-4
    assert check_tensor_gradient(loss, norm.beta) < 1e-4


def test_oracle_agreement_on_many_random_inputs():
    # 100 random inputs per variant against the direct-formula oracles, f64.
    rng = np.random.default_rng(10)
    mln = make_f64(ModifiedLayerNorm, 3)
    ln = make_f64(ChannelLayerNorm, 3)
    bn = make_f64(BatchNorm, 3)
    for _ in range(100):
        x = rng.standard_normal((2, 3, 3, 3)) * rng.uniform(0.5, 3.0) + rng.uniform(-2, 2)
        np.testing.assert_allclose(
            mln(Tensor(x, dtype="f64")).data, naive_mln(x, mln.gamma.data, mln.beta.data, mln.eps), atol=1e-10
        )
        np.testing.assert_allclose(
            ln(Tensor(x, dtype="f64")).data,
            naive_layer_norm_channel(x, ln.gamma.data, ln.beta.data, ln.eps),
            atol=1e-10,
        )
        np.testing.assert_allclose(
            bn(Tensor(x, dtype="f64"), mode="train").data,
            naive_batch_norm_train(x, bn.gamma.data, bn.beta.data, bn.eps),
            atol=1e-10,
        )
