import numpy as np
import pytest

from metaformer.gradcheck import check_tensor_gradient
from metaformer.mixers import MIXERS, AttentionMixer, MixerConfig, PoolingMixer
from metaformer.tensor import InvalidArgument, Tensor, avg_pool2d_excl

from oracles import naive_avg_pool_excl


def rnd(shape, seed=0):
    return Tensor(np.random.default_rng(seed).standard_normal(shape), dtype="f64")


def rng64(seed=0):
    return np.random.default_rng(seed)


def mixer_of(kind, channels=1, n_tokens=1, rng=None, dtype="f32", **fields):
    """The ``kind`` mixer built by its ``MIXERS`` class from a config with ``fields``."""
    return MIXERS[kind](MixerConfig(kind=kind, **fields), channels, n_tokens, rng, dtype)


# ------------------------------------------------------------------ pooling

def test_pooling_constant_input_maps_to_zero():
    mixer = mixer_of("pooling", pool_size=3)
    x = Tensor(np.full((2, 3, 5, 5), -2.5), dtype="f64")
    np.testing.assert_allclose(mixer(x).data, 0.0, atol=1e-12)


def test_pooling_window_means_minus_input():
    mixer = mixer_of("pooling", pool_size=3)
    x = Tensor(np.arange(1, 10, dtype=np.float64).reshape(1, 1, 3, 3))
    out = mixer(x).data[0, 0]
    assert out[1, 1] == 0.0
    assert out[0, 0] == pytest.approx(3.0 - 1.0)
    assert out[0, 1] == pytest.approx(3.5 - 2.0)


def test_pooling_k1_always_zero():
    mixer = mixer_of("pooling", pool_size=1)
    x = rnd((2, 2, 4, 4), seed=1)
    np.testing.assert_array_equal(mixer(x).data, np.zeros_like(x.data))


def test_pooling_rejects_even_k():
    with pytest.raises(InvalidArgument):
        PoolingMixer(MixerConfig(kind="pooling", pool_size=4), 1, 1, None)


@pytest.mark.parametrize("k", [3, 5])
def test_pooling_bruteforce_equivalence_on_random_inputs(k):
    for seed in range(10):
        x = np.random.default_rng(seed).standard_normal((1, 2, 5, 5))
        got = mixer_of("pooling", pool_size=k)(Tensor(x, dtype="f64")).data
        np.testing.assert_allclose(got, naive_avg_pool_excl(x, k) - x, atol=1e-12)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_pooling_gives_the_bits_of_pool_minus_x_in_a_new_array_with_or_without_a_graph(k):
    x = Tensor(np.random.default_rng(k).standard_normal((2, 3, 7, 6)), dtype="f32")
    before = x.data.copy()
    got = mixer_of("pooling", pool_size=k)(x)
    assert got.data.tobytes() == (avg_pool2d_excl(x, k) - x).data.tobytes()
    assert x.data.tobytes() == before.tobytes() and not np.shares_memory(got.data, x.data)
    x.requires_grad = True
    recorded = mixer_of("pooling", pool_size=k)(x)
    assert recorded.requires_grad and recorded.data.tobytes() == got.data.tobytes()


def test_pooling_has_no_parameters():
    assert list(mixer_of("pooling", pool_size=3).named_parameters("p")) == []
    assert list(mixer_of("pooling", pool_size=3).frozen_parameters("p")) == []


# ----------------------------------------------------------------- identity

def test_identity_returns_input_and_unit_gradient():
    mixer = mixer_of("identity")
    x = rnd((2, 3, 4, 4), seed=2)
    x.requires_grad = True
    out = mixer(x)
    assert out is x
    out.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones_like(x.data))


# ------------------------------------------------------------ random matrix

def test_random_matrix_rows_sum_to_one():
    mixer = mixer_of("random_matrix", n_tokens=64, rng=rng64(0), dtype="f32")
    sums = mixer.weight.data.astype(np.float64).sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-6)


def test_random_matrix_identical_tokens_are_fixed_point():
    mixer = mixer_of("random_matrix", n_tokens=16, rng=rng64(1), dtype="f64")
    x = Tensor(np.broadcast_to(np.arange(3.0).reshape(1, 3, 1, 1), (1, 3, 4, 4)).copy(), dtype="f64")
    np.testing.assert_allclose(mixer(x).data, x.data, atol=1e-9)


def test_random_matrix_two_token_matvec():
    mixer = mixer_of("random_matrix", n_tokens=2, rng=rng64(2), dtype="f64")
    mixer.weight.data[:] = [[0.75, 0.25], [0.25, 0.75]]
    x = np.zeros((1, 1, 1, 2))
    x[0, 0, 0] = [2.0, 10.0]
    out = mixer(Tensor(x, dtype="f64")).data[0, 0, 0]
    np.testing.assert_allclose(out, [0.75 * 2 + 0.25 * 10, 0.25 * 2 + 0.75 * 10])


def test_random_matrix_receives_no_gradient():
    mixer = mixer_of("random_matrix", n_tokens=9, rng=rng64(3), dtype="f64")
    x = rnd((2, 2, 3, 3), seed=4)
    x.requires_grad = True
    mixer(x).sum().backward()
    assert not mixer.weight.requires_grad
    np.testing.assert_array_equal(mixer.weight.grad_array(), np.zeros_like(mixer.weight.data))
    assert x.grad is not None


def test_random_matrix_rejects_wrong_resolution():
    mixer = mixer_of("random_matrix", n_tokens=9, rng=rng64(5))
    with pytest.raises(InvalidArgument, match="9 tokens.*16"):
        mixer(Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32)))


# ------------------------------------------------------------ depthwise conv

def test_depthwise_delta_kernel_is_identity():
    mixer = mixer_of("depthwise_conv", channels=2, kernel=3, rng=rng64(6), dtype="f64")
    mixer.weight.data[:] = 0.0
    mixer.weight.data[:, 0, 1, 1] = 1.0
    mixer.bias.data[:] = 0.0
    x = rnd((1, 2, 4, 4), seed=7)
    np.testing.assert_allclose(mixer(x).data, x.data, atol=1e-12)


def test_depthwise_all_ones_center_sum():
    mixer = mixer_of("depthwise_conv", channels=1, kernel=3, rng=rng64(8), dtype="f64")
    mixer.weight.data[:] = 1.0
    mixer.bias.data[:] = 0.0
    x = Tensor(np.arange(1, 10, dtype=np.float64).reshape(1, 1, 3, 3))
    assert mixer(x).data[0, 0, 1, 1] == 45.0


def test_depthwise_parameter_count():
    mixer = mixer_of("depthwise_conv", channels=64, kernel=3, rng=rng64(9))
    n = sum(t.data.size for _, t in mixer.named_parameters("m"))
    assert n == 64 * 9 + 64 == 640


# ---------------------------------------------------------------- attention

def test_attention_single_token_is_proj_of_v():
    c = 8
    mixer = mixer_of("attention", channels=c, heads=2, rng=rng64(10), dtype="f64")
    x = rnd((1, c, 1, 1), seed=11)
    out = mixer(x).data.reshape(c)
    # With one token, softmax weights are [[1.0]], so output = proj(v) + bias.
    t = x.data.reshape(1, c)
    qkv = t @ mixer.qkv_weight.data.T + mixer.qkv_bias.data
    v = qkv[:, 2 * c :]
    want = v @ mixer.proj_weight.data.T + mixer.proj_bias.data
    np.testing.assert_allclose(out, want.reshape(c), atol=1e-12)


def test_attention_identical_tokens_produce_identical_rows():
    c = 8
    mixer = mixer_of("attention", channels=c, heads=2, rng=rng64(12), dtype="f64")
    token = np.random.default_rng(13).standard_normal(c)
    x = np.broadcast_to(token.reshape(1, c, 1, 1), (1, c, 2, 1)).copy()
    out = mixer(Tensor(x, dtype="f64")).data
    np.testing.assert_allclose(out[0, :, 0, 0], out[0, :, 1, 0], atol=1e-12)


def test_attention_parameter_count_closed_form():
    for c, heads in [(32, 4), (512, 16)]:
        mixer = mixer_of("attention", channels=c, heads=heads, rng=rng64(14))
        n = sum(t.data.size for _, t in mixer.named_parameters("m"))
        assert n == 4 * c * c + 4 * c
    assert 4 * 512 * 512 + 4 * 512 == 1_050_624


def test_attention_permutation_equivariant_over_tokens():
    c, h, w = 8, 2, 3
    mixer = mixer_of("attention", channels=c, heads=2, rng=rng64(15), dtype="f64")
    x = np.random.default_rng(16).standard_normal((2, c, h, w))
    perm = np.random.default_rng(17).permutation(h * w)
    flat = x.reshape(2, c, h * w)
    permuted = flat[:, :, perm].reshape(2, c, h, w)
    out_base = mixer(Tensor(x, dtype="f64")).data.reshape(2, c, h * w)
    out_perm = mixer(Tensor(permuted, dtype="f64")).data.reshape(2, c, h * w)
    np.testing.assert_allclose(out_perm, out_base[:, :, perm], atol=1e-10)


def test_attention_rejects_indivisible_heads():
    with pytest.raises(InvalidArgument, match="divisible"):
        AttentionMixer(MixerConfig(kind="attention", heads=3), 10, 1, rng64(18))


# ---------------------------------------------------------------- spatial fc

def test_spatial_fc_identity_weights():
    mixer = mixer_of("spatial_fc", n_tokens=12, rng=rng64(19), dtype="f64")
    mixer.weight.data[:] = np.eye(12)
    mixer.bias.data[:] = 0.0
    x = rnd((2, 3, 3, 4), seed=20)
    np.testing.assert_allclose(mixer(x).data, x.data, atol=1e-12)


def test_spatial_fc_parameter_count():
    mixer = mixer_of("spatial_fc", n_tokens=49, rng=rng64(21))
    n = sum(t.data.size for _, t in mixer.named_parameters("m"))
    assert n == 49 * 49 + 49 == 2_450


def test_spatial_fc_rejects_wrong_resolution():
    mixer = mixer_of("spatial_fc", n_tokens=12, rng=rng64(22))
    with pytest.raises(InvalidArgument, match="12 tokens"):
        mixer(Tensor(np.zeros((1, 2, 3, 3), dtype=np.float32)))


# ------------------------------------------------------------------ generic

ALL_KINDS = ["pooling", "identity", "random_matrix", "depthwise_conv", "attention", "spatial_fc"]


@pytest.mark.parametrize("kind,label", [("random_matrix", "random-matrix"), ("spatial_fc", "spatial-fc")])
def test_bound_mixers_refuse_a_token_count_below_1(kind, label):
    with pytest.raises(InvalidArgument, match=f"^{label} mixer: token count must be >= 1, got 0$"):
        mixer_of(kind, n_tokens=0, rng=rng64(0))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_all_mixers_preserve_shape(kind):
    cfg = MixerConfig(kind=kind, heads=2 if kind == "attention" else None)
    mixer = MIXERS[kind](cfg, channels=8, n_tokens=30, rng=rng64(23), dtype="f64")
    x = rnd((2, 8, 5, 6), seed=24)
    assert mixer(x).shape == x.shape


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_all_mixer_gradients_match_finite_differences(kind):
    cfg = MixerConfig(kind=kind, heads=2 if kind == "attention" else None)
    mixer = MIXERS[kind](cfg, channels=4, n_tokens=12, rng=rng64(25), dtype="f64")
    rng = np.random.default_rng(26)
    x = Tensor(rng.standard_normal((2, 4, 3, 4)), dtype="f64", requires_grad=True)
    proj = Tensor(rng.standard_normal((2, 4, 3, 4)), dtype="f64")

    def loss():
        return (mixer(x) * proj).sum()

    coords = [tuple(rng.integers(0, s) for s in x.shape) for _ in range(10)]
    assert check_tensor_gradient(loss, x, coords=coords) < 1e-4
    for name, p in mixer.named_parameters("m"):
        assert check_tensor_gradient(loss, p, coords=None) < 1e-4, name


def test_parameter_count_formulas_on_random_draws():
    rng = np.random.default_rng(27)
    for _ in range(10):
        c = int(rng.integers(1, 8)) * 8
        n = int(rng.integers(2, 40))
        k = int(rng.choice([1, 3, 5, 7, 9]))
        heads = int(rng.choice([1, 2, 4, 8]))
        counts = {
            "pooling": (0, 0),
            "identity": (0, 0),
            "depthwise_conv": (c * k * k + c, 0),
            "attention": (4 * c * c + 4 * c, 0),
            "spatial_fc": (n * n + n, 0),
            "random_matrix": (0, n * n),
        }
        for kind, (want_train, want_frozen) in counts.items():
            cfg = MixerConfig(kind=kind, kernel=k, heads=heads)
            mixer = MIXERS[kind](cfg, channels=c, n_tokens=n, rng=rng)
            got_train = sum(t.data.size for _, t in mixer.named_parameters("m"))
            got_frozen = sum(t.data.size for _, t in mixer.frozen_parameters("m"))
            assert (got_train, got_frozen) == (want_train, want_frozen), kind
