"""Naive reference implementations used as independent test oracles.

Everything above the "recorded chains" section is written as direct loops /
direct formulas, deliberately sharing no code with the package. Keep them
slow and obvious. The recorded chains below are the exception: they compose
the package's elementary Tensor ops exactly as the norms and blocks did
before each norm and residual branch became one fused node, and serve as the
bit-for-bit reference of those fused ops, forward and backward.
"""

import numpy as np

from metaformer.init import child_rng
from metaformer.norms import BN_MOMENTUM
from metaformer.tensor import Tensor, sqrt
from metaformer.train import ADAMW_BETAS, ADAMW_EPS


def naive_conv2d(x, w, b=None, stride=(1, 1), padding=(0, 0), groups=1):
    B, cin, H, W = x.shape
    cout, cin_g, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    hout = (H + 2 * ph - kh) // sh + 1
    wout = (W + 2 * pw - kw) // sw + 1
    xp = np.zeros((B, cin, H + 2 * ph, W + 2 * pw), dtype=x.dtype)
    xp[:, :, ph : ph + H, pw : pw + W] = x
    out = np.zeros((B, cout, hout, wout), dtype=x.dtype)
    cout_g = cout // groups
    for bi in range(B):
        for oc in range(cout):
            g = oc // cout_g
            for i in range(hout):
                for j in range(wout):
                    acc = 0.0
                    for ic in range(cin_g):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[bi, g * cin_g + ic, i * sh + u, j * sw + v] * w[oc, ic, u, v]
                    out[bi, oc, i, j] = acc
    if b is not None:
        out += b.reshape(1, cout, 1, 1)
    return out


def naive_avg_pool_excl(x, k):
    """Mean over the in-bounds part of each centered k x k window."""
    B, C, H, W = x.shape
    p = k // 2
    out = np.zeros_like(x)
    for bi in range(B):
        for c in range(C):
            for i in range(H):
                for j in range(W):
                    acc, cnt = 0.0, 0
                    for u in range(i - p, i + p + 1):
                        for v in range(j - p, j + p + 1):
                            if 0 <= u < H and 0 <= v < W:
                                acc += x[bi, c, u, v]
                                cnt += 1
                    out[bi, c, i, j] = acc / cnt
    return out


def loop_box_sum(a, p):
    """Zero-padded (2p+1)^2 box sum of [B, C, H, W] as copy-then-add passes: rows, then columns."""
    rows = a.copy()
    for d in range(1, p + 1):
        rows[:, :, d:] += a[:, :, :-d]
        rows[:, :, :-d] += a[:, :, d:]
    out = rows.copy()
    for d in range(1, p + 1):
        out[:, :, :, d:] += rows[:, :, :, :-d]
        out[:, :, :, :-d] += rows[:, :, :, d:]
    return out


def naive_avg_pool_zeropad(x, k):
    """Zero-padded average pooling with the constant divisor k*k."""
    B, C, H, W = x.shape
    p = k // 2
    out = np.zeros_like(x)
    for bi in range(B):
        for c in range(C):
            for i in range(H):
                for j in range(W):
                    acc = 0.0
                    for u in range(i - p, i + p + 1):
                        for v in range(j - p, j + p + 1):
                            if 0 <= u < H and 0 <= v < W:
                                acc += x[bi, c, u, v]
                    out[bi, c, i, j] = acc / (k * k)
    return out


def naive_mln(x, gamma, beta, eps):
    """Per-sample mean/variance over all of (C, H, W)."""
    out = np.empty_like(x)
    B = x.shape[0]
    for bi in range(B):
        sample = x[bi]
        mu = sample.mean()
        var = ((sample - mu) ** 2).mean()
        norm = (sample - mu) / np.sqrt(var + eps)
        out[bi] = gamma.reshape(-1, 1, 1) * norm + beta.reshape(-1, 1, 1)
    return out


def naive_layer_norm_channel(x, gamma, beta, eps):
    """Per-position mean/variance over channels only."""
    B, C, H, W = x.shape
    out = np.empty_like(x)
    for bi in range(B):
        for i in range(H):
            for j in range(W):
                vec = x[bi, :, i, j]
                mu = vec.mean()
                var = ((vec - mu) ** 2).mean()
                out[bi, :, i, j] = gamma * (vec - mu) / np.sqrt(var + eps) + beta
    return out


def naive_batch_norm_train(x, gamma, beta, eps):
    """Per-channel mean/variance over (B, H, W), biased variance."""
    B, C, H, W = x.shape
    out = np.empty_like(x)
    for c in range(C):
        vals = x[:, c, :, :]
        mu = vals.mean()
        var = ((vals - mu) ** 2).mean()
        out[:, c, :, :] = gamma[c] * (vals - mu) / np.sqrt(var + eps) + beta[c]
    return out


def naive_softmax_rows(x):
    out = np.empty_like(x)
    flat = x.reshape(-1, x.shape[-1])
    oflat = out.reshape(-1, x.shape[-1])
    for r in range(flat.shape[0]):
        e = np.exp(flat[r] - flat[r].max())
        oflat[r] = e / e.sum()
    return out


def loop_trunc_normal(rng, shape, std=0.02, bound=2.0):
    """The original whole-array rejection loop: redraw every out-of-bound value, re-check all."""
    out = rng.standard_normal(shape)
    while True:
        bad = np.abs(out) > bound
        n_bad = int(bad.sum())
        if n_bad == 0:
            break
        out[bad] = rng.standard_normal(n_bad)
    return out * std


def loop_synth_sample(seed, index, size=32):
    """One synthetic [3, size, size] image and its class id, generated one sample at a time.

    The per-sample generator that ``train.synth_batch`` replaced; it uses the
    package's ``child_rng`` only to draw from the same stream.
    """
    label = index % 4
    rng = child_rng(seed, 2, index)
    bg = rng.uniform(0.0, 0.25, size=3)
    fg = rng.uniform(0.65, 1.0, size=3)
    img = np.broadcast_to(bg.reshape(3, 1, 1), (3, size, size)).copy()
    yy, xx = np.mgrid[0:size, 0:size]
    if label == 0:
        cy, cx = rng.uniform(size * 0.35, size * 0.65, size=2)
        r = rng.uniform(size * 0.18, size * 0.32)
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
    elif label == 1:
        cy, cx = rng.uniform(size * 0.35, size * 0.65, size=2)
        half = rng.uniform(size * 0.16, size * 0.28)
        mask = (np.abs(yy - cy) <= half) & (np.abs(xx - cx) <= half)
    elif label == 2:
        period = int(rng.integers(6, 11))
        phase = int(rng.integers(0, period))
        mask = ((yy + phase) % period) < period // 2
    else:
        period = int(rng.integers(6, 11))
        phase = int(rng.integers(0, period))
        mask = ((xx + phase) % period) < period // 2
    img[:, mask] = fg.reshape(3, 1)
    img += rng.normal(0.0, 0.02, size=img.shape)
    return np.clip(img, 0.0, 1.0).astype(np.float32), label


def loop_adamw_step(params, m, v, t, lr, weight_decay):
    """AdamW step ``t`` (from 1), one tensor at a time: the loop that ``train.AdamW``'s arena replaced.

    ``m`` and ``v`` map each parameter's name to its moments, zeros before
    the first step, and are updated in place with the parameters.
    """
    b1, b2 = ADAMW_BETAS
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for name, p in params:
        g = p.grad_array()
        mn = m.setdefault(name, np.zeros_like(p.data))
        vn = v.setdefault(name, np.zeros_like(p.data))
        mn[...] = b1 * mn + (1.0 - b1) * g
        vn[...] = b2 * vn + (1.0 - b2) * g * g
        m_hat = mn / bc1
        v_hat = vn / bc2
        p.data[...] = p.data - lr * weight_decay * p.data - lr * m_hat / (np.sqrt(v_hat) + ADAMW_EPS)


# ---------------------------------------------------------------- recorded chains

def chain_norm(x, gamma, beta, axes, eps, moments=None):
    """(y, mu, var) of a norm as the chain mean, sub, mul, mean, add, sqrt, div, mul, add.

    ``moments=(running_mean, running_var)`` of shape [C] gives BatchNorm's eval chain.
    """
    c = gamma.shape[0]
    if moments is None:
        mu = x.mean(axis=axes, keepdims=True)
        d = x - mu
        var = (d * d).mean(axis=axes, keepdims=True)
        y = d / sqrt(var + eps)
    else:
        running_mean, running_var = moments
        mu = Tensor(running_mean.reshape(1, c, 1, 1))
        var = Tensor(running_var.reshape(1, c, 1, 1))
        y = (x - mu) / Tensor(np.sqrt(running_var + eps).reshape(1, c, 1, 1))
    return y * gamma.reshape(1, c, 1, 1) + beta.reshape(1, c, 1, 1), mu.data, var.data


def chain_drop_path(x, p, mode, rng):
    if mode == "eval" or p == 0.0:
        return x
    B = x.shape[0]
    keep = (rng.random(B) >= p).astype(x.dtype.type)
    return x * Tensor((keep / (1.0 - p)).reshape((B,) + (1,) * (x.ndim - 1)))


def chain_block(block, x, mode="eval", rng=None):
    """``MetaFormerBlock.__call__`` as separate norm, LayerScale, drop-path and residual nodes."""
    cfg = block.config
    c = x.shape[1]

    def norm(layer, t):
        if cfg.norm == "none":
            return t
        if cfg.norm == "bn":
            if mode == "eval":
                return chain_norm(t, layer.gamma, layer.beta, (0, 2, 3), layer.eps,
                                  (layer.running_mean, layer.running_var))[0]
            y, mu, var = chain_norm(t, layer.gamma, layer.beta, (0, 2, 3), layer.eps)
            count = t.shape[0] * t.shape[2] * t.shape[3]
            m = BN_MOMENTUM
            layer.running_mean[:] = (1 - m) * layer.running_mean + m * mu.reshape(c)
            layer.running_var[:] = (1 - m) * layer.running_var + m * (var.reshape(c) * (count / (count - 1)))
            return y
        return chain_norm(t, layer.gamma, layer.beta, (1, 2, 3) if cfg.norm == "mln" else 1, layer.eps)[0]

    def branch(t, h, ls):
        if ls is not None:
            h = h * ls.reshape(1, c, 1, 1)
        h = chain_drop_path(h, block.drop_path_rate, mode, rng)
        return t + h if cfg.use_residual else h

    y = branch(x, block.mixer(norm(block.norm1, x)), block.ls1)
    if not cfg.use_channel_mlp:
        return y
    return branch(y, block.mlp(norm(block.norm2, y)), block.ls2)
