"""Independent brute-force oracles: explicit Python loops, no library code paths.

Everything here recomputes the mechanisms from first principles so the
tests compare two genuinely different derivations. `direct_cpa` alone calls
the library's primitives: it differs from the library in its algebra, and
keeps their bits so the two can be compared byte for byte.
"""

import math

import numpy as np

from poolattn import ops


def loop_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = acc
    return out


def loop_softmax_rows(a):
    m, n = a.shape
    out = np.zeros((m, n))
    for i in range(m):
        mx = max(float(v) for v in a[i])
        exps = [math.exp(float(v) - mx) for v in a[i]]
        total = sum(exps)
        out[i] = [e / total for e in exps]
    return out


def unflushed_softmax(a, axis):
    """`ops.softmax` arithmetic on the whole map at once, without its subnormal flush.

    `ops.softmax` runs the same numpy calls slice by slice and reduces each line
    in the order used here, so the two differ only where a weight is below tiny.
    """
    shifted = a - a.max(axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    return shifted


def whole_softmax_backward(s, grad, axis):
    """The softmax gradient on the whole map at once: what `ops.softmax_backward`
    computes slice by slice."""
    inner = (grad * s).sum(axis=axis, keepdims=True)
    return s * (grad - inner)


def loop_bin_edges(extent, n):
    return [(i * extent) // n for i in range(n + 1)]


def loop_adaptive_pool(x, n):
    c, h, w = x.shape
    re = loop_bin_edges(h, n)
    ce = loop_bin_edges(w, n)
    out = np.zeros((c, n, n))
    for ch in range(c):
        for i in range(n):
            for j in range(n):
                acc = 0.0
                cnt = 0
                for r in range(re[i], re[i + 1]):
                    for cc in range(ce[j], ce[j + 1]):
                        acc += float(x[ch, r, cc])
                        cnt += 1
                out[ch, i, j] = acc / cnt
    return out


def loop_pyramid_pool(x, sizes):
    c = x.shape[0]
    cols = []
    for n in sizes:
        pooled = loop_adaptive_pool(x, n)
        for i in range(n):
            for j in range(n):
                cols.append(pooled[:, i, j])
    return np.stack(cols, axis=1) if cols else np.zeros((c, 0))


def contiguous_pyramid_pool(x, sizes):
    """Pyramid pooling by its definition: each bin copied out contiguously, row-major,
    summed by numpy along that one axis and divided by the Python-int area.

    Unlike a strided `mean`, the result does not depend on how numpy buffers a
    non-contiguous reduction, so `pyramid_pool` must match it byte for byte.
    """
    c, h, w = x.shape
    cols = []
    for n in sizes:
        re = loop_bin_edges(h, n)
        ce = loop_bin_edges(w, n)
        for i in range(n):
            for j in range(n):
                block = np.ascontiguousarray(x[:, re[i]:re[i + 1], ce[j]:ce[j + 1]])
                area = (re[i + 1] - re[i]) * (ce[j + 1] - ce[j])
                cols.append(block.reshape(c, -1).sum(axis=1) / area)
    return np.stack(cols, axis=1)


def loop_pyramid_pool_backward(grad, sizes, height, width):
    """Adjoint of pyramid pooling, one bin at a time: each anchor's gradient over its area.

    Dims must be Python ints: a numpy integer area would divide a float32
    gradient in float64.
    """
    c = grad.shape[0]
    out = np.zeros((c, height, width), dtype=grad.dtype)
    col = 0
    for n in sizes:
        re = loop_bin_edges(height, n)
        ce = loop_bin_edges(width, n)
        for i in range(n):
            for j in range(n):
                area = (re[i + 1] - re[i]) * (ce[j + 1] - ce[j])
                out[:, re[i]:re[i + 1], ce[j]:ce[j + 1]] += grad[:, col:col + 1, None] / area
                col += 1
    return out


def loop_nonlocal(x, w_q, w_k, w_v, lam):
    """Projections, N x N row-softmax map, aggregation, gated residual."""
    c, h, w = x.shape
    n = h * w
    xf = x.reshape(c, n)
    chat = w_q.shape[0]
    alpha = loop_matmul(w_q, xf)
    beta = loop_matmul(w_k, xf)
    gamma = loop_matmul(w_v, xf)
    logits = np.zeros((n, n))
    for j in range(n):
        for i in range(n):
            logits[j, i] = sum(float(alpha[t, j]) * float(beta[t, i]) for t in range(chat))
    attn = loop_softmax_rows(logits)
    out = np.zeros((c, n))
    for ch in range(c):
        for j in range(n):
            agg = sum(float(attn[j, i]) * float(gamma[ch, i]) for i in range(n))
            out[ch, j] = lam * agg + float(xf[ch, j])
    return out.reshape(c, h, w), attn


def loop_cpa(x, proj, mode, mu):
    """C x C affinity, column-max difference, row softmax, gated residual.

    proj is None or a (w_q, w_k, w_v) triple; mode is 'subtract' or 'square'.
    """
    c, h, w = x.shape
    n = h * w
    xf = x.reshape(c, n)
    if proj is None:
        q = k = v = xf
    else:
        q = loop_matmul(proj[0], xf)
        k = loop_matmul(proj[1], xf)
        v = loop_matmul(proj[2], xf)
    d = np.zeros((c, c))
    for j in range(c):
        for i in range(c):
            d[j, i] = sum(float(q[j, t]) * float(k[i, t]) for t in range(n))
    diff = np.zeros((c, c))
    for j in range(c):
        for i in range(c):
            colmax = max(float(d[t, i]) for t in range(c))
            delta = colmax - float(d[j, i])
            diff[j, i] = delta * delta if mode == "square" else delta
    attn = loop_softmax_rows(diff)
    out = np.zeros((c, n))
    for j in range(c):
        for t in range(n):
            agg = sum(float(attn[j, i]) * float(v[i, t]) for i in range(c))
            out[j, t] = mu * agg + float(xf[j, t])
    return out.reshape(c, h, w), attn


def loop_conv2d_same(x, w):
    """Stride-1 zero-padded convolution as a sum over kernel taps: for each tap
    (di, dj), the C_out x C_in tap weights times the input shifted by that tap."""
    c_out, _, k, _ = w.shape
    c, h, wd = x.shape
    pad = (k - 1) // 2
    xp = np.zeros((c, h + 2 * pad, wd + 2 * pad), dtype=x.dtype)
    xp[:, pad:pad + h, pad:pad + wd] = x
    out = np.zeros((c_out, h * wd), dtype=x.dtype)
    for di in range(k):
        for dj in range(k):
            window = xp[:, di:di + h, dj:dj + wd].reshape(c, h * wd)
            out += np.matmul(np.ascontiguousarray(w[:, :, di, dj]), window)
    return out.reshape(c_out, h, wd)


def loop_conv2d_same_backward(x, w, grad_out):
    """Input and weight gradients of `loop_conv2d_same`, tap by tap."""
    c_out, _, k, _ = w.shape
    c, h, wd = x.shape
    pad = (k - 1) // 2
    xp = np.zeros((c, h + 2 * pad, wd + 2 * pad), dtype=x.dtype)
    xp[:, pad:pad + h, pad:pad + wd] = x
    gflat = grad_out.reshape(c_out, h * wd)
    grad_w = np.zeros_like(w)
    grad_xp = np.zeros_like(xp)
    for di in range(k):
        for dj in range(k):
            window = xp[:, di:di + h, dj:dj + wd].reshape(c, h * wd)
            grad_w[:, :, di, dj] = np.matmul(gflat, window.T)
            grad_xp[:, di:di + h, dj:dj + wd] += np.matmul(
                np.ascontiguousarray(w[:, :, di, dj]).T, gflat).reshape(c, h, wd)
    return grad_xp[:, pad:pad + h, pad:pad + wd], grad_w


def project_then_pool_spa(x, w_q, w_k, w_v, lam, k_sizes, v_sizes, grad_out):
    """SPA in the paper's order, forward and backward: keys and values are projected at
    every position, then pooled. Returns (out, attn, gradients keyed w_q, w_k, w_v, x, lam).

    The library pools first and projects over the anchors; the two orders agree
    because pooling is linear and the projections have no bias.
    """
    c, h, w = x.shape
    xf = x.reshape(c, h * w)
    q = w_q @ xf
    k_pool = contiguous_pyramid_pool((w_k @ xf).reshape(-1, h, w), k_sizes)
    v_pool = contiguous_pyramid_pool((w_v @ xf).reshape(c, h, w), v_sizes)
    attn = unflushed_softmax(k_pool.T @ q, axis=0)
    agg = v_pool @ attn
    out = lam * agg + xf
    g = grad_out.reshape(c, h * w)
    d_agg = lam * g
    d_vpool = d_agg @ attn.T
    d_logits = whole_softmax_backward(attn, v_pool.T @ d_agg, axis=0)
    d_kpool = q @ d_logits.T
    d_q = k_pool @ d_logits
    d_k = loop_pyramid_pool_backward(d_kpool, k_sizes, h, w).reshape(-1, h * w)
    d_v = loop_pyramid_pool_backward(d_vpool, v_sizes, h, w).reshape(c, h * w)
    grads = {"w_q": d_q @ xf.T, "w_k": d_k @ xf.T, "w_v": d_v @ xf.T,
             "x": (g + w_q.T @ d_q + w_k.T @ d_k + w_v.T @ d_v).reshape(c, h, w),
             "lam": float(np.sum(g * agg))}
    return out.reshape(c, h, w), attn, grads


def direct_cpa(x, m, grad_out):
    """CPA with q, k and v projected at every position, forward and backward.
    Returns (out, attn, gradients keyed like `m.params` plus x).

    The library forms the C x C Gram matrix and projects C x C matrices; the two
    agree because the 1x1 projections have no bias, and without projections they
    make the same BLAS calls in the same order.
    """
    c, h, w = x.shape
    xf = x.reshape(c, h * w)
    if m.proj is None:
        q = k = v = xf
    else:
        q = ops.matmul(m.proj.w_q, xf)
        k = ops.matmul(m.proj.w_k, xf)
        v = ops.matmul(m.proj.w_v, xf)
    d = ops.matmul(q, k.T)
    diff = d.max(axis=0, keepdims=True) - d
    gated = diff * diff if m.mode.value == "square" else diff
    attn = ops.softmax(gated, axis=1)
    agg = ops.matmul(attn, v)
    out = (agg * agg.dtype.type(m.mu) + xf).reshape(c, h, w)

    g = grad_out.reshape(c, -1)
    d_mu, d_agg = np.asarray(np.sum(g * agg), dtype=np.float64), g * g.dtype.type(m.mu)
    d_attn = ops.matmul(d_agg, v.T)
    d_v = ops.matmul(attn.T, d_agg)
    d_gated = ops.softmax_backward(attn, d_attn, axis=1)
    d_diff = 2.0 * diff * d_gated if m.mode.value == "square" else d_gated
    d_d = -d_diff
    argmax_rows = np.argmax(d, axis=0)
    d_d[argmax_rows, np.arange(d.shape[1])] += d_diff.sum(axis=0)
    d_q = ops.matmul(d_d, k)
    d_k = ops.matmul(d_d.T, q)
    if m.proj is None:
        grads = {"x": (g + d_q + d_k + d_v).reshape(x.shape)}
    else:
        p = m.proj
        d_x = (g + ops.matmul(p.w_q.T, d_q) + ops.matmul(p.w_k.T, d_k)
               + ops.matmul(p.w_v.T, d_v))
        grads = {"w_q": ops.matmul(d_q, xf.T), "w_k": ops.matmul(d_k, xf.T),
                 "w_v": ops.matmul(d_v, xf.T), "x": d_x.reshape(x.shape)}
    return out, attn, {"mu": d_mu, **grads}
