"""The training hot path against a plain reference implementation.

The denoiser stores its convolution weights in the order the matmul
reads them, builds its convolution windows in place, accumulates
gradients into the batch sum and updates Adam in place.  None of that
may change a single bit: the reference below is the straightforward
version the optimized code replaced (C-ordered weights flattened by
copy, padded copies, fresh gradient dicts, out-of-place arithmetic),
and every comparison is on ``tobytes()``.
"""

import numpy as np
import pytest

from refdiff import denoiser as dn
from refdiff import diffusion, synthgen, trainer


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# --- reference implementation -------------------------------------------------


def ref_windows(h, k):
    c_in, T = h.shape
    radius = (k - 1) // 2
    padded = np.zeros((c_in, T + 2 * radius))
    padded[:, radius : radius + T] = h
    s_row, s_col = padded.strides
    view = np.lib.stride_tricks.as_strided(padded, shape=(k, c_in, T), strides=(s_col, s_row, s_col))
    return view.reshape(k * c_in, T)


def ref_flat(w):
    return w.transpose(0, 2, 1).reshape(w.shape[0], w.shape[2] * w.shape[1])


def ref_conv_time(h, w, b):
    windows = ref_windows(h, w.shape[2])
    out = ref_flat(w) @ windows
    out += b[:, None]
    return out, windows


def ref_conv_time_backward(d_out, windows, w):
    c_out, c_in, k = w.shape
    T = d_out.shape[1]
    radius = (k - 1) // 2
    d_flat_w = d_out @ windows.T
    d_w = d_flat_w.reshape(c_out, k, c_in).transpose(0, 2, 1).copy()
    d_windows = ref_flat(w).T @ d_out
    d_padded = np.zeros((c_in, T + 2 * radius))
    for j in range(k):
        d_padded[:, j : j + T] += d_windows[j * c_in : (j + 1) * c_in]
    return d_w, d_out.sum(axis=1), d_padded[:, radius : radius + T]


def ref_branch(branch, x, bias, injections, H):
    tr = {"x": x, "h": [branch.in_w @ x + branch.in_b[:, None]], "win": [], "ta": [], "sb": []}
    for i, block in enumerate(branch.blocks):
        pre, windows = ref_conv_time(tr["h"][-1], block.conv_w, block.conv_b)
        pre[:H] += bias
        pre[H:] += bias
        ta = np.tanh(pre[:H])
        with np.errstate(over="ignore"):
            sb = 1.0 / (1.0 + np.exp(-pre[H:]))
        g = ta * sb
        if injections is not None:
            g = g + injections[i]
        tr["h"].append(tr["h"][-1] + g)
        tr["win"].append(windows)
        tr["ta"].append(ta)
        tr["sb"].append(sb)
    return tr


def ref_forward(p, x_t, t, cond, ref_mel):
    """Reference then denoiser forward; ref_mel None disables the reference."""
    H, L = p.hidden, p.depth
    ref = None
    if ref_mel is None:
        ref_hidden = [np.zeros((H, x_t.shape[1])) for _ in range(L)]
    else:
        ref = ref_branch(p.ref, ref_mel, p.cond_w @ cond + p.cond_b[:, None], None, H)
        ref_hidden = ref["h"][1:]
    emb = dn.step_embedding(t, p.step_dim)
    s = p.step_w @ emb + p.step_b
    bias = s[:, None] + (p.cond_w @ cond + p.cond_b[:, None])
    inj = [p.zero_w[i] @ ref_hidden[i] + p.zero_b[i][:, None] for i in range(L)]
    den = ref_branch(p.denoise, x_t, bias, inj, H)
    eps_hat = p.out_w @ den["h"][-1] + p.out_b[:, None] + x_t
    return eps_hat, {"den": den, "ref": ref, "ref_hidden": ref_hidden, "emb": emb, "cond": cond}


def ref_zero_grads(p):
    return {name: np.zeros_like(arr) for name, arr in p.named_arrays()}


def ref_backward(p, tr, loss_grad):
    H, L = p.hidden, p.depth
    den = tr["den"]
    grads = ref_zero_grads(p)
    grads["out.w"][...] = loss_grad @ den["h"][-1].T
    grads["out.b"][...] = loss_grad.sum(axis=1)
    d_h = p.out_w.T @ loss_grad
    d_s = np.zeros(H)
    d_c = np.zeros((H, tr["cond"].shape[1]))
    d_ref_hidden = [None] * L
    for i in range(L - 1, -1, -1):
        grads[f"zero{i}.w"][...] = d_h @ tr["ref_hidden"][i].T
        grads[f"zero{i}.b"][...] = d_h.sum(axis=1)
        d_ref_hidden[i] = p.zero_w[i].T @ d_h
        ta, sb = den["ta"][i], den["sb"][i]
        d_a = d_h * sb * (1.0 - ta * ta)
        d_b = d_h * ta * sb * (1.0 - sb)
        both = d_a + d_b
        d_s += both.sum(axis=1)
        d_c += both
        d_w, d_bias, d_h_conv = ref_conv_time_backward(
            np.concatenate([d_a, d_b]), den["win"][i], p.denoise.blocks[i].conv_w
        )
        grads[f"denoise.block{i}.conv_w"][...] = d_w
        grads[f"denoise.block{i}.conv_b"][...] = d_bias
        d_h = d_h + d_h_conv
    grads["denoise.in_w"][...] = d_h @ den["x"].T
    grads["denoise.in_b"][...] = d_h.sum(axis=1)
    ref = tr["ref"]
    if ref is not None:
        d_hr = d_ref_hidden[L - 1]
        for i in range(L - 1, -1, -1):
            ta, sb = ref["ta"][i], ref["sb"][i]
            d_a = d_hr * sb * (1.0 - ta * ta)
            d_b = d_hr * ta * sb * (1.0 - sb)
            d_c += d_a + d_b
            d_w, d_bias, d_hr_conv = ref_conv_time_backward(
                np.concatenate([d_a, d_b]), ref["win"][i], p.ref.blocks[i].conv_w
            )
            grads[f"ref.block{i}.conv_w"][...] = d_w
            grads[f"ref.block{i}.conv_b"][...] = d_bias
            d_hr = d_hr + d_hr_conv
            if i > 0:
                d_hr = d_hr + d_ref_hidden[i - 1]
        grads["ref.in_w"][...] = d_hr @ ref["x"].T
        grads["ref.in_b"][...] = d_hr.sum(axis=1)
    grads["step.w"][...] = np.outer(d_s, tr["emb"])
    grads["step.b"][...] = d_s
    grads["cond.w"][...] = d_c @ tr["cond"].T
    grads["cond.b"][...] = d_c.sum(axis=1)
    return grads


def ref_adam_init(params):
    return {"t": 0, "m": ref_zero_grads(params), "v": ref_zero_grads(params)}


def ref_adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    state["t"] += 1
    t = state["t"]
    for name, arr in params.named_arrays():
        g = grads[name]
        m = state["m"][name]
        v = state["v"][name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        arr -= lr * m_hat / (np.sqrt(v_hat) + eps)


def ref_init_params(n_mels, hidden, depth, cond_dim, step_dim, kernel, seed):
    rng = np.random.default_rng(seed)
    in_w = rng.standard_normal((hidden, n_mels)) / np.sqrt(n_mels)
    convs = [rng.standard_normal((2 * hidden, hidden, kernel)) / np.sqrt(hidden * kernel) for _ in range(depth)]

    def branch():
        blocks = [dn.BlockParams(conv_w=w.copy(), conv_b=np.zeros(2 * hidden)) for w in convs]
        return dn.BranchParams(in_w=in_w.copy(), in_b=np.zeros(hidden), blocks=blocks)

    return dn.DenoiserParams(
        n_mels=n_mels,
        hidden=hidden,
        depth=depth,
        cond_dim=cond_dim,
        step_dim=step_dim,
        kernel=kernel,
        denoise=branch(),
        ref=branch(),
        zero_w=[np.zeros((hidden, hidden)) for _ in range(depth)],
        zero_b=[np.zeros(hidden) for _ in range(depth)],
        out_w=rng.standard_normal((n_mels, hidden)) / np.sqrt(hidden),
        out_b=np.zeros(n_mels),
        step_w=rng.standard_normal((hidden, step_dim)) / np.sqrt(step_dim),
        step_b=np.zeros(hidden),
        cond_w=rng.standard_normal((hidden, cond_dim)) / np.sqrt(cond_dim),
        cond_b=np.zeros(hidden),
        flat=None,
    )


def ref_train(config, dataset):
    """The per-item loop: fresh gradients per item, added to the batch in draw order."""
    schedule = diffusion.make_schedule(config.schedule_T, config.beta_min, config.beta_max)
    prepared = [trainer.prepare_sample(s, config, dataset.norm_lo, dataset.norm_hi) for s in dataset]
    params = ref_init_params(
        n_mels=dataset[0].gt_mel.n_mels,
        hidden=config.hidden,
        depth=config.depth,
        cond_dim=dataset[0].cond.shape[0],
        step_dim=config.step_dim,
        kernel=config.kernel,
        seed=config.seed,
    )
    state = ref_adam_init(params)
    rng = np.random.default_rng(config.seed)
    curve = []
    for _ in range(config.total_steps):
        idx = rng.integers(0, len(prepared), size=config.batch_size)
        batch_grads = ref_zero_grads(params)
        batch_loss = 0.0
        for j in idx:
            item = prepared[j]
            t = int(rng.integers(1, schedule.T + 1))
            noise = rng.standard_normal(item.gt.shape)
            x_t = diffusion.q_sample(item.gt, t, noise, schedule)
            ref_mel = item.ref_norm.data if config.reference else None
            eps_hat, tr = ref_forward(params, x_t, t, item.cond, ref_mel)
            loss, loss_grad = diffusion.weighted_eps_loss(noise, eps_hat, item.weights.data)
            grads = ref_backward(params, tr, loss_grad)
            for name in batch_grads:
                batch_grads[name] += grads[name]
            batch_loss += loss
        for name in batch_grads:
            batch_grads[name] /= config.batch_size
        ref_adam_step(params, batch_grads, state, config.learning_rate)
        curve.append(batch_loss / config.batch_size)
    return params, curve


# --- the optimized code against it --------------------------------------------------


@pytest.mark.parametrize("k", [1, 3, 5, 7])
@pytest.mark.parametrize("T", [1, 2, 3, 5, 44])
def test_conv_windows_and_output_match_padded_construction(k, T):
    rng = np.random.default_rng(10 * k + T)
    h = rng.standard_normal((4, T))
    w = rng.standard_normal((6, 4, k))
    b = rng.standard_normal(6)
    windows = dn._conv_windows(h, k)
    out = dn._flatten_conv(w) @ windows
    out += b[:, None]
    want_out, want_windows = ref_conv_time(h, w, b)
    assert same_bytes(windows, want_windows)
    assert same_bytes(out, want_out)


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("T", [1, 2, 44])
def test_conv_backward_adds_what_the_padded_version_returns(k, T):
    rng = np.random.default_rng(100 * k + T)
    w = rng.standard_normal((6, 4, k))
    windows = ref_windows(rng.standard_normal((4, T)), k)
    d_out = rng.standard_normal((6, T))
    acc_w, acc_b = rng.standard_normal(w.shape), rng.standard_normal(6)
    want_w, want_b, want_h = ref_conv_time_backward(d_out, windows, w)
    want_w, want_b = acc_w + want_w, acc_b + want_b
    d_h = dn._conv_time_backward(d_out, windows, dn._flatten_conv(w), acc_w, acc_b)
    assert same_bytes(d_h, want_h)
    assert same_bytes(acc_w, want_w)
    assert same_bytes(acc_b, want_b)


def recipe_params(seed):
    return dn.randomize_params(dn.init_params(seed=seed), seed=seed + 1, scale=0.05)


@pytest.mark.parametrize("T", [44, 132])
@pytest.mark.parametrize("with_reference", [True, False])
def test_forward_and_backward_match_reference(T, with_reference):
    params = recipe_params(T)
    rng = np.random.default_rng(T)
    x_t, ref_mel, target = (rng.standard_normal((80, T)) for _ in range(3))
    cond = rng.standard_normal((2, T))
    trace = dn.ForwardTrace()
    hiddens = dn.reference_forward(params, ref_mel, cond, trace=trace) if with_reference else None
    eps_hat, trace = dn.denoiser_forward(params, x_t, 37, cond, hiddens, trace=trace)
    want_eps, want_trace = ref_forward(params, x_t, 37, cond, ref_mel if with_reference else None)
    assert same_bytes(eps_hat, want_eps)
    grads = dict(dn.backward(params, trace, eps_hat - target).named_arrays())
    want = ref_backward(params, want_trace, want_eps - target)
    for name in want:
        assert same_bytes(grads[name], want[name] + 0.0), name  # fresh zeros plus the item's gradient


def test_backward_accumulates_the_batch_sum_in_order():
    params = recipe_params(7)
    rng = np.random.default_rng(7)
    items = []
    for T, with_reference in [(44, True), (279, True), (61, False)]:
        x_t, ref_mel, target = (rng.standard_normal((80, T)) for _ in range(3))
        cond = rng.standard_normal((2, T))
        trace = dn.ForwardTrace()
        hiddens = dn.reference_forward(params, ref_mel, cond, trace=trace) if with_reference else None
        eps_hat, trace = dn.denoiser_forward(params, x_t, 11 * T % 100 + 1, cond, hiddens, trace=trace)
        items.append((trace, eps_hat - target))
    summed = ref_zero_grads(params)
    for trace, loss_grad in items:
        fresh = dict(dn.backward(params, trace, loss_grad).named_arrays())
        for name in summed:
            summed[name] += fresh[name]
    accumulated = dn.zero_grads(params)
    for trace, loss_grad in items:
        assert dn.backward(params, trace, loss_grad, accumulated) is accumulated
    accumulated = dict(accumulated.named_arrays())
    for name in summed:
        assert same_bytes(accumulated[name], summed[name]), name


@pytest.mark.parametrize("reference", [True, False])
def test_three_step_train_matches_the_per_item_loop(reference):
    dataset = synthgen.make_dataset(4, seed=0)
    config = trainer.TrainConfig(total_steps=3, learning_rate=1e-3, reference=reference)
    ckpt, history = trainer.train(config, dataset)
    want_params, want_curve = ref_train(config, dataset)
    assert history.loss_curve == want_curve
    for (name, got), (_, want) in zip(ckpt.params.named_arrays(), want_params.named_arrays()):
        assert same_bytes(got, want), name


def test_flattened_conv_weights_are_views_of_the_parameters(tmp_path):
    params = dn.init_params(n_mels=3, hidden=4, depth=2, kernel=5)
    dn.save_checkpoint(tmp_path / "m.rdck", params, {})
    loaded, _ = dn.load_checkpoint(tmp_path / "m.rdck")
    for p in (params, loaded):
        for block in p.denoise.blocks + p.ref.blocks:
            flat = dn._flatten_conv(block.conv_w)
            assert np.shares_memory(flat, block.conv_w) and flat.flags.c_contiguous
