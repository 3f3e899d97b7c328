"""Noise-predictor forward/backward against hand unrolls and finite differences."""

import dataclasses
import struct
import warnings

import numpy as np
import pytest

from refdiff import denoiser as dn


def tiny_params(seed=1, randomize=None):
    params = dn.init_params(
        n_mels=2, hidden=3, depth=2, cond_dim=2, step_dim=4, kernel=3, seed=seed
    )
    if randomize is not None:
        dn.randomize_params(params, seed=randomize)
    return params


def tiny_inputs(seed=3, T=3):
    rng = np.random.default_rng(seed)
    return {
        "x_t": rng.standard_normal((2, T)),
        "cond": rng.standard_normal((2, T)),
        "ref": rng.standard_normal((2, T)),
        "target": rng.standard_normal((2, T)),
    }


class TestStepEmbedding:
    def test_deterministic(self):
        assert np.array_equal(dn.step_embedding(17, 8), dn.step_embedding(17, 8))

    def test_range(self):
        for t in (1, 10, 1000):
            emb = dn.step_embedding(t, 16)
            assert emb.min() >= -1.0 and emb.max() <= 1.0

    def test_t_zero_formula(self):
        emb = dn.step_embedding(0, 6)
        np.testing.assert_array_equal(emb[:3], 0.0)
        np.testing.assert_array_equal(emb[3:], 1.0)

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            dn.step_embedding(1, 5)


class TestInit:
    def test_branches_mirrored(self):
        params = tiny_params()
        assert np.array_equal(params.denoise.in_w, params.ref.in_w)
        for db, rb in zip(params.denoise.blocks, params.ref.blocks):
            assert np.array_equal(db.conv_w, rb.conv_w)
            assert db.conv_w.shape == rb.conv_w.shape

    def test_branches_not_tied(self):
        params = tiny_params()
        params.denoise.in_w[0, 0] += 1.0
        assert params.denoise.in_w[0, 0] != params.ref.in_w[0, 0]

    def test_zero_linears_exactly_zero(self):
        params = dn.init_params(seed=123)
        for i in range(params.depth):
            assert np.all(params.zero_w[i] == 0.0)
            assert np.all(params.zero_b[i] == 0.0)

    def test_named_arrays_order_stable(self):
        params = tiny_params()
        names = [name for name, _ in params.named_arrays()]
        assert names[0] == "denoise.in_w"
        assert names[-1] == "cond.b"
        assert len(names) == len(set(names))


class TestLayout:
    """Parameters, gradients and loaded checkpoints are views into one vector."""

    @pytest.mark.parametrize(
        "arch",
        [
            dict(n_mels=2, hidden=3, depth=2, cond_dim=2, step_dim=4, kernel=3),
            dict(n_mels=80, hidden=64, depth=4, cond_dim=2, step_dim=32, kernel=3),
        ],
    )
    def test_arrays_tile_the_flat_vector_in_order(self, tmp_path, arch):
        params = dn.init_params(**arch)
        dn.save_checkpoint(tmp_path / "m.rdck", params, {})
        loaded, _ = dn.load_checkpoint(tmp_path / "m.rdck")
        layout = [(name, arr.shape, arr.strides) for name, arr in params.named_arrays()]
        for p in (params, dn.zero_grads(params), loaded):
            assert p.flat.ndim == 1 and p.flat.flags.c_contiguous and p.flat.dtype == np.float64
            assert p.n_parameters() == p.flat.size
            assert [(name, arr.shape, arr.strides) for name, arr in p.named_arrays()] == layout
            p.flat[...] = np.arange(p.flat.size)  # each entry's value is its index in flat
            offset = 0
            for name, arr in p.named_arrays():
                assert np.shares_memory(arr, p.flat), name
                assert np.array_equal(np.sort(arr, axis=None), np.arange(offset, offset + arr.size)), name
                offset += arr.size
            assert offset == p.flat.size


class TestReferenceForward:
    def test_deterministic(self):
        params = tiny_params(randomize=2)
        x = tiny_inputs()
        h1 = dn.reference_forward(params, x["ref"], x["cond"])
        h2 = dn.reference_forward(params, x["ref"], x["cond"])
        assert all(np.array_equal(a, b) for a, b in zip(h1, h2))

    def test_shape_contract(self):
        params = tiny_params(randomize=2)
        x = tiny_inputs(T=5)
        hiddens = dn.reference_forward(params, x["ref"], x["cond"])
        assert len(hiddens) == params.depth
        assert all(h.shape == (params.hidden, 5) for h in hiddens)

    def test_hand_unrolled_first_layer(self):
        # single block: h1 = h0 + tanh(a) * sigmoid(b) with
        # [a; b] = conv(h0) + cond projection on both halves
        params = dn.init_params(
            n_mels=2, hidden=2, depth=1, cond_dim=1, step_dim=2, kernel=3, seed=0
        )
        dn.randomize_params(params, seed=9)
        ref = np.array([[1.0, -1.0, 0.5], [0.0, 2.0, 1.0]])
        cond = np.array([[0.3, -0.2, 0.1]])
        hiddens = dn.reference_forward(params, ref, cond)

        h0 = params.ref.in_w @ ref + params.ref.in_b[:, None]
        c = params.cond_w @ cond + params.cond_b[:, None]
        w, b = params.ref.blocks[0].conv_w, params.ref.blocks[0].conv_b
        T = 3
        pre = np.zeros((4, T))
        padded = np.zeros((2, T + 2))
        padded[:, 1:4] = h0
        for t in range(T):
            for o in range(4):
                acc = b[o]
                for i in range(2):
                    for k in range(3):
                        acc += w[o, i, k] * padded[i, t + k]
                pre[o, t] = acc
        pre[:2] += c
        pre[2:] += c
        expected = h0 + np.tanh(pre[:2]) * (1.0 / (1.0 + np.exp(-pre[2:])))
        np.testing.assert_allclose(hiddens[0], expected, atol=1e-12)

    def test_shape_mismatch(self):
        params = tiny_params()
        x = tiny_inputs()
        with pytest.raises(ValueError):
            dn.reference_forward(params, x["ref"], x["cond"][:, :2])


class TestDenoiserForward:
    def test_zero_injection_identity_at_init(self):
        params = tiny_params(seed=7)
        x = tiny_inputs(T=4)
        rng = np.random.default_rng(11)
        wild = [rng.standard_normal((3, 4)) for _ in range(2)]
        zero = [np.zeros((3, 4)) for _ in range(2)]
        out_wild, _ = dn.denoiser_forward(params, x["x_t"], 5, x["cond"], wild)
        out_zero, _ = dn.denoiser_forward(params, x["x_t"], 5, x["cond"], zero)
        out_none, _ = dn.denoiser_forward(params, x["x_t"], 5, x["cond"], None)
        assert np.array_equal(out_wild, out_zero)
        assert np.array_equal(out_wild, out_none)

    def test_output_shape(self):
        params = tiny_params(randomize=1)
        x = tiny_inputs(T=6)
        hiddens = dn.reference_forward(params, x["ref"], x["cond"])
        eps_hat, _ = dn.denoiser_forward(params, x["x_t"], 3, x["cond"], hiddens)
        assert eps_hat.shape == x["x_t"].shape

    def test_hand_unrolled_tiny_net(self):
        # F=2, T=3, L=1, H=2, full pipeline
        params = dn.init_params(
            n_mels=2, hidden=2, depth=1, cond_dim=2, step_dim=4, kernel=3, seed=0
        )
        dn.randomize_params(params, seed=4)
        rng = np.random.default_rng(8)
        x_t = rng.standard_normal((2, 3))
        cond = rng.standard_normal((2, 3))
        ref = rng.standard_normal((2, 3))
        t = 2
        hiddens = dn.reference_forward(params, ref, cond)
        got, _ = dn.denoiser_forward(params, x_t, t, cond, hiddens)

        emb = dn.step_embedding(t, 4)
        s = params.step_w @ emb + params.step_b
        c = params.cond_w @ cond + params.cond_b[:, None]
        h = params.denoise.in_w @ x_t + params.denoise.in_b[:, None]
        w, b = params.denoise.blocks[0].conv_w, params.denoise.blocks[0].conv_b
        padded = np.hstack([np.zeros((2, 1)), h, np.zeros((2, 1))])
        pre = np.zeros((4, 3))
        for t_i in range(3):
            for o in range(4):
                pre[o, t_i] = b[o] + sum(
                    w[o, i, k] * padded[i, t_i + k] for i in range(2) for k in range(3)
                )
        pre[:2] += s[:, None] + c
        pre[2:] += s[:, None] + c
        g = np.tanh(pre[:2]) * (1.0 / (1.0 + np.exp(-pre[2:])))
        inj = params.zero_w[0] @ hiddens[0] + params.zero_b[0][:, None]
        h1 = h + g + inj
        expected = params.out_w @ h1 + params.out_b[:, None] + x_t  # identity skip
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_gated_forward_determinism(self):
        params = tiny_params(randomize=3)
        x = tiny_inputs()
        hiddens = dn.reference_forward(params, x["ref"], x["cond"])
        a, _ = dn.denoiser_forward(params, x["x_t"], 4, x["cond"], hiddens)
        b, _ = dn.denoiser_forward(params, x["x_t"], 4, x["cond"], hiddens)
        assert np.array_equal(a, b)

    def test_wrong_depth_rejected(self):
        params = tiny_params()
        x = tiny_inputs()
        with pytest.raises(ValueError):
            dn.denoiser_forward(params, x["x_t"], 1, x["cond"], [np.zeros((3, 3))])


class TestBackward:
    def test_zero_loss_grad_gives_zero_grads(self):
        params = tiny_params(randomize=6)
        x = tiny_inputs()
        trace = dn.ForwardTrace()
        hiddens = dn.reference_forward(params, x["ref"], x["cond"], trace=trace)
        eps_hat, trace = dn.denoiser_forward(params, x["x_t"], 2, x["cond"], hiddens, trace=trace)
        grads = dn.backward(params, trace, np.zeros_like(eps_hat))
        assert all(np.all(g == 0.0) for _, g in grads.named_arrays())

    def test_zero_linear_grads_nonzero_at_init(self):
        params = tiny_params(seed=2)  # zero_linears still at zero
        x = tiny_inputs(seed=5)
        trace = dn.ForwardTrace()
        hiddens = dn.reference_forward(params, x["ref"], x["cond"], trace=trace)
        eps_hat, trace = dn.denoiser_forward(params, x["x_t"], 3, x["cond"], hiddens, trace=trace)
        grads = dn.backward(params, trace, np.ones_like(eps_hat))
        assert np.abs(grads.zero_w[0]).max() > 0.0
        assert np.abs(grads.zero_w[1]).max() > 0.0
        # no gradient reaches the reference branch while the maps are zero
        assert np.all(grads.ref.in_w == 0.0)

    def test_grad_check_gated(self):
        params = tiny_params(randomize=7)
        x = tiny_inputs(seed=9)
        err = dn.grad_check(params, x["x_t"], 5, x["cond"], x["ref"], x["target"], h=1e-5)
        assert err < 1e-3

    def test_grad_check_gated_tight(self):
        # measured 1.02e-6 at h=1e-5 (6.4e-7 to 1.3e-5 over h = 1e-4..1e-6);
        # the error is rounding in the central difference on near-zero entries
        params = tiny_params(randomize=8)
        x = tiny_inputs(seed=10)
        err = dn.grad_check(params, x["x_t"], 5, x["cond"], x["ref"], x["target"], h=1e-5)
        assert err < 1e-5

    def test_grad_check_deterministic(self):
        params = tiny_params(randomize=9)
        x = tiny_inputs(seed=11)
        e1 = dn.grad_check(params, x["x_t"], 2, x["cond"], x["ref"], x["target"])
        params2 = tiny_params(randomize=9)
        e2 = dn.grad_check(params2, x["x_t"], 2, x["cond"], x["ref"], x["target"])
        assert e1 == e2

    def test_backward_without_forward_rejected(self):
        params = tiny_params()
        with pytest.raises(ValueError):
            dn.backward(params, dn.ForwardTrace(), np.zeros((2, 3)))

    def test_mismatched_loss_grad_rejected(self):
        params = tiny_params(randomize=1)
        x = tiny_inputs()
        eps_hat, trace = dn.denoiser_forward(params, x["x_t"], 2, x["cond"], None)
        with pytest.raises(ValueError):
            dn.backward(params, trace, np.zeros((5, 5)))

    def test_reference_frozen_without_trace(self):
        # hiddens passed as constants (no recorded reference pass):
        # reference-branch gradients stay zero even with nonzero zero-linears
        params = tiny_params(randomize=12)
        x = tiny_inputs(seed=13)
        hiddens = dn.reference_forward(params, x["ref"], x["cond"])
        eps_hat, trace = dn.denoiser_forward(params, x["x_t"], 2, x["cond"], hiddens)
        grads = dn.backward(params, trace, np.ones_like(eps_hat))
        assert np.all(grads.ref.in_w == 0.0)
        assert np.abs(grads.denoise.in_w).max() > 0.0


def trace_arrays(obj):
    """Every array reachable from a trace: its fields, lists and arrays."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, list):
        for item in obj:
            yield from trace_arrays(item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from trace_arrays(getattr(obj, f.name))


def test_trace_keeps_no_window_matrix():
    # backward builds each block's K*H x T windows again from its input;
    # a branch keeps its L+1 hidden states and L (2H, T) gate
    # pre-activations, 13 H x T arrays at depth 4, where the windows added 12
    H, L, K, T = 64, 4, 3, 132
    params = dn.randomize_params(dn.init_params(hidden=H, depth=L, kernel=K), seed=1, scale=0.05)
    rng = np.random.default_rng(0)
    x_t, ref_mel = rng.standard_normal((80, T)), rng.standard_normal((80, T))
    cond = rng.standard_normal((2, T))
    trace = dn.ForwardTrace()
    hiddens = dn.reference_forward(params, ref_mel, cond, trace=trace)
    dn.denoiser_forward(params, x_t, 9, cond, hiddens, trace=trace)
    assert all(arr.shape[0] != K * H for arr in trace_arrays(trace))

    buffers = {}
    for branch in (trace.den, trace.ref):
        for arr in trace_arrays(branch):
            if np.shares_memory(arr, params.flat) or arr is branch.x_in:
                continue  # weight views and the caller's input
            while arr.base is not None:
                arr = arr.base
            buffers[id(arr)] = arr
    assert sum(arr.size for arr in buffers.values()) <= 2 * 13 * H * T


class TestGateSigmoid:
    """The gate's NumPy sigmoid against scipy's ``expit`` (the test's oracle
    only) and at inputs where exp(-b) overflows."""

    @staticmethod
    def identity_gate_params():
        # both gate halves of both branches see the input itself: 1 mel,
        # hidden 1, kernel 1, unit input and conv weights, no bias
        params = dn.init_params(n_mels=1, hidden=1, depth=1, cond_dim=1, step_dim=2, kernel=1)
        params.flat[:] = 0.0
        for branch in (params.denoise, params.ref):
            branch.in_w[...] = 1.0
            branch.blocks[0].conv_w[...] = 1.0
        # small enough that an input of 1e308 keeps every output finite
        params.zero_w[0][...] = 0.25
        params.out_w[...] = 0.5
        return params

    def test_matches_scipy_expit(self):
        from scipy.special import expit

        x = np.linspace(-750.0, 750.0, 300001)
        trace = dn.ForwardTrace()
        dn.reference_forward(self.identity_gate_params(), x[None], np.zeros((1, x.size)), trace=trace)
        sig, want = trace.ref.sig_b[0][0], expit(x)
        # both lie in [0, 1], where bit patterns order like the values.
        # Measured: 1.8% of points differ, 1,191 by 2 ulp and one (x = -37.03)
        # by 3, where the two sit about 2 ulp either side of the exact value
        ulps = np.abs(sig.view(np.int64) - want.view(np.int64))
        assert ulps.max() <= 3
        assert np.abs(sig - want).max() <= 2.3e-16

    @pytest.mark.parametrize("b", [710.0, -710.0, 1e4, -1e4, 1e308, -1e308])
    def test_saturates_without_warnings(self, b):
        params = self.identity_gate_params()
        x, cond = np.array([[b]]), np.zeros((1, 1))
        trace = dn.ForwardTrace()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hiddens = dn.reference_forward(params, x, cond, trace=trace)
            eps_hat, trace = dn.denoiser_forward(params, x, 1, cond, hiddens, trace=trace)
            grads = dn.backward(params, trace, np.ones_like(eps_hat))
        assert all(np.isfinite(h).all() for h in hiddens)
        assert np.isfinite(eps_hat).all() and np.isfinite(grads.flat).all()
        limit = 1.0 if b > 0 else 0.0
        assert trace.ref.sig_b[0][0, 0] == limit and trace.den.sig_b[0][0, 0] == limit


class TestCheckpointFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        params = tiny_params(randomize=20)
        header = {"schedule": {"T": 10, "beta_min": 1e-4, "beta_max": 0.05, "kind": "linear"}}
        path = tmp_path / "m.rdck"
        dn.save_checkpoint(path, params, header)
        loaded, header_back = dn.load_checkpoint(path)
        for (na, a), (nb, b) in zip(params.named_arrays(), loaded.named_arrays()):
            assert na == nb
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert header_back["schedule"]["T"] == 10
        assert header_back["arch"]["hidden"] == 3

    def test_parameter_bytes_are_the_arrays_in_c_order(self, tmp_path):
        # the writer hands each array's buffer to the file; the conv weights
        # are non-contiguous views and must still land in their C order
        params = tiny_params(randomize=22)
        path = tmp_path / "m.rdck"
        dn.save_checkpoint(path, params, {})
        payload = b"".join(np.asarray(a, dtype="<f8").tobytes() for _, a in params.named_arrays())
        assert path.read_bytes().endswith(payload)
        assert len(path.read_bytes()) == 12 + struct.unpack("<I", path.read_bytes()[8:12])[0] + len(payload)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rdck"
        path.write_bytes(b"WHAT" + b"\x00" * 64)
        with pytest.raises(ValueError):
            dn.load_checkpoint(path)

    def test_rejects_truncation(self, tmp_path):
        params = tiny_params(randomize=21)
        path = tmp_path / "t.rdck"
        dn.save_checkpoint(path, params, {})
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(ValueError):
            dn.load_checkpoint(path)

    @pytest.mark.parametrize(
        "arch",
        [
            dict(n_mels=2, hidden=3, depth=2, cond_dim=2, step_dim=4, kernel=3),
            dict(n_mels=5, hidden=1, depth=1, cond_dim=3, step_dim=2, kernel=5),
            dict(n_mels=80, hidden=64, depth=4, cond_dim=2, step_dim=32, kernel=3),
        ],
    )
    def test_size_check_matches_the_arrays(self, tmp_path, arch):
        # the reader checks the file size against the arch before allocating
        params = dn.init_params(**arch)
        path = tmp_path / "a.rdck"
        dn.save_checkpoint(path, params, {})
        loaded, _ = dn.load_checkpoint(path)
        assert loaded.arch() == arch

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_parameters(self, tmp_path, value):
        params = tiny_params(randomize=22)
        params.denoise.blocks[0].conv_w[1, 2, 0] = value
        path = tmp_path / "n.rdck"
        dn.save_checkpoint(path, params, {})
        with pytest.raises(ValueError, match="NaN or infinite"):
            dn.load_checkpoint(path)

    def test_rejects_oversized_header_length(self, tmp_path):
        path = tmp_path / "h.rdck"
        path.write_bytes(dn.CHECKPOINT_MAGIC + struct.pack("<II", dn.CHECKPOINT_VERSION, 2**32 - 1))
        with pytest.raises(ValueError, match="exceeds"):
            dn.load_checkpoint(path)
