"""Noise-predictor forward/backward against hand unrolls and finite differences."""

import struct

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
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_zero_linear_grads_nonzero_at_init(self):
        params = tiny_params(seed=2)  # zero_linears still at zero
        x = tiny_inputs(seed=5)
        trace = dn.ForwardTrace()
        hiddens = dn.reference_forward(params, x["ref"], x["cond"], trace=trace)
        eps_hat, trace = dn.denoiser_forward(params, x["x_t"], 3, x["cond"], hiddens, trace=trace)
        grads = dn.backward(params, trace, np.ones_like(eps_hat))
        assert np.abs(grads["zero0.w"]).max() > 0.0
        assert np.abs(grads["zero1.w"]).max() > 0.0
        # no gradient reaches the reference branch while the maps are zero
        assert np.all(grads["ref.in_w"] == 0.0)

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
        assert np.all(grads["ref.in_w"] == 0.0)
        assert np.abs(grads["denoise.in_w"]).max() > 0.0


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
        assert dn._n_parameters(**arch) == params.n_parameters()
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
