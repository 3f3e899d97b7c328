"""Acceptance suite: one test per shipping criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per criterion.  Criteria 6-8 share three full desk-scale training
runs (2,000 steps on the 64-sample seeded dataset) through a
module-scoped fixture, so this module takes several minutes of CPU; the
fixture hands them to ``trainer.run_in_pool``, which runs them two at a
time, each in its own spawned process under the suite's warning filters.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from refdiff import cli, diffusion, dsp, synthgen, trainer, transition
from refdiff import denoiser as dn

RECIPE_STEPS = 2000
RECIPE_SAMPLES = 64
RECIPE_SEED = 0


# --- criterion 1: forward-process equivalence -----------------------------


def test_criterion_01_forward_chain_matches_closed_form():
    """Chained single-step corruption reproduces the direct formula's
    mean and variance at t in {1, 25, 50, 100} within 3 standard errors."""
    start = time.time()
    sched = diffusion.make_schedule(100, 1e-4, 0.06)
    n = 10_000
    x0 = 0.7
    rng = np.random.default_rng(12345)
    x = np.full(n, x0)
    checkpoints = {}
    for t in range(1, 101):
        x = diffusion.q_step(x, t, rng.standard_normal(n), sched)
        if t in (1, 25, 50, 100):
            checkpoints[t] = x.copy()
    for t, values in checkpoints.items():
        abar = sched.alpha_bars[t - 1]
        mean_true = math.sqrt(abar) * x0
        var_true = 1.0 - abar
        se_mean = math.sqrt(var_true / n)
        se_var = var_true * math.sqrt(2.0 / (n - 1))
        assert abs(values.mean() - mean_true) < 3 * se_mean, f"mean off at t={t}"
        assert abs(values.var() - var_true) < 3 * se_var, f"variance off at t={t}"
    assert time.time() - start < 10.0


# --- criterion 2: analytic-sampler fidelity --------------------------------


def test_criterion_02_analytic_sampler_recovers_point_mass():
    """With the optimal predictor for a point mass at 0.3, the mean of
    1,000 full 100-step runs is within 0.05 of 0.3 per entry."""
    start = time.time()
    sched = diffusion.make_schedule(100, 1e-4, 0.06)
    c0 = 0.3
    shape = (2, 3)

    def optimal(x_t, t):
        abar = sched.alpha_bars[t - 1]
        return (x_t - math.sqrt(abar) * c0) / math.sqrt(1.0 - abar)

    acc = np.zeros(shape)
    runs = 1000
    for i in range(runs):
        acc += diffusion.sample(optimal, shape, sched, steps=100, seed=i)
    mean = acc / runs
    assert np.abs(mean - c0).max() < 0.05
    assert time.time() - start < 60.0


# --- criterion 3: gradient correctness --------------------------------------


def test_criterion_03_grad_check_tiny_net():
    """Central finite differences over every parameter of a <=500-parameter
    denoiser agree with the analytic gradients within 1e-3 relative."""
    start = time.time()
    params = dn.init_params(
        n_mels=2, hidden=3, depth=2, cond_dim=2, step_dim=4, kernel=3, seed=0
    )
    dn.randomize_params(params, seed=0)
    assert params.n_parameters() <= 500
    rng = np.random.default_rng(0)
    x_t = rng.standard_normal((2, 3))
    cond = rng.standard_normal((2, 3))
    ref = rng.standard_normal((2, 3))
    target = rng.standard_normal((2, 3))
    err = dn.grad_check(params, x_t, 5, cond, ref, target, h=1e-5)
    assert err < 1e-3
    assert time.time() - start < 30.0


# --- criterion 4: zero-injection identity -----------------------------------


def test_criterion_04_zero_injection_identity():
    """At initialization the denoiser output is bit-for-bit independent of
    the reference hidden states."""
    params = dn.init_params(
        n_mels=6, hidden=8, depth=3, cond_dim=2, step_dim=8, kernel=3, seed=3
    )
    rng = np.random.default_rng(4)
    T = 7
    x_t = rng.standard_normal((6, T))
    cond = rng.standard_normal((2, T))
    wild = [100.0 * rng.standard_normal((8, T)) for _ in range(3)]
    zero = [np.zeros((8, T)) for _ in range(3)]
    out_wild, _ = dn.denoiser_forward(params, x_t, 9, cond, wild)
    out_zero, _ = dn.denoiser_forward(params, x_t, 9, cond, zero)
    assert np.array_equal(out_wild, out_zero)


# --- criterion 5: detector oracle agreement ---------------------------------


@pytest.fixture(scope="module")
def seeded_dataset():
    return synthgen.make_dataset(RECIPE_SAMPLES, seed=RECIPE_SEED)


def test_criterion_05a_detection_recall(seeded_dataset):
    """Detected transition points hit >= 90% of true note boundaries
    within +-w on the 64-sample seeded dataset (w=8, k=9)."""
    cfg = transition.TransitionConfig(smooth_k=9, window_w=8)
    hits = total = 0
    for s in seeded_dataset:
        series, _ = transition.analyze(s.ref_mel, cfg)
        points = transition.detect_transition_points(series)
        for b in s.score.boundaries():
            total += 1
            hits += int(any(abs(p - b) <= cfg.window_w for p in points))
    recall = hits / total
    assert recall >= 0.9, f"recall {recall:.3f} over {total} boundaries"


def test_criterion_05b_substeps_match_bruteforce_exactly():
    """Band energies, ratio, smoothing and the sign scan match naive
    double-loop implementations exactly on 100 random small matrices."""
    rng = np.random.default_rng(99)
    for case in range(100):
        F = int(rng.integers(2, 12))
        T = int(rng.integers(2, 24))
        data = rng.uniform(0.0, 4.0, (F, T))
        mel = dsp.MelSpectrogram(data=data, hop=128)
        low, high = transition.band_energies(mel)
        b_low = np.zeros(T)
        b_high = np.zeros(T)
        for f in range(F // 2):
            for t in range(T):
                b_low[t] += data[f, t]
        for f in range(F // 2, F):
            for t in range(T):
                b_high[t] += data[f, t]
        assert np.array_equal(low, b_low) and np.array_equal(high, b_high), case

        eps = 1e-6
        ratio = transition.energy_ratio(low, high, eps)
        b_ratio = np.array([high[t] / (low[t] + eps) for t in range(T)])
        assert np.array_equal(ratio, b_ratio), case

        k = int(rng.choice([1, 3, 5, 7]))
        if k > 2 * T - 1:
            k = 1
        smoothed = transition.smooth_ratio(ratio, k)

        def reflect(i):
            i %= 2 * T
            return i if i < T else 2 * T - 1 - i

        r = (k - 1) // 2
        b_smooth = np.zeros(T)
        for t in range(T):
            acc = 0.0
            for i in range(-r, r + 1):
                acc += ratio[reflect(t + i)]
            b_smooth[t] = acc / k
        assert np.array_equal(smoothed, b_smooth), case

        points = transition.detect_transition_points(smoothed)
        signs = [1 if v - smoothed.mean() >= 0 else -1 for v in smoothed]
        b_points = [t for t in range(1, T) if signs[t] != signs[t - 1]]
        assert points == b_points, case


# --- criteria 6-8: trained-model directions ---------------------------------


def recipe_config(lambda_in, blur):
    return trainer.TrainConfig(
        total_steps=RECIPE_STEPS,
        batch_size=8,
        seed=RECIPE_SEED,
        lambda_in=lambda_in,
        blur=blur,
        weighting=True,
        reference=True,
    )


@pytest.fixture(scope="module")
def recipe_runs(seeded_dataset):
    """Three full desk-scale trainings sharing seed and data draws, run two
    at a time; the full run's job, with two evaluations, goes first."""
    (full_curve, (full, full24)), (_, (lam1,)), (_, (noblur,)) = trainer.run_in_pool(
        [
            (recipe_config(lambda_in=2.0, blur=True), seeded_dataset, (100, 24)),
            (recipe_config(lambda_in=1.0, blur=True), seeded_dataset, (100,)),
            (recipe_config(lambda_in=2.0, blur=False), seeded_dataset, (100,)),
        ]
    )
    return {
        "full_curve": full_curve,
        "metrics": {"full": full, "lam1": lam1, "noblur": noblur, "full24": full24},
    }


def test_criterion_06_weighted_loss_direction(recipe_runs):
    """Transition-region MSE with lambda=2 does not exceed the lambda=1
    run under the shared seed (weighted loss helps the regions)."""
    full = recipe_runs["metrics"]["full"]
    lam1 = recipe_runs["metrics"]["lam1"]
    assert full.region_mse <= lam1.region_mse, (
        f"region mse {full.region_mse:.6f} (lambda=2) vs {lam1.region_mse:.6f} (lambda=1)"
    )


def test_criterion_07_reference_blur_direction(recipe_runs):
    """Blurred-reference training yields region MSE <= unblurred-reference
    training under the same recipe and seed."""
    full = recipe_runs["metrics"]["full"]
    noblur = recipe_runs["metrics"]["noblur"]
    assert full.region_mse <= noblur.region_mse, (
        f"region mse {full.region_mse:.6f} (blur) vs {noblur.region_mse:.6f} (no blur)"
    )


def test_criterion_08_steps_direction(recipe_runs):
    """Evaluating one trained checkpoint, 100-step sampling is at least as
    accurate globally as 24-step sampling."""
    m100 = recipe_runs["metrics"]["full"]
    m24 = recipe_runs["metrics"]["full24"]
    assert m100.global_mse <= m24.global_mse, (
        f"global mse {m100.global_mse:.6f} (100 steps) vs {m24.global_mse:.6f} (24 steps)"
    )


def test_criterion_06_08_training_is_sane(recipe_runs):
    """Guardrail shared by the direction criteria: training converged
    (finite, decreasing trend) so the comparisons are meaningful."""
    curve = recipe_runs["full_curve"]
    assert all(np.isfinite(v) for v in curve)
    assert np.mean(curve[-100:]) < np.mean(curve[:100])


# --- criterion 9: format round-trips and CLI determinism --------------------


def test_criterion_09a_mels_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    data = rng.uniform(0, 3, (80, 50)).astype(np.float32).astype(np.float64)
    mel = dsp.MelSpectrogram(data=data, hop=128, is_log=False)
    path = tmp_path / "m.mels"
    dsp.write_mels(path, mel)
    back = dsp.read_mels(path)
    assert np.array_equal(back.data, data)
    dsp.write_mels(tmp_path / "m2.mels", back)
    assert (tmp_path / "m.mels").read_bytes() == (tmp_path / "m2.mels").read_bytes()


def test_criterion_09b_checkpoint_roundtrip_bit_exact(tmp_path):
    params = dn.init_params(n_mels=4, hidden=6, depth=2, seed=7)
    dn.randomize_params(params, seed=8)
    header = {
        "schedule": {"T": 100, "beta_min": 1e-4, "beta_max": 0.06, "kind": "linear"},
        "norm": {"lo": -11.5, "hi": 0.2},
    }
    path = tmp_path / "m.rdck"
    dn.save_checkpoint(path, params, header)
    loaded, _ = dn.load_checkpoint(path)
    for (name, a), (_, b) in zip(params.named_arrays(), loaded.named_arrays()):
        assert np.array_equal(a, b), name


def test_criterion_09c_cli_determinism_by_hash(tmp_path, capsys):
    def tree_hash(root):
        digest = hashlib.sha256()
        for p in sorted(root.iterdir()):
            digest.update(p.name.encode())
            digest.update(p.read_bytes())
        return digest.hexdigest()

    d1, d2 = tmp_path / "g1", tmp_path / "g2"
    for d in (d1, d2):
        assert cli.main(["gendata", "--n", "3", "--seed", "4", "--out", str(d)]) == 0
    capsys.readouterr()
    assert tree_hash(d1) == tree_hash(d2)

    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"total_steps": 10, "batch_size": 2, "hidden": 8, "depth": 2, "step_dim": 8, "seed": 0}
        )
    )
    assert cli.main(["train", str(cfg), str(d1 / "manifest.jsonl"), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    ckpt = tmp_path / "model.rdck"
    outs = []
    for name in ("s1.mels", "s2.mels"):
        out = tmp_path / name
        code = cli.main(
            [
                "sample", str(ckpt), str(d1 / "manifest.jsonl"), str(out),
                "--index", "1", "--steps", "25", "--seed", "11",
            ]
        )
        assert code == 0
        capsys.readouterr()
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# --- criterion 10: STFT / mel correctness ------------------------------------


def test_criterion_10a_stft_matches_naive_dft():
    """Magnitudes agree with an O(n^2) DFT within 1e-6 relative on random frames."""
    from test_dsp import framed_segments, naive_dft_magnitude

    rng = np.random.default_rng(17)
    samples = rng.uniform(-1, 1, 241)
    buf = dsp.AudioBuffer(samples=samples, sample_rate=8000)
    frame, hop = 32, 8
    mags = dsp.stft_magnitude(buf, frame=frame, hop=hop, window="rect")
    segs = framed_segments(samples, frame, hop)
    for j in rng.choice(len(segs), size=8, replace=False):
        oracle = naive_dft_magnitude(segs[j])
        scale = max(oracle.max(), 1.0)
        assert np.abs(mags[:, j] - oracle).max() <= 1e-6 * scale


def test_criterion_10b_sine_argmax_bin():
    """A 440 Hz sine lands in the mel band whose center is nearest 440 Hz
    for at least 95% of interior frames."""
    sr = 16000
    cfg = dsp.MelConfig(frame=512, hop=128, n_mels=40, fmax=8000.0)
    t = np.arange(sr) / sr
    buf = dsp.AudioBuffer(samples=0.8 * np.sin(2.0 * np.pi * 440.0 * t), sample_rate=sr)
    mel = dsp.mel_spectrogram(buf, cfg)
    centers = dsp.mel_center_frequencies(40, 0.0, 8000.0)
    expected = int(np.argmin(np.abs(centers - 440.0)))
    interior = list(range(2, (sr - 256) // 128))
    hits = sum(int(np.argmax(mel.data[:, j]) == expected) for j in interior)
    assert hits / len(interior) >= 0.95
