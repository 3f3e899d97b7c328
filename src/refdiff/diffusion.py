"""Denoising-diffusion machinery over spectrogram-shaped arrays.

Forward corruption (both the closed form and the per-step Markov
kernel), the epsilon-parameterized reverse step with an optional
clipped-x0 posterior form, an ancestral sampler with optional
evenly-strided step reduction, and the transition-weighted
noise-prediction loss.  The sampler knows nothing of conditioning: it
calls a noise predictor ``predict(x_t, t)`` that closes over the
reference and score features itself.

Steps are 1-indexed: t runs over 1..T and betas[t-1] is the variance
added at step t.  A reverse step jumps from t to an earlier step
t_prev (t - 1 unless the chain is strided) with variance
1 - abar_t / abar_prev, abar_0 = 1, which is betas[t-1] for a
consecutive jump.  All randomness comes from explicitly seeded
generators; nothing touches global random state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step noise variances and their running products."""

    betas: np.ndarray
    alpha_bars: np.ndarray
    T: int
    beta_min: float
    beta_max: float

    def to_json(self) -> dict:
        return {"T": self.T, "beta_min": self.beta_min, "beta_max": self.beta_max}


def make_schedule(T: int, beta_min: float, beta_max: float) -> NoiseSchedule:
    """Linear beta schedule with cumulative alpha products."""
    if T < 1:
        raise ValueError("T must be >= 1")
    if not (0.0 < beta_min <= beta_max < 1.0):
        raise ValueError("require 0 < beta_min <= beta_max < 1")
    if T == 1:
        betas = np.array([beta_min])
    else:
        steps = np.arange(T, dtype=np.float64)
        betas = beta_min + steps / (T - 1) * (beta_max - beta_min)
    alpha_bars = np.cumprod(1.0 - betas)
    # the bounds keep betas in (0, 1); betas below float resolution or a long chain still fail here
    if np.any(np.diff(alpha_bars) >= 0.0) or alpha_bars[-1] <= 0.0:
        raise ValueError("alpha_bars must fall strictly and stay positive")
    return NoiseSchedule(
        betas=betas,
        alpha_bars=alpha_bars,
        T=T,
        beta_min=beta_min,
        beta_max=beta_max,
    )


def _check_step(t: int, schedule: NoiseSchedule) -> None:
    if not (1 <= t <= schedule.T):
        raise ValueError(f"step {t} outside 1..{schedule.T}")


def _check_shapes(*arrays: np.ndarray) -> None:
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays[1:]):
        raise ValueError("array shapes must match")


def q_sample(x0: np.ndarray, t: int, noise: np.ndarray, schedule: NoiseSchedule) -> np.ndarray:
    """Closed-form forward corruption: sqrt(abar_t) x0 + sqrt(1 - abar_t) noise."""
    x0 = np.asarray(x0, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    _check_shapes(x0, noise)
    _check_step(t, schedule)
    abar = schedule.alpha_bars[t - 1]
    return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * noise


def q_step(x_prev: np.ndarray, t: int, noise: np.ndarray, schedule: NoiseSchedule) -> np.ndarray:
    """One Markov forward step: sqrt(1 - beta_t) x_{t-1} + sqrt(beta_t) noise."""
    x_prev = np.asarray(x_prev, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    _check_shapes(x_prev, noise)
    _check_step(t, schedule)
    beta = schedule.betas[t - 1]
    return np.sqrt(1.0 - beta) * x_prev + np.sqrt(beta) * noise


def step_beta(t: int, t_prev: int, schedule: NoiseSchedule) -> float:
    """Variance of the jump t -> t_prev: 1 - abar_t / abar_prev (abar_0 = 1).

    A consecutive jump returns betas[t-1] itself rather than the ratio,
    which equals it only up to rounding.
    """
    _check_step(t, schedule)
    if not (0 <= t_prev < t):
        raise ValueError(f"previous step {t_prev} must lie in 0..{t - 1}")
    if t_prev == t - 1:
        return float(schedule.betas[t - 1])
    return float(1.0 - schedule.alpha_bars[t - 1] / _alpha_bar(t_prev, schedule))


def _alpha_bar(t: int, schedule: NoiseSchedule) -> float:
    """abar_t with abar_0 = 1."""
    return float(schedule.alpha_bars[t - 1]) if t > 0 else 1.0


def reverse_mean(
    x_t: np.ndarray,
    t: int,
    eps_hat: np.ndarray,
    schedule: NoiseSchedule,
    t_prev: int | None = None,
) -> np.ndarray:
    """Posterior mean of the reverse kernel under epsilon prediction:

        mu = (x_t - beta / sqrt(1 - abar_t) * eps_hat) / sqrt(1 - beta)

    with beta = step_beta(t, t_prev); t_prev defaults to t - 1.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    _check_shapes(x_t, eps_hat)
    beta = step_beta(t, t - 1 if t_prev is None else t_prev, schedule)
    abar = schedule.alpha_bars[t - 1]
    return (x_t - beta / np.sqrt(1.0 - abar) * eps_hat) / np.sqrt(1.0 - beta)


def clipped_posterior_mean(
    x_t: np.ndarray,
    t: int,
    eps_hat: np.ndarray,
    schedule: NoiseSchedule,
    t_prev: int,
    clip: tuple[float, float],
) -> np.ndarray:
    """Posterior mean of q(x_prev | x_t, x0) at a clipped x0 estimate.

        x0  = clip((x_t - sqrt(1 - abar_t) eps_hat) / sqrt(abar_t), lo, hi)
        mu  = sqrt(abar_prev) beta / (1 - abar_t) x0
              + sqrt(1 - beta) (1 - abar_prev) / (1 - abar_t) x_t

    Without the clip this equals ``reverse_mean``; the clip keeps an
    error in eps_hat from being amplified by 1 / sqrt(abar_t) at the
    noisy end of the chain (the ``clip_denoised`` step of Ho et al.).
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    _check_shapes(x_t, eps_hat)
    beta = step_beta(t, t_prev, schedule)
    abar = schedule.alpha_bars[t - 1]
    abar_prev = _alpha_bar(t_prev, schedule)
    x0 = np.clip((x_t - np.sqrt(1.0 - abar) * eps_hat) / np.sqrt(abar), clip[0], clip[1])
    return (np.sqrt(abar_prev) * beta / (1.0 - abar)) * x0 + (
        np.sqrt(1.0 - beta) * (1.0 - abar_prev) / (1.0 - abar)
    ) * x_t


def p_step(
    x_t: np.ndarray,
    t: int,
    eps_hat: np.ndarray,
    z: np.ndarray | None,
    schedule: NoiseSchedule,
    t_prev: int | None = None,
    clip: tuple[float, float] | None = None,
) -> np.ndarray:
    """One ancestral reverse step t -> t_prev with variance step_beta; no noise at t=1.

    ``clip`` switches to the clipped-x0 posterior mean; t_prev defaults to t - 1.
    """
    t_prev = t - 1 if t_prev is None else t_prev
    if clip is None:
        mean = reverse_mean(x_t, t, eps_hat, schedule, t_prev)
    else:
        mean = clipped_posterior_mean(x_t, t, eps_hat, schedule, t_prev, clip)
    if t == 1 or z is None:
        return mean
    z = np.asarray(z, dtype=np.float64)
    _check_shapes(mean, z)
    return mean + np.sqrt(step_beta(t, t_prev, schedule)) * z


def sampling_steps(schedule: NoiseSchedule, steps: int) -> np.ndarray:
    """Evenly strided descending subset of 1..T, always including T and 1."""
    if not (1 <= steps <= schedule.T):
        raise ValueError(f"steps must lie in 1..{schedule.T}")
    if steps == 1:
        return np.array([1], dtype=int)
    return np.round(np.linspace(schedule.T, 1, steps)).astype(int)


def sample(
    predict: Callable[[np.ndarray, int], np.ndarray],
    shape: tuple[int, ...],
    schedule: NoiseSchedule,
    steps: int,
    seed: int,
    clip: tuple[float, float] | None = None,
) -> np.ndarray:
    """Ancestral sampling of a ``shape`` array from standard normal noise
    down to an x0 estimate.

    ``predict(x_t, t)`` must return the noise estimate for x_t; it
    carries any conditioning itself.  The chain visits an evenly
    strided subset of the schedule (all of T..1 when steps == T); each
    jump t -> t_prev uses the variance 1 - abar_t / abar_prev, so a
    strided chain removes the same noise as the full one (the
    respacing of Nichol & Dhariwal).  With ``clip``
    every step goes through the x0 estimate clipped to [lo, hi]; without
    it the step is the plain epsilon form.  Output is a deterministic
    function of (seed, inputs): the generator draws the initial state
    first, then one z per visited step except the last.
    """
    ts = sampling_steps(schedule, steps)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    for i, t in enumerate(ts):
        eps_hat = predict(x, int(t))
        last = i == len(ts) - 1
        z = None if last else rng.standard_normal(shape)
        t_prev = 0 if last else int(ts[i + 1])
        x = p_step(x, int(t), eps_hat, z, schedule, t_prev, clip)
    return x


def weighted_eps_loss(
    eps_true: np.ndarray, eps_hat: np.ndarray, weights: np.ndarray
) -> tuple[float, np.ndarray]:
    """Weighted mean squared error between true and predicted noise, under
    ``weights``, a positive array of their shape.

    loss = sum(w * (eps - eps_hat)^2) / sum(w); the returned gradient is
    d loss / d eps_hat = -2 w (eps - eps_hat) / sum(w).
    """
    eps_true = np.asarray(eps_true, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    _check_shapes(eps_true, eps_hat, w)
    if w.min() <= 0.0:
        raise ValueError("weights must be positive")
    total = w.sum()
    diff = eps_true - eps_hat
    loss = float((w * diff * diff).sum() / total)
    grad = -2.0 * w * diff / total
    return loss, grad
