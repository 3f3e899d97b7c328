"""Pitch-transition detection, region blurring and loss-weight maps.

The detector works on a linear-domain mel spectrogram: sum the lower and
upper halves of the frequency axis per frame, form the guarded
high/low energy ratio, smooth it with a uniform kernel, and mark every
frame where the smoothed ratio crosses its own mean.  A transition
shows as a short bump of the ratio above its mean, so a rise followed
by a fall at most 2w frames later is one transition at the bump's
midpoint; any other crossing is a transition at its own frame.  A
window of ``w`` frames around each transition becomes a transition
region, and the region set keeps the transitions it was built around;
regions drive both the reference blur and the training loss weights.

The band sums add the rows of each band in index order, starting from
+0.0, and the uniform smoother is ``reflect_conv1d`` with unit taps,
which adds them in tap order, so both are bit-reproducible against naive
loop implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import MelSpectrogram, gaussian_blur_2d, reflect_conv1d


@dataclass(frozen=True)
class EnergyRatioSeries:
    """Raw and smoothed high/low band energy ratio for one spectrogram."""

    raw: np.ndarray
    smoothed: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.smoothed.mean())


@dataclass(frozen=True)
class TransitionRegionSet:
    """Sorted, merged frame intervals [start, end) marking transitions,
    and the sorted transition frames they were built around."""

    regions: tuple[tuple[int, int], ...]
    points: tuple[int, ...]
    total_frames: int

    def __post_init__(self):
        points = tuple(int(p) for p in self.points)
        if any(points[i] > points[i + 1] for i in range(len(points) - 1)):
            raise ValueError("points must be sorted")
        if any(not (0 <= p < self.total_frames) for p in points):
            raise ValueError("points must lie in [0, total_frames)")
        regions = tuple((int(s), int(e)) for s, e in self.regions)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "regions", regions)
        prev_end = -1
        for start, end in regions:
            if not (0 <= start < end <= self.total_frames):
                raise ValueError(f"region [{start}, {end}) out of bounds")
            if start <= prev_end:
                raise ValueError("regions must be sorted and non-overlapping")
            prev_end = end

    def covers(self) -> np.ndarray:
        """Boolean mask of frames inside any region."""
        mask = np.zeros(self.total_frames, dtype=bool)
        for start, end in self.regions:
            mask[start:end] = True
        return mask


@dataclass(frozen=True)
class WeightMap:
    """F x T per-entry loss weights: lambda_in inside regions, 1 outside."""

    data: np.ndarray


@dataclass(frozen=True)
class TransitionConfig:
    """Detector parameters; defaults give ~23 ms windows at hop 128 / 44.1 kHz."""

    smooth_k: int = 9
    window_w: int = 8
    eps: float = 1e-6


def band_energies(mel: MelSpectrogram) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame energy of the lower and upper halves of the mel axis.

    Low band covers bins 0..F//2-1, high band the rest.  Requires a
    linear-domain spectrogram; log values would corrupt the ratio.
    """
    if mel.is_log:
        raise ValueError("band energies require a linear-domain spectrogram")
    F = mel.data.shape[0]
    if F < 2:
        raise ValueError("need at least two frequency bins")
    split = F // 2
    # the last running sum adds the rows in index order whatever the layout
    # or T, where np.add.reduce may sum pairwise; + 0.0 is the +0.0 a loop
    # starts from, and changes only a band of -0.0 entries (to +0.0)
    low = np.add.accumulate(mel.data[:split], axis=0)[-1] + 0.0
    high = np.add.accumulate(mel.data[split:], axis=0)[-1] + 0.0
    return low, high


def energy_ratio(low: np.ndarray, high: np.ndarray, eps: float) -> np.ndarray:
    """R(t) = high(t) / (low(t) + eps)."""
    low = np.asarray(low, dtype=np.float64)
    high = np.asarray(high, dtype=np.float64)
    if low.shape != high.shape:
        raise ValueError("band energy sequences must have equal length")
    if low.size and (low.min() < 0.0 or high.min() < 0.0):
        raise ValueError("band energies must be >= 0")
    return high / (low + eps)


def smooth_ratio(ratio: np.ndarray, k: int) -> np.ndarray:
    """Uniform moving average of width k with reflect padding."""
    ratio = np.asarray(ratio, dtype=np.float64)
    T = ratio.size
    if k % 2 == 0 or k < 1:
        raise ValueError("k must be a positive odd integer")
    if k > 2 * T - 1:
        raise ValueError("k must be <= 2T - 1")
    return reflect_conv1d(ratio, np.ones(k)) / k


def detect_transition_points(series: EnergyRatioSeries) -> list[int]:
    """Frames where the smoothed ratio crosses its mean.

    The deviation sign uses sign(0) := +1, and every index t >= 1 whose
    sign differs from t-1 is reported.
    """
    smoothed = series.smoothed
    if smoothed.size < 2:
        raise ValueError("need at least two frames to detect transitions")
    above = smoothed - series.mean >= 0.0
    return (np.flatnonzero(above[1:] != above[:-1]) + 1).tolist()


def transition_centres(series: EnergyRatioSeries, w: int) -> list[int]:
    """Transition frames from the mean crossings of ``series``.

    A rise above the mean at p followed by the fall back below it at
    q <= p + 2w bounds one excursion, the bump a transition makes in the
    ratio; it counts as one transition at (p + q) // 2.  Every other
    crossing is a transition at its own frame.  Without this pairing the
    w-frame windows would sit on the bump's flanks and miss its centre.
    """
    points = detect_transition_points(series)
    above = series.smoothed >= series.mean
    centres = []
    i = 0
    while i < len(points):
        p = points[i]
        if above[p] and i + 1 < len(points) and points[i + 1] - p <= 2 * w:
            centres.append((p + points[i + 1]) // 2)
            i += 2
        else:
            centres.append(p)
            i += 1
    return centres


def build_regions(points, w: int, total_frames: int) -> TransitionRegionSet:
    """Merge w-frame windows centered on each transition point.

    Each point t contributes [t - w//2, t + ceil(w/2)) clamped to
    [0, total_frames); overlapping or adjacent windows are merged.
    """
    if w < 1:
        raise ValueError("w must be >= 1")
    points = tuple(points)
    half_left = w // 2
    half_right = w - half_left
    merged: list[list[int]] = []
    for p in points:
        start = max(0, p - half_left)
        end = min(total_frames, p + half_right)
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return TransitionRegionSet(regions=merged, points=points, total_frames=total_frames)


def blur_regions(mel: MelSpectrogram, regions: TransitionRegionSet, taps: np.ndarray) -> MelSpectrogram:
    """Gaussian-blur every transition region with ``gaussian_kernel`` taps,
    each as if on its own, in one ``gaussian_blur_2d`` pass; other frames
    pass through bit-identically."""
    if regions.total_frames != mel.n_frames:
        raise ValueError("region set frame count does not match spectrogram")
    return gaussian_blur_2d(mel, taps, *regions.regions)


def weight_map(regions: TransitionRegionSet, n_mels: int, lambda_in: float) -> WeightMap:
    """F x T loss weights: lambda_in on region columns, 1 elsewhere."""
    if lambda_in < 1.0:
        raise ValueError("lambda_in must be >= 1")
    row = np.where(regions.covers(), lambda_in, 1.0)
    return WeightMap(data=np.repeat(row[None, :], n_mels, axis=0))


def analyze(
    mel: MelSpectrogram, cfg: TransitionConfig = TransitionConfig()
) -> tuple[EnergyRatioSeries, TransitionRegionSet]:
    """Full detector: band energies -> ratio -> smoothing -> crossings ->
    transition centres -> regions."""
    # a tiny eps over a silent low band can push the ratio, its smoothing
    # or its mean past float64; that is reported here, not as NaN crossings
    with np.errstate(over="ignore", invalid="ignore"):
        raw = energy_ratio(*band_energies(mel), cfg.eps)
        series = EnergyRatioSeries(raw, smooth_ratio(raw, cfg.smooth_k))
        if not np.isfinite(series.mean):
            raise ValueError(f"energy ratio overflows float64 at eps={cfg.eps}")
    points = transition_centres(series, cfg.window_w)
    regions = build_regions(points, cfg.window_w, mel.n_frames)
    return series, regions


def region_report(regions: TransitionRegionSet, hop: int, cfg: TransitionConfig, lambda_in: float) -> dict:
    """JSON-ready transition report matching the CLI schema; ``points``
    are the transition centres the regions are built around."""
    return {
        "total_frames": regions.total_frames,
        "hop": hop,
        "points": list(regions.points),
        "regions": [[int(s), int(e)] for s, e in regions.regions],
        "params": {
            "k": cfg.smooth_k,
            "w": cfg.window_w,
            "eps": cfg.eps,
            "lambda": lambda_in,
        },
    }
