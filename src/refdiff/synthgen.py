"""Synthetic ground truth for the full pipeline.

Renders harmonic mel spectrograms from note sequences with known
boundaries, produces degraded references whose defects concentrate at
those boundaries (temporal smearing plus spectral flattening, the kind
of transition mush a frame-synthesis frontend produces), and supplies
the per-frame condition matrix and oracle transition regions.

Every generator is a deterministic function of its seed.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .dsp import MelConfig, MelSpectrogram, log_compress, mel_center_frequencies, read_mels, write_mels
from .transition import TransitionRegionSet, build_regions

HARMONICS = 5
SMEAR_REACH = 4  # degradation touches +-4 frames around each boundary


@dataclass(frozen=True)
class ScoreSpec:
    """A toy score: (pitch in Hz, duration in frames) per note."""

    notes: tuple[tuple[float, int], ...]
    sample_rate: int
    hop: int
    n_mels: int

    def __post_init__(self):
        if not self.notes:
            raise ValueError("score needs at least one note")
        for pitch, dur in self.notes:
            if isinstance(pitch, bool) or not (isinstance(pitch, numbers.Real) and 80.0 <= pitch <= 1000.0):
                raise ValueError(f"pitch {pitch!r} must be a number in [80, 1000] Hz")
            if isinstance(dur, bool) or not (isinstance(dur, numbers.Integral) and dur >= 4):
                raise ValueError(f"note duration {dur!r} must be an integer >= 4 frames")
        object.__setattr__(self, "notes", tuple((float(p), int(d)) for p, d in self.notes))

    @property
    def total_frames(self) -> int:
        return sum(d for _, d in self.notes)

    def boundaries(self) -> list[int]:
        """Interior note-boundary frames (excludes 0 and total_frames)."""
        return list(itertools.accumulate(d for _, d in self.notes[:-1]))


@dataclass
class SynthSample:
    """One training example with oracle annotations.

    gt_mel is log-compressed at ``cfg.log_floor`` and normalized to
    [-1, 1] with the dataset-level statistics; ref_mel stays in the
    linear domain for the detector and blur, and is log-compressed at
    the same floor later.  Both are n_mels x T at the score's hop.  The
    condition matrix and the oracle regions (``cfg.region_window``
    frames per boundary) are derived from the score, so they cannot
    disagree with it.
    """

    gt_mel: MelSpectrogram
    ref_mel: MelSpectrogram
    score: ScoreSpec
    cfg: "DatasetConfig"
    cond: np.ndarray = field(init=False)
    true_regions: TransitionRegionSet = field(init=False)

    def __post_init__(self):
        shape, hop = (self.score.n_mels, self.score.total_frames), self.score.hop
        for name, mel, is_log in (("gt", self.gt_mel, True), ("ref", self.ref_mel, False)):
            if (mel.data.shape, mel.hop, mel.is_log) != (shape, hop, is_log):
                raise ValueError(
                    f"{name} must be {'log' if is_log else 'linear'}-domain and {shape} at hop {hop} "
                    f"like its score, got is_log={mel.is_log} and {mel.data.shape} at hop {mel.hop}"
                )
        self.cond = score_condition(self.score)
        self.true_regions = build_regions(self.score.boundaries(), self.cfg.region_window, self.score.total_frames)


def check_kind(name: str, value, kind: type):
    """``value``, or TypeError naming ``name`` unless it is of ``kind``: for
    bool true or false, for int an integer that is not a bool, otherwise a
    finite number that is not a bool."""
    if kind is bool:
        ok, what = isinstance(value, bool), "true or false"
    elif kind is int:
        ok, what = isinstance(value, numbers.Integral) and not isinstance(value, bool), "an integer"
    else:
        ok = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
        what = "a finite number"
    if not ok:
        raise TypeError(f"{name} must be {what}, got {value!r}")
    return value


def check_field_types(config) -> None:
    """Raise TypeError unless every field of the dataclass ``config`` holds
    a value of its default's kind (see ``check_kind``)."""
    for f in fields(config):
        check_kind(f.name, getattr(config, f.name), type(f.default))


def read_norm(norm: dict, what: str) -> tuple[float, float]:
    """The (lo, hi) of a ``what`` file's norm object: finite numbers, lo < hi."""
    lo, hi = (float(check_kind(f"{what} norm.{key}", norm[key], float)) for key in ("lo", "hi"))
    if not lo < hi:
        raise ValueError(f"{what} norm must have lo < hi, got {norm}")
    return lo, hi


@dataclass(frozen=True)
class DatasetConfig:
    sample_rate: int = 44100
    hop: int = MelConfig.hop  # an item's frames are those mel_spectrogram makes of its audio
    n_mels: int = MelConfig.n_mels
    notes_min: int = 3
    notes_max: int = 8
    dur_min: int = 8
    dur_max: int = 40
    pitch_lo: float = 80.0
    pitch_hi: float = 1000.0
    degrade_strength: float = 0.9
    region_window: int = 8
    log_floor: float = 1e-5

    def __post_init__(self):
        check_field_types(self)
        if self.n_mels < 2:
            raise ValueError(f"n_mels {self.n_mels}: transition detection needs a low and a high band")

    def score(self, notes) -> ScoreSpec:
        """A score of ``notes`` framed as every item of the dataset is."""
        return ScoreSpec(notes=notes, sample_rate=self.sample_rate, hop=self.hop, n_mels=self.n_mels)


@dataclass
class SynthDataset:
    """Sequence of SynthSample plus the normalization stats they share."""

    samples: list[SynthSample]
    norm_lo: float
    norm_hi: float
    cfg: DatasetConfig
    seed: int

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, i: int) -> SynthSample:
        return self.samples[i]

    def __iter__(self):
        return iter(self.samples)


SPREAD = np.array([0.2, 0.6, 1.0, 0.6, 0.2])  # cross-bin leakage per harmonic


def _note_weights(score: ScoreSpec) -> np.ndarray:
    """(n_notes, T) mixing weights with 3-frame linear cross-fades."""
    edges = np.cumsum([0] + [d for _, d in score.notes])
    t = np.arange(score.total_frames)
    weights = ((edges[:-1, None] <= t) & (t < edges[1:, None])).astype(np.float64)
    ramp = np.array([0.25, 0.5, 0.75])
    for j, b in enumerate(score.boundaries()):
        weights[j, b - 1 : b + 2] = 1.0 - ramp
        weights[j + 1, b - 1 : b + 2] = ramp
    return weights


def render_mel(score: ScoreSpec, seed) -> MelSpectrogram:
    """Linear-domain harmonic spectrogram with seeded per-frame jitter.

    Each note's first 5 harmonics deposit 1/h energy at their nearest mel
    bin, with a short leakage skirt into neighboring bins like a real
    window/filterbank chain would produce (the peak stays at the nearest
    bin).  Harmonics above Nyquist are dropped.
    """
    rng = np.random.default_rng(seed)
    centers = mel_center_frequencies(score.n_mels, 0.0, score.sample_rate / 2.0)
    pitches = np.array([p for p, _ in score.notes])
    h = np.arange(1, HARMONICS + 1)
    freqs = pitches[:, None] * h  # (notes, harmonics); rises with h
    nearest = np.abs(centers - freqs[..., None]).argmin(axis=-1)
    radius = (SPREAD.size - 1) // 2
    bins = nearest[..., None] + np.arange(-radius, radius + 1)  # (notes, harmonics, offsets)
    keep = (freqs <= score.sample_rate / 2.0)[..., None] & (bins >= 0) & (bins < score.n_mels)
    note, k, off = np.nonzero(keep)  # C order: the per-note loop's (h, offset) order
    profiles = np.zeros((len(pitches), score.n_mels))
    np.add.at(profiles, (note, bins[keep]), SPREAD[off] / h[k])
    data = profiles.T @ _note_weights(score)
    jitter = np.clip(1.0 + 0.05 * rng.standard_normal(score.total_frames), 0.5, None)
    data = data * jitter[None, :]
    return MelSpectrogram(data=data, hop=score.hop, is_log=False)


def degrade_reference(
    gt_mel: MelSpectrogram, score: ScoreSpec, strength: float, seed=0
) -> MelSpectrogram:
    """Reference with boundary-localized defects plus a global noise floor.

    Around each note boundary (within +-4 frames) columns are smeared
    toward their local temporal average, partially flattened across
    frequency, and hit with strong per-entry log-normal noise, all
    scaled by ``strength``; everywhere else only 1% multiplicative noise
    separates the reference from the ground truth.  The boundary noise
    is the part a local blur can average away, which is what makes the
    raw reference misleading there.

    Draw order, part of the seeded contract: for each boundary in score
    order, one (columns x F) standard-normal block for its columns
    lo..hi-1, then the F x T noise floor.  Boundaries run in order
    because the windows of notes shorter than 9 frames overlap and a
    later boundary reads the columns an earlier one wrote.
    """
    if not (0.0 <= strength <= 1.0):
        raise ValueError("strength must lie in [0, 1]")
    if gt_mel.is_log:
        raise ValueError("degradation operates on linear-domain spectrograms")
    rng = np.random.default_rng(seed)
    data = gt_mel.data.copy()
    F, T = data.shape
    for b in score.boundaries():
        lo = max(0, b - SMEAR_REACH)
        hi = min(T, b + SMEAR_REACH + 1)
        local_avg = gt_mel.data[:, lo:hi].mean(axis=1)
        tri = (1.0 - np.abs(np.arange(lo, hi) - b) / (SMEAR_REACH + 1.0))[:, None]
        smear = strength * 0.7 * tri
        cols = (1.0 - smear) * data[:, lo:hi].T + smear * local_avg  # (columns, F)
        flatten = strength * 0.45 * tri
        cols = (1.0 - flatten) * cols + flatten * cols.mean(axis=1, keepdims=True)
        # mean-preserving log-normal: a local average recovers the
        # clean value, so blurring genuinely de-noises these columns
        sigma = strength * 1.2 * tri
        # float_power calls pow() like a float's ** 2; an array's ** 2 is
        # one multiply, which rounds differently for some strengths
        spread = np.exp(sigma * rng.standard_normal((hi - lo, F)) - 0.5 * np.float_power(sigma, 2))
        data[:, lo:hi] = (cols * spread).T
    noise = np.clip(1.0 + 0.01 * rng.standard_normal(data.shape), 0.0, None)
    return MelSpectrogram(data=data * noise, hop=gt_mel.hop, is_log=False)


def score_condition(score: ScoreSpec) -> np.ndarray:
    """(2, T) condition: the per-frame F0 at zero mean and unit variance,
    plus an all-voiced flag."""
    f0 = np.concatenate([np.full(dur, pitch) for pitch, dur in score.notes])
    std = f0.std()
    if std == 0.0:
        raise ValueError("f0 contour has zero variance: the score needs two pitches")
    return np.vstack([(f0 - f0.mean()) / std, np.ones(score.total_frames)])


def normalize_log_mel(mel: MelSpectrogram, lo: float, hi: float) -> MelSpectrogram:
    """Affinely map log values from [lo, hi] onto [-1, 1]."""
    if not mel.is_log:
        raise ValueError("normalization expects a log-domain spectrogram")
    if hi <= lo:
        raise ValueError("require hi > lo")
    data = 2.0 * (mel.data - lo) / (hi - lo) - 1.0
    return MelSpectrogram(data=data, hop=mel.hop, is_log=True)


def denormalize_log_mel(mel: MelSpectrogram, lo: float, hi: float) -> MelSpectrogram:
    data = (mel.data + 1.0) / 2.0 * (hi - lo) + lo
    return MelSpectrogram(data=data, hop=mel.hop, is_log=True)


def random_score(rng: np.random.Generator, cfg: DatasetConfig) -> ScoreSpec:
    """Random note sequence on a semitone grid; consecutive pitches differ."""
    n_notes = int(rng.integers(cfg.notes_min, cfg.notes_max + 1))
    n_semis = int(np.floor(12.0 * np.log2(cfg.pitch_hi / cfg.pitch_lo)))
    notes = []
    prev = -1
    for _ in range(n_notes):
        semi = int(rng.integers(0, n_semis + 1))
        while semi == prev:
            semi = int(rng.integers(0, n_semis + 1))
        prev = semi
        pitch = cfg.pitch_lo * 2.0 ** (semi / 12.0)
        dur = int(rng.integers(cfg.dur_min, cfg.dur_max + 1))
        notes.append((pitch, dur))
    return cfg.score(notes)


def make_dataset(n: int, seed: int, cfg: DatasetConfig = DatasetConfig()) -> SynthDataset:
    """Generate n samples, deterministic per (seed, index).

    Normalization stats are the min/max of the log-compressed ground
    truths over the whole dataset.  Until they are known each item keeps
    only its log ground truth and linear reference, as many arrays as the
    dataset returns; the items are then normalized one at a time.

    Draw order, part of the seeded contract: item i spawns three
    streams from ``SeedSequence([seed, i])``, in order the score stream
    (random_score), the render stream (render_mel's per-frame jitter)
    and the degrade stream (degrade_reference: one (columns x F) normal
    block per boundary in order, then the F x T noise floor).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    raw = []
    for i in range(n):
        ss = np.random.SeedSequence([seed, i])
        score_rng, render_rng, degrade_rng = (
            np.random.default_rng(child) for child in ss.spawn(3)
        )
        score = random_score(score_rng, cfg)
        gt_linear = render_mel(score, render_rng)
        ref_linear = degrade_reference(gt_linear, score, cfg.degrade_strength, degrade_rng)
        raw.append((score, log_compress(gt_linear, cfg.log_floor), ref_linear))
    lo = min(float(gt_log.data.min()) for _, gt_log, _ in raw)
    hi = max(float(gt_log.data.max()) for _, gt_log, _ in raw)
    samples = []
    raw.reverse()
    while raw:  # popped, so each log ground truth is freed once it is normalized
        score, gt_log, ref_linear = raw.pop()
        samples.append(SynthSample(normalize_log_mel(gt_log, lo, hi), ref_linear, score, cfg))
    return SynthDataset(samples=samples, norm_lo=lo, norm_hi=hi, cfg=cfg, seed=seed)


# --- dataset manifest (JSON lines: a header, then one record per sample) ---

MANIFEST_VERSION = 2


def write_dataset(dataset: SynthDataset, out_dir) -> str:
    """Write MELS files plus manifest.jsonl; returns the manifest path.

    Line 1 holds what the items share: the manifest version, the
    normalization stats, the dataset config and seed.  Each further line
    names one item's gt and ref MELS files and gives its notes; the rest
    of the item is derived from them on load.
    """
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.jsonl")
    lines = [
        {
            "manifest": MANIFEST_VERSION,
            "norm": {"lo": dataset.norm_lo, "hi": dataset.norm_hi},
            "config": asdict(dataset.cfg),
            "dataset_seed": dataset.seed,
        }
    ]
    for i, sample in enumerate(dataset.samples):
        gt_name, ref_name = f"gt_{i:04d}.mels", f"ref_{i:04d}.mels"
        write_mels(os.path.join(out_dir, gt_name), sample.gt_mel)
        write_mels(os.path.join(out_dir, ref_name), sample.ref_mel)
        lines.append({"gt": gt_name, "ref": ref_name, "notes": sample.score.notes})
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(line, sort_keys=True) + "\n" for line in lines)
    return manifest_path


def load_dataset(manifest_path) -> SynthDataset:
    """Read a manifest written by write_dataset, rebuilding each item's
    score from its notes and the header's config."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    with open(manifest_path, "r", encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    header = lines[0] if lines else None
    if not isinstance(header, dict) or header.get("manifest") != MANIFEST_VERSION:
        raise ValueError(
            f"line 1 is not a version-{MANIFEST_VERSION} manifest header; regenerate it with gendata"
        )
    norm_lo, norm_hi = read_norm(header["norm"], "manifest")
    seed = check_kind("dataset_seed", header["dataset_seed"], int)
    cfg = DatasetConfig(**header["config"])
    samples = [
        SynthSample(
            read_mels(os.path.join(base, rec["gt"])),
            read_mels(os.path.join(base, rec["ref"])),
            cfg.score(rec["notes"]),
            cfg,
        )
        for rec in lines[1:]
    ]
    if not samples:
        raise ValueError(f"empty manifest: {manifest_path}")
    return SynthDataset(
        samples=samples, norm_lo=norm_lo, norm_hi=norm_hi, cfg=cfg, seed=seed
    )
