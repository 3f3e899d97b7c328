"""Synthetic ground truth for the full pipeline.

Renders harmonic mel spectrograms from note sequences with known
boundaries, produces degraded references whose defects concentrate at
those boundaries (temporal smearing plus spectral flattening, the kind
of transition mush a frame-synthesis frontend produces), and supplies
the per-frame condition matrix and oracle transition regions.

Every generator is a deterministic function of its seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .dsp import MelSpectrogram, log_compress, mel_center_frequencies, read_mels, write_mels
from .transition import TransitionRegionSet, build_regions

HARMONICS = 5
FADE_FRAMES = 3
SMEAR_REACH = 4  # degradation touches +-4 frames around each boundary


@dataclass(frozen=True)
class ScoreSpec:
    """A toy score: (pitch in Hz, duration in frames) per note."""

    notes: tuple[tuple[float, int], ...]
    sample_rate: int = 44100
    hop: int = 128
    frame: int = 512
    n_mels: int = 80

    def __post_init__(self):
        notes = tuple((float(p), int(d)) for p, d in self.notes)
        object.__setattr__(self, "notes", notes)
        if not notes:
            raise ValueError("score needs at least one note")
        for pitch, dur in notes:
            if not (80.0 <= pitch <= 1000.0):
                raise ValueError(f"pitch {pitch} outside [80, 1000] Hz")
            if dur < 4:
                raise ValueError("note durations must be >= 4 frames")

    @property
    def total_frames(self) -> int:
        return sum(d for _, d in self.notes)

    def boundaries(self) -> list[int]:
        """Interior note-boundary frames (excludes 0 and total_frames)."""
        acc = 0
        out = []
        for _, dur in self.notes[:-1]:
            acc += dur
            out.append(acc)
        return out

    def to_json(self) -> dict:
        return {
            "sample_rate": self.sample_rate,
            "hop": self.hop,
            "frame": self.frame,
            "n_mels": self.n_mels,
            "notes": [[p, d] for p, d in self.notes],
        }

    @staticmethod
    def from_json(obj: dict) -> "ScoreSpec":
        return ScoreSpec(
            notes=tuple((p, d) for p, d in obj["notes"]),
            sample_rate=int(obj["sample_rate"]),
            hop=int(obj["hop"]),
            frame=int(obj["frame"]),
            n_mels=int(obj["n_mels"]),
        )


@dataclass
class SynthSample:
    """One training example with oracle annotations.

    gt_mel is log-compressed and normalized to [-1, 1] with the
    dataset-level statistics; ref_mel stays in the linear domain so the
    detector and blur can run on it downstream.
    """

    gt_mel: MelSpectrogram
    ref_mel: MelSpectrogram
    cond: np.ndarray
    true_regions: TransitionRegionSet
    score: ScoreSpec

    def __post_init__(self):
        T = self.score.total_frames
        if self.gt_mel.n_frames != T or self.ref_mel.n_frames != T:
            raise ValueError("spectrogram frame counts must match the score")
        if self.cond.shape[1] != T:
            raise ValueError("cond frame count must match the score")
        if self.true_regions.total_frames != T:
            raise ValueError("region frame count must match the score")


@dataclass(frozen=True)
class DatasetConfig:
    sample_rate: int = 44100
    hop: int = 128
    frame: int = 512
    n_mels: int = 80
    notes_min: int = 3
    notes_max: int = 8
    dur_min: int = 8
    dur_max: int = 40
    pitch_lo: float = 80.0
    pitch_hi: float = 1000.0
    degrade_strength: float = 0.9
    region_window: int = 8
    log_floor: float = 1e-5

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @staticmethod
    def from_json(obj: dict) -> "DatasetConfig":
        return DatasetConfig(**obj)


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


def harmonic_profile(pitch: float, score: ScoreSpec) -> np.ndarray:
    """Mel-bin energy template for one note.

    Each of the first 5 harmonics deposits 1/h energy at its nearest mel
    bin, with a short leakage skirt into neighboring bins like a real
    window/filterbank chain would produce (the peak stays at the nearest
    bin).
    """
    centers = mel_center_frequencies(score.n_mels, 0.0, score.sample_rate / 2.0)
    profile = np.zeros(score.n_mels)
    radius = (SPREAD.size - 1) // 2
    for h in range(1, HARMONICS + 1):
        freq = pitch * h
        if freq > score.sample_rate / 2.0:
            break
        center = int(np.argmin(np.abs(centers - freq)))
        for off, w in enumerate(SPREAD):
            b = center + off - radius
            if 0 <= b < score.n_mels:
                profile[b] += w / h
    return profile


def _note_weights(score: ScoreSpec) -> np.ndarray:
    """(n_notes, T) mixing weights with 3-frame linear cross-fades."""
    T = score.total_frames
    n = len(score.notes)
    weights = np.zeros((n, T))
    start = 0
    for j, (_, dur) in enumerate(score.notes):
        weights[j, start : start + dur] = 1.0
        start += dur
    ramp = np.array([0.25, 0.5, 0.75])
    for j, b in enumerate(score.boundaries()):
        weights[j, b - 1 : b + 2] = 1.0 - ramp
        weights[j + 1, b - 1 : b + 2] = ramp
    return weights


def render_mel(score: ScoreSpec, seed) -> MelSpectrogram:
    """Linear-domain harmonic spectrogram with seeded per-frame jitter."""
    rng = np.random.default_rng(seed)
    profiles = np.stack([harmonic_profile(p, score) for p, _ in score.notes])
    data = profiles.T @ _note_weights(score)
    jitter = np.clip(1.0 + 0.05 * rng.standard_normal(score.total_frames), 0.5, None)
    data = data * jitter[None, :]
    return MelSpectrogram(data=data, n_mels=score.n_mels, hop=score.hop, is_log=False)


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
        for t in range(lo, hi):
            tri = 1.0 - abs(t - b) / (SMEAR_REACH + 1.0)
            smear = strength * 0.7 * tri
            col = (1.0 - smear) * data[:, t] + smear * local_avg
            flatten = strength * 0.45 * tri
            col = (1.0 - flatten) * col + flatten * col.mean()
            # mean-preserving log-normal: a local average recovers the
            # clean value, so blurring genuinely de-noises these columns
            sigma = strength * 1.2 * tri
            data[:, t] = col * np.exp(sigma * rng.standard_normal(F) - 0.5 * sigma**2)
    noise = np.clip(1.0 + 0.01 * rng.standard_normal(data.shape), 0.0, None)
    return MelSpectrogram(data=data * noise, n_mels=gt_mel.n_mels, hop=gt_mel.hop, is_log=False)


def true_transition_regions(score: ScoreSpec, w: int) -> TransitionRegionSet:
    """Oracle regions: one w-frame window per interior note boundary."""
    return build_regions(score.boundaries(), w, score.total_frames)


def normalize_f0(f0: np.ndarray, voiced: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance contour over voiced frames; unvoiced set to 0."""
    f0 = np.asarray(f0, dtype=np.float64)
    voiced = np.asarray(voiced, dtype=bool)
    if f0.shape != voiced.shape:
        raise ValueError("f0 and voiced mask must have equal length")
    if voiced.sum() < 2:
        raise ValueError("need at least two voiced frames")
    values = f0[voiced]
    std = values.std()
    if std == 0.0:
        raise ValueError("voiced f0 contour has zero variance")
    out = np.zeros_like(f0)
    out[voiced] = (values - values.mean()) / std
    return out


def score_condition(score: ScoreSpec) -> np.ndarray:
    """(2, T) condition: normalized per-frame F0 plus an all-voiced flag."""
    f0 = np.concatenate([np.full(dur, pitch) for pitch, dur in score.notes])
    voiced = np.ones(score.total_frames, dtype=bool)
    return np.vstack([normalize_f0(f0, voiced), np.ones(score.total_frames)])


def normalize_log_mel(mel: MelSpectrogram, lo: float, hi: float) -> MelSpectrogram:
    """Affinely map log values from [lo, hi] onto [-1, 1]."""
    if not mel.is_log:
        raise ValueError("normalization expects a log-domain spectrogram")
    if hi <= lo:
        raise ValueError("require hi > lo")
    data = 2.0 * (mel.data - lo) / (hi - lo) - 1.0
    return MelSpectrogram(data=data, n_mels=mel.n_mels, hop=mel.hop, is_log=True)


def denormalize_log_mel(mel: MelSpectrogram, lo: float, hi: float) -> MelSpectrogram:
    data = (mel.data + 1.0) / 2.0 * (hi - lo) + lo
    return MelSpectrogram(data=data, n_mels=mel.n_mels, hop=mel.hop, is_log=True)


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
    return ScoreSpec(
        notes=tuple(notes),
        sample_rate=cfg.sample_rate,
        hop=cfg.hop,
        frame=cfg.frame,
        n_mels=cfg.n_mels,
    )


def make_dataset(n: int, seed: int, cfg: DatasetConfig = DatasetConfig()) -> SynthDataset:
    """Generate n samples, deterministic per (seed, index).

    Normalization stats are the min/max of the log-compressed ground
    truths over the whole dataset.
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
        raw.append((score, gt_linear, ref_linear))
    log_mels = [log_compress(gt, cfg.log_floor) for _, gt, _ in raw]
    lo = min(float(m.data.min()) for m in log_mels)
    hi = max(float(m.data.max()) for m in log_mels)
    samples = []
    for (score, _, ref_linear), log_mel in zip(raw, log_mels):
        samples.append(
            SynthSample(
                gt_mel=normalize_log_mel(log_mel, lo, hi),
                ref_mel=ref_linear,
                cond=score_condition(score),
                true_regions=true_transition_regions(score, cfg.region_window),
                score=score,
            )
        )
    return SynthDataset(samples=samples, norm_lo=lo, norm_hi=hi, cfg=cfg, seed=seed)


# --- dataset manifest (JSON lines, one record per sample) ----------------


def write_dataset(dataset: SynthDataset, out_dir) -> str:
    """Write MELS files plus manifest.jsonl; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.jsonl")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        for i, sample in enumerate(dataset.samples):
            gt_name = f"gt_{i:04d}.mels"
            ref_name = f"ref_{i:04d}.mels"
            write_mels(os.path.join(out_dir, gt_name), sample.gt_mel)
            write_mels(os.path.join(out_dir, ref_name), sample.ref_mel)
            record = {
                "index": i,
                "gt": gt_name,
                "ref": ref_name,
                "score": sample.score.to_json(),
                "regions": [[s, e] for s, e in sample.true_regions.regions],
                "region_window": sample.true_regions.window,
                "cond": sample.cond.tolist(),
                "norm": {"lo": dataset.norm_lo, "hi": dataset.norm_hi},
                "dataset_seed": dataset.seed,
                "config": dataset.cfg.to_json(),
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return manifest_path


def load_dataset(manifest_path) -> SynthDataset:
    base = os.path.dirname(os.path.abspath(manifest_path))
    samples = []
    norm = None
    cfg = None
    seed = 0
    with open(manifest_path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            shared = (rec["norm"], rec.get("config"), int(rec.get("dataset_seed", 0)))
            if samples and shared != (norm, cfg, seed):
                raise ValueError(
                    f"mixed manifest {manifest_path}: record {len(samples) + 1} differs from "
                    "the records before it in norm, config or dataset_seed"
                )
            norm, cfg, seed = shared
            score = ScoreSpec.from_json(rec["score"])
            regions = TransitionRegionSet(
                regions=tuple((s, e) for s, e in rec["regions"]),
                window=int(rec.get("region_window", 8)),
                total_frames=score.total_frames,
            )
            samples.append(
                SynthSample(
                    gt_mel=read_mels(os.path.join(base, rec["gt"])),
                    ref_mel=read_mels(os.path.join(base, rec["ref"])),
                    cond=np.asarray(rec["cond"], dtype=np.float64),
                    true_regions=regions,
                    score=score,
                )
            )
    if not samples:
        raise ValueError(f"empty manifest: {manifest_path}")
    return SynthDataset(
        samples=samples,
        norm_lo=float(norm["lo"]),
        norm_hi=float(norm["hi"]),
        cfg=DatasetConfig.from_json(cfg) if cfg else DatasetConfig(),
        seed=seed,
    )
