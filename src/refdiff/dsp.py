"""Audio ingestion and spectrogram primitives.

WAV reading, STFT magnitudes, mel filterbanks, log compression and
range-restricted Gaussian blur.  Everything downstream works on the
``MelSpectrogram`` container defined here, and the "MELS" binary format
used by the CLI and dataset tooling lives here too.

All functions are pure: they never mutate their inputs and hold no
hidden state, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile


class WavError(ValueError):
    """Base class for WAV ingestion failures."""


class UnreadableWavError(WavError):
    """File is missing, truncated, or not a RIFF/WAVE container."""


class UnsupportedWavEncodingError(WavError):
    """WAV sample encoding other than PCM16 or IEEE float32."""


class EmptyAudioError(WavError):
    """WAV file contains zero samples."""


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio in [-1, 1] at a fixed sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if samples.size and (samples.min() < -1.0 or samples.max() > 1.0):
            raise ValueError("samples must lie in [-1, 1]")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")


@dataclass(frozen=True)
class MelSpectrogram:
    """F x T matrix of mel-band values.

    ``is_log`` distinguishes linear (non-negative) energies from
    log-compressed (possibly negative) values; operations that rely on
    non-negativity check the flag.
    """

    data: np.ndarray
    n_mels: int
    hop: int
    is_log: bool = False

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", data)
        if data.ndim != 2:
            raise ValueError("data must be a 2-D matrix")
        if data.shape[0] != self.n_mels:
            raise ValueError("row count must equal n_mels")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError("spectrogram must have at least one bin and one frame")
        if not np.all(np.isfinite(data)):
            raise ValueError("spectrogram entries must be finite")
        if not self.is_log and data.min() < 0.0:
            raise ValueError("linear-domain spectrogram entries must be >= 0")
        if self.hop <= 0:
            raise ValueError("hop must be positive")

    @property
    def n_frames(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class MelFilterbank:
    """Triangular mel filterbank mapping FFT magnitude bins to mel bands."""

    weights: np.ndarray
    center_freqs: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        centers = np.asarray(self.center_freqs, dtype=np.float64)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "center_freqs", centers)
        if weights.ndim != 2 or centers.ndim != 1:
            raise ValueError("weights must be 2-D and center_freqs 1-D")
        if weights.shape[0] != centers.size:
            raise ValueError("one center frequency per filter row required")
        if weights.min() < 0.0:
            raise ValueError("filter weights must be non-negative")
        if np.any(weights.sum(axis=1) == 0.0):
            raise ValueError("every filter row needs at least one nonzero entry")
        if np.any(np.diff(centers) <= 0.0):
            raise ValueError("center frequencies must be strictly increasing")


@dataclass(frozen=True)
class GaussianKernel:
    """Odd-length normalized Gaussian taps for separable blurring."""

    taps: np.ndarray
    sigma: float

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64)
        object.__setattr__(self, "taps", taps)
        if taps.ndim != 1 or taps.size % 2 == 0:
            raise ValueError("taps must be a 1-D odd-length sequence")
        if taps.min() <= 0.0:
            raise ValueError("taps must be positive")
        if abs(taps.sum() - 1.0) > 1e-9:
            raise ValueError("taps must sum to 1")
        if not np.allclose(taps, taps[::-1], rtol=0.0, atol=1e-12):
            raise ValueError("taps must be symmetric about the center")


@dataclass(frozen=True)
class MelConfig:
    """Framing and filterbank settings for mel_spectrogram."""

    frame: int = 512
    hop: int = 128
    n_mels: int = 80
    fmin: float = 0.0
    fmax: float | None = None  # defaults to Nyquist
    window: str = "hann"


def load_wav(path) -> AudioBuffer:
    """Read a PCM16 or IEEE float32 RIFF/WAVE file as mono audio.

    Multichannel files keep only the first channel.  PCM16 samples are
    scaled by 1/32768; float samples are clipped to [-1, 1].  A file
    that ends before the length its header or its data chunk gives is
    unreadable.
    """
    try:
        with open(path, "rb") as fh, warnings.catch_warnings():
            _check_data_chunks(fh)
            # scipy only warns when the file ends before the size its header
            # gives, and returns the shortened audio; other warnings pass
            warnings.filterwarnings("error", "Reached EOF prematurely", wavfile.WavFileWarning)
            sample_rate, data = wavfile.read(fh)
    except FileNotFoundError:
        raise UnreadableWavError(f"cannot open WAV file: {path}") from None
    except Exception as exc:
        # scipy's parser raises more than ValueError on a malformed file:
        # struct.error or EOFError when it ends inside a chunk field,
        # ZeroDivisionError for zero channels, UnboundLocalError when the
        # RIFF size ends before the data chunk; the EOF warning raised above
        # and the ValueError of a short data chunk
        raise UnreadableWavError(f"not a readable WAV file: {path} ({exc})") from None
    if data.ndim > 1:
        data = data[:, 0]
    if data.size == 0:
        raise EmptyAudioError(f"WAV file contains no samples: {path}")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.float32:
        samples = np.clip(data.astype(np.float64), -1.0, 1.0)
    else:
        raise UnsupportedWavEncodingError(
            f"unsupported WAV encoding {data.dtype}; expected PCM16 or float32"
        )
    return AudioBuffer(samples=samples, sample_rate=int(sample_rate))


def _check_data_chunks(fh) -> None:
    """Raise ValueError if a data chunk declares more bytes than follow it.

    scipy stops at the RIFF size, which a cut file may have had rewritten
    to match.  This walks the chunk headers (a 4-byte id, a u32 size, a
    pad byte after an odd-sized chunk) to the end of the file; a file
    that is not RIFF/WAVE is left to scipy.
    """
    head = fh.read(12)
    if head[:4] == b"RIFF" and head[8:] == b"WAVE":
        file_size = os.fstat(fh.fileno()).st_size
        pos = 12
        while pos + 8 <= file_size:
            chunk = fh.read(8)
            (size,) = struct.unpack("<I", chunk[4:])
            pos += 8
            if chunk[:4] == b"data" and size > file_size - pos:
                raise ValueError(f"data chunk declares {size} bytes, {file_size - pos} follow")
            pos += size + (size & 1)
            fh.seek(pos)
    fh.seek(0)


def save_wav(path, audio: AudioBuffer, encoding: str = "pcm16") -> None:
    """Write an AudioBuffer as PCM16 or float32 WAV (test/CLI helper)."""
    if encoding == "pcm16":
        data = np.clip(np.round(audio.samples * 32768.0), -32768, 32767).astype(np.int16)
    elif encoding == "float32":
        data = audio.samples.astype(np.float32)
    else:
        raise ValueError(f"unknown encoding: {encoding}")
    wavfile.write(path, audio.sample_rate, data)


def reflect_indices(n: int, pad: int) -> np.ndarray:
    """Index vector for half-sample symmetric reflection of length n with
    `pad` extra positions on each side: ...x1, x0 | x0...x_{n-1} | x_{n-1}...

    This is the padding used by every convolution in the package.  Edge
    samples repeat, so a normalized symmetric kernel redistributes each
    sample's full weight back inside the axis and sums are conserved.
    """
    if n < 1:
        raise ValueError("cannot reflect an empty axis")
    pos = np.arange(-pad, n + pad)
    m = np.mod(pos, 2 * n)
    return np.where(m < n, m, 2 * n - 1 - m)


def reflect_conv1d(arr: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """Convolve one axis with symmetric taps under reflect padding.

    Accumulates tap-by-tap in index order so results are reproducible
    against a naive double-loop evaluation.
    """
    arr = np.asarray(arr, dtype=np.float64)
    k = len(taps)
    radius = (k - 1) // 2
    idx = reflect_indices(arr.shape[axis], radius)
    padded = np.take(arr, idx, axis=axis)
    n = arr.shape[axis]
    out = np.zeros_like(arr)
    mover = np.moveaxis(padded, axis, 0)
    target = np.moveaxis(out, axis, 0)
    for i in range(k):
        target += taps[i] * mover[i : i + n]
    return out


def stft_magnitude(
    audio: AudioBuffer,
    frame: int = 512,
    hop: int = 128,
    window: str = "hann",
) -> np.ndarray:
    """Magnitude STFT with centered, reflect-padded framing.

    Frames are laid out so that T = 1 + ceil(len/hop): the signal is
    reflect-padded by frame//2 on the left (and as needed on the right)
    and frame j covers padded[j*hop : j*hop + frame].  Returns an
    (frame//2 + 1) x T matrix of magnitudes.
    """
    if frame < 1 or hop < 1 or frame < hop:
        raise ValueError("require frame >= hop >= 1")
    x = audio.samples
    n = x.size
    if n == 0:
        raise ValueError("cannot compute STFT of empty audio")
    win = _make_window(window, frame)
    n_frames = 1 + math.ceil(n / hop)
    left = frame // 2
    right = max(0, (n_frames - 1) * hop + frame - left - n)
    idx = reflect_indices(n, max(left, right))
    pad_total = max(left, right)
    padded = x[idx][pad_total - left : pad_total + n + right]
    offsets = hop * np.arange(n_frames)[:, None] + np.arange(frame)[None, :]
    frames = padded[offsets] * win[None, :]
    return np.abs(np.fft.rfft(frames, axis=1)).T


def _make_window(window: str, frame: int) -> np.ndarray:
    if window == "hann":
        # periodic Hann, the standard analysis taper
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame) / frame)
    if window == "rect":
        return np.ones(frame)
    raise ValueError(f"unknown window: {window}")


def hz_to_mel(freq_hz):
    """HTK mel scale: 2595 * log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mels):
    return 700.0 * (10.0 ** (np.asarray(mels, dtype=np.float64) / 2595.0) - 1.0)


def mel_center_frequencies(n_mels: int, fmin: float, fmax: float) -> np.ndarray:
    """Center frequencies (Hz) of n_mels bands mel-spaced over [fmin, fmax]."""
    if not (0.0 <= fmin < fmax):
        raise ValueError("require 0 <= fmin < fmax")
    pts = np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2)
    return mel_to_hz(pts[1:-1])


def mel_filterbank(
    sample_rate: int,
    n_fft_bins: int,
    n_mels: int = 80,
    fmin: float = 0.0,
    fmax: float | None = None,
) -> MelFilterbank:
    """Triangular filters with mel-spaced centers over [fmin, fmax].

    Triangles are evaluated in fractional-FFT-bin space with a minimum
    half-width of one bin, so every filter keeps support even where the
    mel grid is finer than the FFT grid (low bands at coarse FFT sizes).
    """
    if fmax is None:
        fmax = sample_rate / 2.0
    if not (0.0 <= fmin < fmax <= sample_rate / 2.0):
        raise ValueError("require 0 <= fmin < fmax <= sample_rate/2")
    if n_mels < 2:
        raise ValueError("n_mels must be >= 2")
    edges_mel = np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2)
    edges_hz = mel_to_hz(edges_mel)
    bin_hz = (sample_rate / 2.0) / (n_fft_bins - 1)
    edges_bin = edges_hz / bin_hz
    bins = np.arange(n_fft_bins, dtype=np.float64)
    weights = np.zeros((n_mels, n_fft_bins))
    for m in range(n_mels):
        lo, center, hi = edges_bin[m], edges_bin[m + 1], edges_bin[m + 2]
        lo = min(lo, center - 1.0)
        hi = max(hi, center + 1.0)
        rising = (bins - lo) / (center - lo)
        falling = (hi - bins) / (hi - center)
        weights[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    return MelFilterbank(weights=weights, center_freqs=edges_hz[1:-1])


def mel_spectrogram(audio: AudioBuffer, cfg: MelConfig = MelConfig()) -> MelSpectrogram:
    """Linear-domain mel spectrogram: filterbank applied to STFT magnitudes."""
    mags = stft_magnitude(audio, frame=cfg.frame, hop=cfg.hop, window=cfg.window)
    fb = mel_filterbank(
        audio.sample_rate,
        n_fft_bins=mags.shape[0],
        n_mels=cfg.n_mels,
        fmin=cfg.fmin,
        fmax=cfg.fmax,
    )
    return MelSpectrogram(data=fb.weights @ mags, n_mels=cfg.n_mels, hop=cfg.hop, is_log=False)


def log_compress(mel: MelSpectrogram, floor: float = 1e-5) -> MelSpectrogram:
    """Entry-wise natural log of max(value, floor)."""
    if mel.is_log:
        raise ValueError("spectrogram is already log-compressed")
    if floor <= 0.0:
        raise ValueError("floor must be positive")
    return MelSpectrogram(
        data=np.log(np.maximum(mel.data, floor)),
        n_mels=mel.n_mels,
        hop=mel.hop,
        is_log=True,
    )


def gaussian_kernel(size: int = 5, sigma: float = 1.0) -> GaussianKernel:
    """Normalized Gaussian taps: taps[i] proportional to exp(-(i-c)^2 / 2 sigma^2)."""
    if size < 1 or size % 2 == 0:
        raise ValueError("size must be a positive odd integer")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    center = (size - 1) / 2.0
    offsets = np.arange(size) - center
    taps = np.exp(-(offsets**2) / (2.0 * sigma**2))
    taps /= taps.sum()
    return GaussianKernel(taps=taps, sigma=sigma)


def gaussian_blur_2d(
    mel: MelSpectrogram,
    kernel: GaussianKernel,
    frame_range: tuple[int, int],
) -> MelSpectrogram:
    """Separable Gaussian blur restricted to frames [start, end).

    The selected columns are blurred along time then frequency with
    reflect padding at both the matrix borders and the range borders;
    columns outside the range are copied through bit-identically.
    """
    start, end = frame_range
    T = mel.n_frames
    if not (0 <= start < end <= T):
        raise ValueError(f"frame range [{start}, {end}) out of bounds for T={T}")
    out = mel.data.copy()
    sub = out[:, start:end]
    sub = reflect_conv1d(sub, kernel.taps, axis=1)
    sub = reflect_conv1d(sub, kernel.taps, axis=0)
    out[:, start:end] = sub
    return MelSpectrogram(data=out, n_mels=mel.n_mels, hop=mel.hop, is_log=mel.is_log)


# --- MELS binary format -------------------------------------------------
#
#   magic "MELS" | u32 version=1 | u32 F | u32 T | u32 hop | u8 is_log |
#   F*T little-endian float32, row-major (frequency-major)

MELS_MAGIC = b"MELS"
MELS_VERSION = 1
_MELS_HEADER = struct.Struct("<4sIIIIB")


def write_mels(path, mel: MelSpectrogram) -> None:
    data32 = np.ascontiguousarray(mel.data, dtype="<f4")
    header = _MELS_HEADER.pack(
        MELS_MAGIC, MELS_VERSION, mel.data.shape[0], mel.data.shape[1], mel.hop, int(mel.is_log)
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data32.tobytes())


def read_mels(path) -> MelSpectrogram:
    with open(path, "rb") as fh:
        raw = fh.read(_MELS_HEADER.size)
        if len(raw) < _MELS_HEADER.size:
            raise ValueError(f"truncated MELS header: {path}")
        magic, version, n_mels, n_frames, hop, is_log = _MELS_HEADER.unpack(raw)
        if magic != MELS_MAGIC:
            raise ValueError(f"not a MELS file: {path}")
        if version != MELS_VERSION:
            raise ValueError(f"unsupported MELS version {version}: {path}")
        # checked against the file size first: a hostile F x T must not
        # make the read allocate it
        if os.fstat(fh.fileno()).st_size - _MELS_HEADER.size < 4 * n_mels * n_frames:
            raise ValueError(f"truncated MELS payload: {path}")
        payload = fh.read(4 * n_mels * n_frames)
    data = np.frombuffer(payload, dtype="<f4").reshape(n_mels, n_frames)
    return MelSpectrogram(
        data=data.astype(np.float64), n_mels=n_mels, hop=hop, is_log=bool(is_log)
    )
