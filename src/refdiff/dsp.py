"""Audio ingestion and spectrogram primitives.

WAV reading, STFT magnitudes, mel filterbanks, log compression and
range-restricted Gaussian blur.  Everything downstream works on the
``MelSpectrogram`` container defined here, and the "MELS" binary format
used by the CLI and dataset tooling lives here too.

All functions are pure: they never mutate their inputs, so values can
be shared freely across threads.  The one state held is the small cache
of ``mel_filterbank``, whose filterbanks are read-only.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class WavError(ValueError):
    """A WAV file that cannot be read: missing, truncated, not a RIFF/WAVE
    container, in an encoding other than PCM16 or IEEE float32, or empty."""


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
    """F x T matrix of mel-band values: ``n_mels`` is F and ``n_frames`` T.

    ``is_log`` distinguishes linear (non-negative) energies from
    log-compressed (possibly negative) values; operations that rely on
    non-negativity check the flag.
    """

    data: np.ndarray
    hop: int
    is_log: bool = False

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", data)
        if data.ndim != 2:
            raise ValueError("data must be a 2-D matrix")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError("spectrogram must have at least one bin and one frame")
        if not np.all(np.isfinite(data)):
            raise ValueError("spectrogram entries must be finite")
        if not self.is_log and data.min() < 0.0:
            raise ValueError("linear-domain spectrogram entries must be >= 0")
        if self.hop <= 0:
            raise ValueError("hop must be positive")

    @property
    def n_mels(self) -> int:
        return self.data.shape[0]

    @property
    def n_frames(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class MelConfig:
    """Framing and filterbank settings for mel_spectrogram."""

    frame: int = 512
    hop: int = 128
    n_mels: int = 80
    fmax: float | None = None  # defaults to Nyquist


_WAV_ENCODINGS = {(1, 16): np.dtype("<i2"), (3, 32): np.dtype("<f4")}  # (format tag, bits)
# WAVE_FORMAT_EXTENSIBLE's subformat GUID is a u32 format tag, then this tail
_SUBFORMAT_TAIL = bytes.fromhex("00001000800000aa00389b71")


def load_wav(path) -> AudioBuffer:
    """Read a little-endian RIFF/WAVE file as mono audio: the first channel of
    its whole frames of PCM16 (scaled by 1/32768) or IEEE float32 (clipped to
    [-1, 1]), plain or as the WAVE_FORMAT_EXTENSIBLE subformat.  One chunk walk
    up to the RIFF size reads ``fmt `` and stops at the first ``data``.  Raises
    WavError on a file that cannot be opened, a malformed field, any other
    encoding or no samples."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise WavError(f"cannot open WAV file: {path} ({exc.strerror})") from None

    def unreadable(why: str) -> WavError:
        return WavError(f"not a readable WAV file: {path} ({why})")

    end = 8 + int.from_bytes(raw[4:8], "little")
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE" or end > len(raw):
        raise unreadable(f"no RIFF/WAVE header whose size fits the {len(raw)}-byte file")
    fmt, pos = None, 12
    while pos + 8 <= end:
        chunk_id, size = struct.unpack_from("<4sI", raw, pos)
        pos += 8
        if chunk_id in (b"fmt ", b"data") and size > len(raw) - pos:
            raise unreadable(f"{chunk_id.decode()} chunk declares {size} bytes, {len(raw) - pos} follow")
        if chunk_id == b"data":
            break
        if chunk_id == b"fmt ":
            if size < 16:
                raise unreadable(f"fmt chunk of {size} bytes, fewer than 16")
            fmt = list(struct.unpack_from("<HHIIHH", raw, pos))
            if fmt[0] == 0xFFFE and size >= 40 and raw[pos + 28 : pos + 40] == _SUBFORMAT_TAIL:
                fmt[0] = struct.unpack_from("<I", raw, pos + 24)[0]
        pos += size + (size & 1)
    else:
        raise unreadable("no data chunk")
    if fmt is None:
        raise unreadable("no fmt chunk before the data chunk")
    tag, channels, rate, byte_rate, block_align, bits = fmt
    dtype = _WAV_ENCODINGS.get((tag, bits))
    if dtype is None:
        raise WavError(f"WAV format {tag}, {bits} bits, not PCM16/float32: {path}")
    if not 0 < block_align == channels * dtype.itemsize or not 0 < byte_rate == rate * block_align:
        raise unreadable(f"{channels} channels, {block_align}-byte blocks, {byte_rate} B/s at {rate} Hz")
    first = np.frombuffer(raw, dtype, size // block_align * channels, pos)[::channels].astype(float)
    if first.size == 0:
        raise WavError(f"WAV file contains no samples: {path}")
    if np.isnan(first).any():
        raise unreadable("NaN sample")
    scaled = first / 32768.0 if dtype.kind == "i" else np.clip(first, -1.0, 1.0)
    return AudioBuffer(samples=scaled, sample_rate=rate)


def save_wav(path, audio: AudioBuffer, encoding: str = "pcm16") -> None:
    """Write mono audio as PCM16 (scaled by 32768, rounded and clipped) or
    IEEE float32 WAV with the canonical 44-byte header (test/CLI helper)."""
    if encoding == "pcm16":
        tag, data = 1, np.clip(np.round(audio.samples * 32768.0), -32768, 32767).astype("<i2")
    elif encoding == "float32":
        tag, data = 3, audio.samples.astype("<f4")
    else:
        raise ValueError(f"unknown encoding: {encoding}")
    rate, width = audio.sample_rate, data.itemsize
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + data.nbytes, b"WAVE", b"fmt ", 16,
                             tag, 1, rate, rate * width, width, 8 * width, b"data", data.nbytes))
        fh.write(data.tobytes())


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


def reflect_conv1d(arr: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Convolve along axis 0 with symmetric taps under reflect padding;
    to convolve another axis, pass the transposed array.

    Accumulates tap-by-tap in index order so results are reproducible
    against a naive double-loop evaluation.
    """
    arr = np.asarray(arr, dtype=np.float64)
    n = arr.shape[0]
    padded = arr[reflect_indices(n, (len(taps) - 1) // 2)]
    out = np.zeros_like(arr)
    for i in range(len(taps)):
        out += taps[i] * padded[i : i + n]
    return out


def stft_magnitude(
    audio: AudioBuffer,
    frame: int,
    hop: int,
    window: str,
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
    pad = max(left, right)
    padded = x[reflect_indices(n, pad)][pad - left : pad + n + right]
    frames = sliding_window_view(padded, frame)[::hop][:n_frames] * win[None, :]
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


@functools.lru_cache(maxsize=16)
def mel_filterbank(
    sample_rate: int,
    n_fft_bins: int,
    n_mels: int,
    fmin: float,
    fmax: float | None,
) -> np.ndarray:
    """Triangular filters with mel-spaced centers over [fmin, fmax] (None
    for Nyquist), as an n_mels x n_fft_bins weight matrix.  It is built
    once per argument tuple and read-only, because every caller shares it.

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
    # one row per filter, one column per FFT bin
    center = edges_bin[1:-1, None]
    lo = np.minimum(edges_bin[:-2, None], center - 1.0)
    hi = np.maximum(edges_bin[2:, None], center + 1.0)
    rising = (bins - lo) / (center - lo)
    falling = (hi - bins) / (hi - center)
    weights = np.clip(np.minimum(rising, falling), 0.0, None)
    weights.flags.writeable = False
    return weights


def mel_spectrogram(audio: AudioBuffer, cfg: MelConfig = MelConfig()) -> MelSpectrogram:
    """Linear-domain mel spectrogram: filters from 0 Hz applied to Hann STFT magnitudes."""
    mags = stft_magnitude(audio, frame=cfg.frame, hop=cfg.hop, window="hann")
    weights = mel_filterbank(audio.sample_rate, mags.shape[0], cfg.n_mels, 0.0, cfg.fmax)
    return MelSpectrogram(data=weights @ mags, hop=cfg.hop, is_log=False)


def log_compress(mel: MelSpectrogram, floor: float) -> MelSpectrogram:
    """Entry-wise natural log of max(value, floor)."""
    if mel.is_log:
        raise ValueError("spectrogram is already log-compressed")
    if floor <= 0.0:
        raise ValueError("floor must be positive")
    return MelSpectrogram(
        data=np.log(np.maximum(mel.data, floor)),
        hop=mel.hop,
        is_log=True,
    )


def gaussian_kernel(size: int = 5, sigma: float = 1.0) -> np.ndarray:
    """Normalized Gaussian taps for separable blurring: an odd number of
    positive, symmetric taps, taps[i] proportional to exp(-(i-c)^2 / 2 sigma^2)."""
    if size < 1 or size % 2 == 0:
        raise ValueError("size must be a positive odd integer")
    if not math.isfinite(sigma) or sigma <= 0.0:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    center = (size - 1) / 2.0
    offsets = np.arange(size) - center
    # with a tiny sigma, offsets / sigma overflows to inf off the centre and
    # those taps are 0; the centre tap is always 1, so the sum never is
    with np.errstate(over="ignore"):
        taps = np.exp(-((offsets / sigma) ** 2) / 2.0)
    taps /= taps.sum()
    if not np.all(taps > 0.0):
        raise ValueError(f"sigma {sigma} is too small for {size} taps: they underflow")
    return taps


def gaussian_blur_2d(
    mel: MelSpectrogram,
    taps: np.ndarray,
    *frame_ranges: tuple[int, int],
) -> MelSpectrogram:
    """Separable Gaussian blur with ``gaussian_kernel`` taps, restricted
    to each of the sorted, disjoint frame ranges [start, end).

    Each range's columns are blurred along time then frequency with
    reflect padding at both the matrix borders and that range's own
    borders, exactly as ``reflect_conv1d`` would: the time pass is
    ``reflect_conv1d`` on the range's transposed columns, the frequency
    pass ``reflect_conv1d`` along axis 0 of the result.  Columns outside
    every range are copied through bit-identically.
    Raises ValueError on a range out of bounds, empty, or starting before
    the previous one ends.

    All ranges share one pass: their reflect-padded columns are gathered
    side by side, the time taps accumulate in tap order over that strip,
    and one ``reflect_conv1d`` runs along frequency (axis 0).
    """
    T = mel.n_frames
    prev_end = 0
    for start, end in frame_ranges:
        if not (0 <= start < end <= T):
            raise ValueError(f"frame range [{start}, {end}) out of bounds for T={T}")
        if start < prev_end:
            raise ValueError(f"frame range [{start}, {end}) starts before the previous one ends at {prev_end}")
        prev_end = end
    out = mel.data.copy()
    if frame_ranges:
        radius = (len(taps) - 1) // 2
        padded = [start + reflect_indices(end - start, radius) for start, end in frame_ranges]
        strip = mel.data[:, np.concatenate(padded)]
        width = strip.shape[1] - 2 * radius
        blurred = np.zeros((mel.n_mels, width))
        for i in range(len(taps)):
            blurred += taps[i] * strip[:, i : i + width]
        # column c is centred on strip column c + radius: each range's columns
        # come out side by side, with the 2 * radius columns that straddle two
        # ranges between them
        blurred = reflect_conv1d(blurred, taps)
        offset = 0
        for start, end in frame_ranges:
            out[:, start:end] = blurred[:, offset : offset + end - start]
            offset += end - start + 2 * radius
    return MelSpectrogram(data=out, hop=mel.hop, is_log=mel.is_log)


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
        # make the read allocate it, and a smaller one would misalign the rows
        size, need = os.fstat(fh.fileno()).st_size - _MELS_HEADER.size, 4 * n_mels * n_frames
        if size != need:
            raise ValueError(
                f"MELS payload of {size} bytes, its {n_mels} x {n_frames} header needs {need}: {path}"
            )
        payload = fh.read(need)
    data = np.frombuffer(payload, dtype="<f4").reshape(n_mels, n_frames)
    return MelSpectrogram(
        data=data.astype(np.float64), hop=hop, is_log=bool(is_log)
    )
