"""DSP primitives against independent brute-force oracles."""

import math

import numpy as np
import pytest

from refdiff import dsp


def naive_dft_magnitude(segment: np.ndarray) -> np.ndarray:
    """O(n^2) DFT magnitude oracle, positive frequencies only."""
    n = segment.size
    bins = n // 2 + 1
    out = np.zeros(bins)
    for k in range(bins):
        re = sum(segment[j] * math.cos(-2.0 * math.pi * k * j / n) for j in range(n))
        im = sum(segment[j] * math.sin(-2.0 * math.pi * k * j / n) for j in range(n))
        out[k] = math.hypot(re, im)
    return out


def framed_segments(samples: np.ndarray, frame: int, hop: int) -> list[np.ndarray]:
    """Re-derive the documented framing: left reflect pad of frame//2,
    right pad as needed, T = 1 + ceil(len/hop)."""
    n = samples.size
    n_frames = 1 + math.ceil(n / hop)
    left = frame // 2
    right = max(0, (n_frames - 1) * hop + frame - left - n)
    idx = dsp.reflect_indices(n, max(left, right))
    pad = max(left, right)
    padded = samples[idx][pad - left : pad + n + right]
    return [padded[j * hop : j * hop + frame] for j in range(n_frames)]


class TestLoadWav:
    def test_silence_roundtrip(self, tmp_path):
        path = tmp_path / "silence.wav"
        buf = dsp.AudioBuffer(samples=np.zeros(44100), sample_rate=44100)
        dsp.save_wav(path, buf)
        loaded = dsp.load_wav(path)
        assert loaded.sample_rate == 44100
        assert loaded.samples.shape == (44100,)
        assert np.all(loaded.samples == 0.0)

    def test_pcm16_full_scale(self, tmp_path):
        from scipy.io import wavfile

        path = tmp_path / "full.wav"
        wavfile.write(path, 8000, np.full(100, 32767, dtype=np.int16))
        loaded = dsp.load_wav(path)
        np.testing.assert_allclose(loaded.samples, 32767.0 / 32768.0)

    def test_sine_roundtrip_error(self, tmp_path):
        sr = 44100
        t = np.arange(sr) / sr
        sine = 0.5 * np.sin(2.0 * np.pi * 440.0 * t)
        path = tmp_path / "sine.wav"
        dsp.save_wav(path, dsp.AudioBuffer(samples=sine, sample_rate=sr))
        loaded = dsp.load_wav(path)
        assert np.abs(loaded.samples - sine).max() < 1e-4

    def test_float32_passthrough(self, tmp_path):
        sr = 16000
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 1000)
        path = tmp_path / "f32.wav"
        dsp.save_wav(path, dsp.AudioBuffer(samples=x, sample_rate=sr), encoding="float32")
        loaded = dsp.load_wav(path)
        np.testing.assert_allclose(loaded.samples, x.astype(np.float32), atol=0)

    def test_first_channel_of_stereo(self, tmp_path):
        from scipy.io import wavfile

        path = tmp_path / "stereo.wav"
        left = np.arange(100, dtype=np.int16)
        right = -left
        wavfile.write(path, 8000, np.stack([left, right], axis=1))
        loaded = dsp.load_wav(path)
        np.testing.assert_allclose(loaded.samples, left / 32768.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(dsp.UnreadableWavError):
            dsp.load_wav(tmp_path / "nope.wav")

    def test_not_a_wav(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"this is not audio at all, promise")
        with pytest.raises(dsp.UnreadableWavError):
            dsp.load_wav(path)

    @pytest.mark.parametrize("blob", [b"RIFF", b"RIFF\x10\x00\x00\x00WAVEfmt "])
    def test_file_ending_inside_a_chunk_field(self, tmp_path, blob):
        path = tmp_path / "short.wav"
        path.write_bytes(blob)
        with pytest.raises(dsp.UnreadableWavError):
            dsp.load_wav(path)

    def test_unsupported_encoding(self, tmp_path):
        from scipy.io import wavfile

        path = tmp_path / "pcm32.wav"
        wavfile.write(path, 8000, np.arange(50, dtype=np.int32))
        with pytest.raises(dsp.UnsupportedWavEncodingError):
            dsp.load_wav(path)

    def test_zero_length(self, tmp_path):
        from scipy.io import wavfile

        path = tmp_path / "empty.wav"
        wavfile.write(path, 8000, np.zeros(0, dtype=np.int16))
        with pytest.raises(dsp.EmptyAudioError):
            dsp.load_wav(path)


def parent_scaling(data: np.ndarray) -> np.ndarray:
    """The reference ``load_wav`` is held to: ``wavfile.read`` output reduced
    to its first channel, PCM16 / 32768 and float clipped to [-1, 1]."""
    if data.ndim > 1:
        data = data[:, 0]
    if data.dtype == np.int16:
        return data.astype(np.float64) / 32768.0
    return np.clip(data.astype(np.float64), -1.0, 1.0)


class TestWavBytesMatchScipy:
    """The reader and writer against ``scipy.io.wavfile`` as the reference."""

    @pytest.mark.parametrize("frames", [1, 2, 3, 4095, 44100])
    @pytest.mark.parametrize("channels", [1, 2, 3, 4])
    @pytest.mark.parametrize("encoding", ["pcm16", "float32"])
    def test_load_matches_scipy(self, tmp_path, encoding, channels, frames):
        from scipy.io import wavfile

        rng = np.random.default_rng(frames * 10 + channels)
        if encoding == "pcm16":
            data = rng.integers(-32768, 32768, (frames, channels)).astype(np.int16)
        else:
            # beyond [-1, 1] too, so the clip is exercised
            data = rng.uniform(-1.5, 1.5, (frames, channels)).astype(np.float32)
        path = tmp_path / "x.wav"
        wavfile.write(path, 22050, data[:, 0] if channels == 1 else data)
        rate, ref = wavfile.read(path)
        loaded = dsp.load_wav(path)
        assert loaded.sample_rate == rate == 22050
        assert loaded.samples.tobytes() == parent_scaling(ref).tobytes()

    @pytest.mark.parametrize("frames", [1, 2, 3, 4095])
    def test_pcm16_file_matches_scipy_writer(self, tmp_path, frames):
        from scipy.io import wavfile

        x = np.random.default_rng(frames).uniform(-1, 1, frames)
        ours, theirs = tmp_path / "ours.wav", tmp_path / "theirs.wav"
        dsp.save_wav(ours, dsp.AudioBuffer(samples=x, sample_rate=16000))
        pcm = np.clip(np.round(x * 32768.0), -32768, 32767).astype(np.int16)
        wavfile.write(theirs, 16000, pcm)
        assert ours.read_bytes() == theirs.read_bytes()

    @pytest.mark.parametrize("frames", [1, 2, 3, 4095])
    def test_float32_file_reads_back_in_scipy(self, tmp_path, frames):
        from scipy.io import wavfile

        x = np.random.default_rng(frames).uniform(-1, 1, frames)
        path = tmp_path / "f32.wav"
        dsp.save_wav(path, dsp.AudioBuffer(samples=x, sample_rate=16000), encoding="float32")
        rate, data = wavfile.read(path)
        assert rate == 16000
        assert data.dtype == np.float32 and data.tobytes() == x.astype(np.float32).tobytes()
        assert len(path.read_bytes()) == 44 + 4 * frames


def index_matrix_stft(samples, frame, hop, win):
    """The framing ``stft_magnitude`` used before it took strided windows:
    a (T, frame) index matrix gathered from the padded signal."""
    n = samples.size
    n_frames = 1 + math.ceil(n / hop)
    left = frame // 2
    right = max(0, (n_frames - 1) * hop + frame - left - n)
    pad = max(left, right)
    padded = samples[dsp.reflect_indices(n, pad)][pad - left : pad + n + right]
    offsets = hop * np.arange(n_frames)[:, None] + np.arange(frame)[None, :]
    return np.abs(np.fft.rfft(padded[offsets] * win[None, :], axis=1)).T


def per_filter_mel_weights(sample_rate, n_fft_bins, n_mels, fmin=0.0, fmax=None):
    """The per-filter loop ``mel_filterbank`` used before it broadcast
    all triangles at once."""
    if fmax is None:
        fmax = sample_rate / 2.0
    edges_hz = dsp.mel_to_hz(np.linspace(dsp.hz_to_mel(fmin), dsp.hz_to_mel(fmax), n_mels + 2))
    edges_bin = edges_hz / ((sample_rate / 2.0) / (n_fft_bins - 1))
    bins = np.arange(n_fft_bins, dtype=np.float64)
    weights = np.zeros((n_mels, n_fft_bins))
    for m in range(n_mels):
        lo, center, hi = edges_bin[m], edges_bin[m + 1], edges_bin[m + 2]
        lo = min(lo, center - 1.0)
        hi = max(hi, center + 1.0)
        rising = (bins - lo) / (center - lo)
        falling = (hi - bins) / (hi - center)
        weights[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    return weights


class TestStft:
    @pytest.mark.parametrize(
        "n, frame, hop",
        [(2048, 512, 128), (1000, 256, 100), (37, 4, 2), (300, 64, 16), (300, 64, 64),
         (10, 512, 128), (1, 8, 3), (44100, 512, 128)],
    )
    @pytest.mark.parametrize("window", ["hann", "rect"])
    def test_bytes_match_index_matrix_framing(self, n, frame, hop, window):
        samples = np.random.default_rng(n).uniform(-1, 1, n)
        buf = dsp.AudioBuffer(samples=samples, sample_rate=16000)
        win = dsp._make_window(window, frame)
        got = dsp.stft_magnitude(buf, frame=frame, hop=hop, window=window)
        want = index_matrix_stft(samples, frame, hop, win)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_zero_signal_zero_magnitudes(self):
        buf = dsp.AudioBuffer(samples=np.zeros(2048), sample_rate=16000)
        mags = dsp.stft_magnitude(buf, frame=512, hop=128, window="hann")
        assert mags.shape[0] == 257
        assert np.all(mags == 0.0)

    def test_frame_count_contract(self):
        buf = dsp.AudioBuffer(samples=np.zeros(1000), sample_rate=8000)
        mags = dsp.stft_magnitude(buf, frame=256, hop=100, window="hann")
        assert mags.shape[1] == 1 + math.ceil(1000 / 100)

    def test_bin_center_sine_rectangular(self):
        # one pristine frame sits at column frame//2/hop when hop | frame//2
        sr, frame, hop, k = 16000, 512, 128, 32
        t = np.arange(frame) / sr
        freq = k * sr / frame
        buf = dsp.AudioBuffer(samples=0.9 * np.sin(2.0 * np.pi * freq * t), sample_rate=sr)
        mags = dsp.stft_magnitude(buf, frame=frame, hop=hop, window="rect")
        col = mags[:, frame // 2 // hop]
        peak = col[k]
        others = np.delete(col, k)
        assert others.max() < 1e-6 * peak

    def test_matches_naive_dft(self):
        rng = np.random.default_rng(7)
        samples = rng.uniform(-1, 1, 37)
        buf = dsp.AudioBuffer(samples=samples, sample_rate=8000)
        frame, hop = 4, 2
        mags = dsp.stft_magnitude(buf, frame=frame, hop=hop, window="rect")
        segs = framed_segments(samples, frame, hop)
        assert mags.shape[1] == len(segs)
        for j, seg in enumerate(segs):
            oracle = naive_dft_magnitude(seg)
            np.testing.assert_allclose(mags[:, j], oracle, rtol=0, atol=1e-6 * max(oracle.max(), 1.0))

    def test_impulse_frame4(self):
        samples = np.zeros(16)
        samples[0] = 1.0
        buf = dsp.AudioBuffer(samples=samples, sample_rate=8000)
        mags = dsp.stft_magnitude(buf, frame=4, hop=2, window="rect")
        for j, seg in enumerate(framed_segments(samples, 4, 2)):
            np.testing.assert_allclose(mags[:, j], naive_dft_magnitude(seg), atol=1e-12)

    def test_hann_matches_naive_dft(self):
        rng = np.random.default_rng(11)
        samples = rng.uniform(-1, 1, 300)
        buf = dsp.AudioBuffer(samples=samples, sample_rate=8000)
        frame, hop = 64, 16
        mags = dsp.stft_magnitude(buf, frame=frame, hop=hop, window="hann")
        win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame) / frame)
        segs = framed_segments(samples, frame, hop)
        j = len(segs) // 2
        oracle = naive_dft_magnitude(segs[j] * win)
        np.testing.assert_allclose(mags[:, j], oracle, rtol=0, atol=1e-6 * max(oracle.max(), 1.0))

    def test_rejects_bad_framing(self):
        buf = dsp.AudioBuffer(samples=np.zeros(100), sample_rate=8000)
        with pytest.raises(ValueError):
            dsp.stft_magnitude(buf, frame=64, hop=128, window="hann")


class TestMelFilterbank:
    @pytest.mark.parametrize(
        "sample_rate, n_fft_bins, n_mels, fmin, fmax",
        [(16000, 257, 2, 0.0, 8000.0), (44100, 257, 80, 0.0, None), (16000, 257, 40, 0.0, 8000.0),
         (44100, 257, 80, 30.0, 12000.0), (22050, 513, 80, 0.0, None), (16000, 33, 40, 0.0, None),
         (8000, 33, 12, 100.0, 3000.0)],
    )
    def test_bytes_match_per_filter_loop(self, sample_rate, n_fft_bins, n_mels, fmin, fmax):
        fb = dsp.mel_filterbank(sample_rate, n_fft_bins, n_mels=n_mels, fmin=fmin, fmax=fmax)
        want = per_filter_mel_weights(sample_rate, n_fft_bins, n_mels, fmin, fmax)
        assert fb.shape == want.shape and fb.tobytes() == want.tobytes()

    def test_two_band_shape(self):
        fb = dsp.mel_filterbank(16000, 257, n_mels=2, fmin=0.0, fmax=8000.0)
        assert fb.shape == (2, 257)

    def test_finite_and_nonneg(self):
        fb = dsp.mel_filterbank(44100, 257, n_mels=80, fmin=0.0, fmax=None)
        assert np.all(np.isfinite(fb))
        assert fb.min() >= 0.0
        assert np.all(fb.sum(axis=1) > 0.0)

    def test_centers_match_formula(self):
        got = dsp.mel_center_frequencies(40, 0.0, 8000.0)
        mel_pts = np.linspace(0.0, 2595.0 * np.log10(1.0 + 8000.0 / 700.0), 42)
        centers = 700.0 * (10.0 ** (mel_pts[1:-1] / 2595.0) - 1.0)
        np.testing.assert_allclose(got, centers, rtol=1e-12)
        assert np.argmin(np.abs(got - 440.0)) == np.argmin(np.abs(centers - 440.0))

    def test_centers_inside_bounds(self):
        centers = dsp.mel_center_frequencies(80, 30.0, 12000.0)
        assert centers.min() >= 30.0
        assert centers.max() <= 12000.0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            dsp.mel_filterbank(16000, 257, n_mels=10, fmin=5000.0, fmax=1000.0)
        with pytest.raises(ValueError):
            dsp.mel_filterbank(16000, 257, n_mels=10, fmin=0.0, fmax=9000.0)


class TestMelSpectrogram:
    CFG = dsp.MelConfig(frame=512, hop=128, n_mels=40, fmax=8000.0)

    def test_silence(self):
        buf = dsp.AudioBuffer(samples=np.zeros(16000), sample_rate=16000)
        mel = dsp.mel_spectrogram(buf, self.CFG)
        assert mel.data.max() <= 1e-12
        assert not mel.is_log

    def test_sine_argmax_band(self):
        sr = 16000
        t = np.arange(sr) / sr
        buf = dsp.AudioBuffer(samples=0.8 * np.sin(2.0 * np.pi * 440.0 * t), sample_rate=sr)
        mel = dsp.mel_spectrogram(buf, self.CFG)
        centers = dsp.mel_center_frequencies(40, 0.0, 8000.0)
        expected = int(np.argmin(np.abs(centers - 440.0)))
        interior = range(2, (sr - 256) // 128)
        hits = sum(int(np.argmax(mel.data[:, j]) == expected) for j in interior)
        assert hits / len(list(interior)) >= 0.95

    def test_two_tone_band_switch(self):
        sr = 16000
        t = np.arange(sr // 2) / sr
        tone1 = 0.8 * np.sin(2.0 * np.pi * 440.0 * t)
        tone2 = 0.8 * np.sin(2.0 * np.pi * 880.0 * t)
        buf = dsp.AudioBuffer(samples=np.concatenate([tone1, tone2]), sample_rate=sr)
        mel = dsp.mel_spectrogram(buf, self.CFG)
        centers = dsp.mel_center_frequencies(40, 0.0, 8000.0)
        b440 = int(np.argmin(np.abs(centers - 440.0)))
        b880 = int(np.argmin(np.abs(centers - 880.0)))
        argmax = np.argmax(mel.data, axis=0)
        splice = (sr // 2) // 128
        assert np.all(argmax[splice - 10 : splice - 2] == b440)
        assert np.all(argmax[splice + 3 : splice + 10] == b880)
        switches = np.nonzero(np.diff((argmax6 := argmax[splice - 10 : splice + 10]) >= b880))[0]
        assert switches.size >= 1
        switch_frame = splice - 10 + int(switches[0]) + 1
        assert abs(switch_frame - splice) <= 2

    def test_nonneg_finite(self):
        rng = np.random.default_rng(3)
        buf = dsp.AudioBuffer(samples=rng.uniform(-1, 1, 4000), sample_rate=16000)
        mel = dsp.mel_spectrogram(buf, self.CFG)
        assert np.all(np.isfinite(mel.data))
        assert mel.data.min() >= 0.0


class TestLogCompress:
    def test_floor_value(self):
        mel = dsp.MelSpectrogram(data=np.full((2, 2), 1e-5), hop=128)
        out = dsp.log_compress(mel, floor=1e-5)
        np.testing.assert_allclose(out.data, np.log(1e-5))
        assert out.is_log

    def test_unit_value(self):
        mel = dsp.MelSpectrogram(data=np.ones((2, 2)), hop=128)
        out = dsp.log_compress(mel, floor=1e-5)
        np.testing.assert_allclose(out.data, 0.0)

    def test_monotone(self):
        data = np.linspace(0.0, 5.0, 24).reshape(4, 6)
        mel = dsp.MelSpectrogram(data=data, hop=128)
        out = dsp.log_compress(mel, 1e-5)
        flat = out.data.reshape(-1)
        assert np.all(np.diff(flat) >= 0.0)

    def test_double_compress_rejected(self):
        mel = dsp.MelSpectrogram(data=np.ones((2, 2)), hop=128)
        out = dsp.log_compress(mel, 1e-5)
        with pytest.raises(ValueError):
            dsp.log_compress(out, 1e-5)


class TestGaussianKernel:
    def test_size_one(self):
        k = dsp.gaussian_kernel(size=1, sigma=2.0)
        np.testing.assert_allclose(k, [1.0])

    def test_uniform_limit(self):
        k = dsp.gaussian_kernel(size=3, sigma=1e6)
        np.testing.assert_allclose(k, [1 / 3, 1 / 3, 1 / 3], atol=1e-6)

    def test_size5_shape(self):
        k = dsp.gaussian_kernel(size=5, sigma=1.0)
        assert abs(k.sum() - 1.0) <= 1e-9
        np.testing.assert_allclose(k, k[::-1])
        assert np.argmax(k) == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            dsp.gaussian_kernel(size=4)
        with pytest.raises(ValueError):
            dsp.gaussian_kernel(size=-3)
        with pytest.raises(ValueError):
            dsp.gaussian_kernel(size=5, sigma=0.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be"):
            dsp.gaussian_kernel(size=5, sigma=sigma)


def brute_blur_2d(data: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Direct 2-D convolution with the separable kernel and reflect padding."""
    F, T = data.shape
    r = (len(taps) - 1) // 2
    kernel2d = np.outer(taps, taps)

    def reflect(i, n):
        i %= 2 * n
        return i if i < n else 2 * n - 1 - i

    out = np.zeros_like(data)
    for f in range(F):
        for t in range(T):
            acc = 0.0
            for df in range(-r, r + 1):
                for dt in range(-r, r + 1):
                    acc += kernel2d[df + r, dt + r] * data[reflect(f + df, F), reflect(t + dt, T)]
            out[f, t] = acc
    return out


class TestGaussianBlur2d:
    def test_constant_unchanged(self):
        mel = dsp.MelSpectrogram(data=np.full((6, 10), 3.5), hop=128)
        out = dsp.gaussian_blur_2d(mel, dsp.gaussian_kernel(5, 1.0), (2, 8))
        np.testing.assert_allclose(out.data, 3.5, atol=1e-9)

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        mel = dsp.MelSpectrogram(data=rng.uniform(0, 1, (5, 9)), hop=128)
        out = dsp.gaussian_blur_2d(mel, dsp.gaussian_kernel(1, 1.0), (0, 9))
        assert np.array_equal(out.data, mel.data)

    def test_impulse_matches_bruteforce(self):
        data = np.zeros((5, 5))
        data[2, 2] = 1.0
        mel = dsp.MelSpectrogram(data=data, hop=128)
        kernel = dsp.gaussian_kernel(3, 1.0)
        out = dsp.gaussian_blur_2d(mel, kernel, (0, 5))
        np.testing.assert_allclose(out.data, brute_blur_2d(data, kernel), atol=1e-12)

    def test_random_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        data = rng.uniform(0, 2, (7, 11))
        mel = dsp.MelSpectrogram(data=data, hop=128)
        kernel = dsp.gaussian_kernel(5, 1.3)
        out = dsp.gaussian_blur_2d(mel, kernel, (0, 11))
        np.testing.assert_allclose(out.data, brute_blur_2d(data, kernel), atol=1e-12)

    def test_outside_columns_bit_identical(self):
        rng = np.random.default_rng(1)
        data = rng.uniform(0, 1, (6, 12))
        mel = dsp.MelSpectrogram(data=data, hop=128)
        out = dsp.gaussian_blur_2d(mel, dsp.gaussian_kernel(5, 1.0), (3, 7))
        assert np.array_equal(out.data[:, :3], data[:, :3])
        assert np.array_equal(out.data[:, 7:], data[:, 7:])
        assert not np.array_equal(out.data[:, 3:7], data[:, 3:7])

    def test_range_reflection_is_local(self):
        # blur of a sub-range must not read columns outside the range
        rng = np.random.default_rng(2)
        data = rng.uniform(0, 1, (4, 10))
        mel = dsp.MelSpectrogram(data=data, hop=128)
        kernel = dsp.gaussian_kernel(3, 1.0)
        out = dsp.gaussian_blur_2d(mel, kernel, (4, 7))
        sub = dsp.MelSpectrogram(data=data[:, 4:7].copy(), hop=128)
        sub_blur = dsp.gaussian_blur_2d(sub, kernel, (0, 3))
        np.testing.assert_allclose(out.data[:, 4:7], sub_blur.data, atol=0)

    def test_energy_conservation_with_margin(self):
        # constant margin of kernel radius around range borders conserves sum
        rng = np.random.default_rng(4)
        data = np.full((8, 20), 2.0)
        data[:, 8:12] = rng.uniform(0, 4, (8, 4))
        mel = dsp.MelSpectrogram(data=data, hop=128)
        out = dsp.gaussian_blur_2d(mel, dsp.gaussian_kernel(5, 1.0), (6, 14))
        before = data[:, 6:14].sum()
        after = out.data[:, 6:14].sum()
        assert abs(after - before) <= 1e-6 * abs(before)

    def test_output_within_input_bounds(self):
        rng = np.random.default_rng(9)
        data = rng.uniform(0.2, 3.0, (6, 15))
        mel = dsp.MelSpectrogram(data=data, hop=128)
        out = dsp.gaussian_blur_2d(mel, dsp.gaussian_kernel(5, 2.0), (0, 15))
        assert out.data.min() >= data.min() - 1e-12
        assert out.data.max() <= data.max() + 1e-12

    def test_bad_range(self):
        mel = dsp.MelSpectrogram(data=np.ones((3, 5)), hop=128)
        kernel = dsp.gaussian_kernel(3, 1.0)
        with pytest.raises(ValueError):
            dsp.gaussian_blur_2d(mel, kernel, (3, 3))
        with pytest.raises(ValueError):
            dsp.gaussian_blur_2d(mel, kernel, (0, 6))


class TestMelsFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.uniform(0, 5, (13, 29)).astype(np.float32).astype(np.float64)
        mel = dsp.MelSpectrogram(data=data, hop=256, is_log=False)
        path = tmp_path / "x.mels"
        dsp.write_mels(path, mel)
        back = dsp.read_mels(path)
        assert np.array_equal(back.data, data)
        assert back.hop == 256 and back.n_mels == 13 and back.is_log is False

    def test_write_read_write_idempotent(self, tmp_path):
        rng = np.random.default_rng(2)
        mel = dsp.MelSpectrogram(
            data=rng.standard_normal((5, 7)), hop=128, is_log=True
        )
        p1, p2 = tmp_path / "a.mels", tmp_path / "b.mels"
        dsp.write_mels(p1, mel)
        dsp.write_mels(p2, dsp.read_mels(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_log_flag_roundtrip(self, tmp_path):
        mel = dsp.MelSpectrogram(data=-np.ones((2, 2)), hop=64, is_log=True)
        path = tmp_path / "log.mels"
        dsp.write_mels(path, mel)
        assert dsp.read_mels(path).is_log

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.mels"
        path.write_bytes(b"nope")
        with pytest.raises(ValueError):
            dsp.read_mels(path)

    @pytest.mark.parametrize("header_T, extra", [(6, b""), (8, b""), (7, b"\0"), (7, b"\0" * 4)])
    def test_rejects_payload_not_matching_header(self, tmp_path, header_T, extra):
        # a smaller T would read the rows misaligned, a larger one past the end
        path = tmp_path / "x.mels"
        dsp.write_mels(path, dsp.MelSpectrogram(data=np.ones((5, 7)), hop=128))
        raw = bytearray(path.read_bytes() + extra)
        raw[12:16] = header_T.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="MELS payload of"):
            dsp.read_mels(path)
