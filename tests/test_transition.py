"""Transition detector: each sub-step against a naive loop implementation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refdiff import dsp, synthgen, transition
from refdiff.synthgen import DatasetConfig, degrade_reference, render_mel


def brute_band_energies(data):
    F, T = data.shape
    split = F // 2
    low = np.zeros(T)
    high = np.zeros(T)
    for f in range(split):
        for t in range(T):
            low[t] += data[f, t]
    for f in range(split, F):
        for t in range(T):
            high[t] += data[f, t]
    return low, high


def brute_smooth(ratio, k):
    T = ratio.size
    r = (k - 1) // 2

    def reflect(i):
        i %= 2 * T
        return i if i < T else 2 * T - 1 - i

    out = np.zeros(T)
    for t in range(T):
        acc = 0.0
        for i in range(-r, r + 1):
            acc += ratio[reflect(t + i)]
        out[t] = acc / k
    return out


def brute_sign_points(smoothed, mean):
    signs = [1 if v - mean >= 0.0 else -1 for v in smoothed]
    return [t for t in range(1, len(signs)) if signs[t] != signs[t - 1]]


def linear_mel(data, hop=128):
    return dsp.MelSpectrogram(data=np.asarray(data, dtype=np.float64), hop=hop)


class TestBandEnergies:
    def test_uniform(self):
        mel = linear_mel(np.ones((4, 3)))
        low, high = transition.band_energies(mel)
        np.testing.assert_array_equal(low, [2, 2, 2])
        np.testing.assert_array_equal(high, [2, 2, 2])

    def test_energy_only_in_first_bin(self):
        data = np.zeros((80, 5))
        data[0] = 1.0
        low, high = transition.band_energies(linear_mel(data))
        assert np.all(high == 0.0)
        assert np.all(low == 1.0)

    def test_matches_bruteforce_exactly(self):
        # values over 16 decades make any other summation order show; at
        # T = 1 or in F order np.add.reduce sums a band pairwise, not in order
        for shape in [(6, 4), (80, 1), (80, 37), (161, 1), (161, 37)]:
            rng = np.random.default_rng(shape[0] + shape[1])
            data = 10.0 ** rng.uniform(-8.0, 8.0, shape)
            if shape[1] > 1:
                data[:, -1] = -0.0  # an all -0.0 band sums to +0.0, as from np.zeros
            for order in "CF":
                data = np.asarray(data, order=order)
                low, high = transition.band_energies(linear_mel(data))
                blow, bhigh = brute_band_energies(data)
                assert low.tobytes() == blow.tobytes(), (shape, order)
                assert high.tobytes() == bhigh.tobytes(), (shape, order)

    def test_odd_bin_count_split(self):
        data = np.arange(15, dtype=np.float64).reshape(5, 3)
        low, high = transition.band_energies(linear_mel(data))
        blow, bhigh = brute_band_energies(data)
        assert np.array_equal(low, blow)
        assert np.array_equal(high, bhigh)

    def test_rejects_log_input(self):
        mel = dsp.MelSpectrogram(data=-np.ones((4, 3)), hop=128, is_log=True)
        with pytest.raises(ValueError):
            transition.band_energies(mel)


class TestEnergyRatio:
    def test_equal_bands(self):
        out = transition.energy_ratio(np.array([2.0, 2.0]), np.array([2.0, 2.0]), eps=1e-6)
        np.testing.assert_allclose(out, 2.0 / (2.0 + 1e-6))

    def test_zero_denominator_guard(self):
        out = transition.energy_ratio(np.array([0.0]), np.array([5.0]), eps=1e-6)
        np.testing.assert_allclose(out, 5e6)

    def test_zero_numerator(self):
        out = transition.energy_ratio(np.array([3.0, 1.0]), np.zeros(2), eps=1e-6)
        assert np.all(out == 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            transition.energy_ratio(np.zeros(3), np.zeros(4), eps=1e-6)


class TestSmoothRatio:
    def test_k1_identity(self):
        r = np.array([1.0, 5.0, 2.0])
        assert np.array_equal(transition.smooth_ratio(r, 1), r)

    def test_constant_unchanged(self):
        r = np.full(10, 3.3)
        np.testing.assert_allclose(transition.smooth_ratio(r, 5), 3.3)

    def test_hand_evaluated_impulse(self):
        r = np.array([0.0, 0.0, 3.0, 0.0, 0.0])
        np.testing.assert_array_equal(transition.smooth_ratio(r, 3), [0, 1, 1, 1, 0])

    def test_matches_bruteforce_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            T = int(rng.integers(2, 30))
            k = int(rng.choice([1, 3, 5, 7, 9]))
            if k > 2 * T - 1:
                continue
            r = rng.uniform(0, 4, T)
            assert transition.smooth_ratio(r, k).tobytes() == brute_smooth(r, k).tobytes()
        for T in (1, 2, 5, 30):  # the widest kernel, k = 2T - 1
            r = rng.uniform(0, 4, T)
            assert transition.smooth_ratio(r, 2 * T - 1).tobytes() == brute_smooth(r, 2 * T - 1).tobytes()

    def test_even_k_rejected(self):
        with pytest.raises(ValueError):
            transition.smooth_ratio(np.zeros(5), 4)

    def test_k_bound(self):
        with pytest.raises(ValueError):
            transition.smooth_ratio(np.zeros(3), 7)


def series_from(smoothed):
    return np.asarray(smoothed, dtype=np.float64)


class TestDetectTransitionPoints:
    def test_single_crossing(self):
        assert transition.detect_transition_points(series_from([1, 1, 3, 3])) == [2]

    def test_constant_series(self):
        assert transition.detect_transition_points(series_from([2, 2, 2, 2])) == []

    def test_alternating(self):
        # mean 1.8: signs -,+,-,+,- -> four changes
        assert transition.detect_transition_points(series_from([1, 3, 1, 3, 1])) == [1, 2, 3, 4]

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            T = int(rng.integers(2, 40))
            s = rng.uniform(0, 2, T)
            series = series_from(s)
            assert transition.detect_transition_points(series) == brute_sign_points(
                s, series.mean()
            )

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        s = rng.uniform(0, 1, 25)
        base = transition.detect_transition_points(series_from(s))
        for a, b in [(2.0, 0.0), (0.5, 1.0), (7.3, -2.0)]:
            scaled = transition.detect_transition_points(series_from(a * s + b))
            assert scaled == base

    @given(st.lists(st.floats(0.0, 100.0), min_size=2, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_point_count_bound(self, values):
        points = transition.detect_transition_points(series_from(values))
        assert len(points) <= len(values) - 1
        assert all(1 <= p < len(values) for p in points)


class TestTransitionCentres:
    def test_short_bump_is_one_centre(self):
        # above the mean on frames 5..14: rise at 5, fall at 15
        values = [0.0] * 5 + [1.0] * 10 + [0.0] * 15
        series = series_from(values)
        assert transition.detect_transition_points(series) == [5, 15]
        assert transition.transition_centres(series, 8) == [10]

    def test_bump_longer_than_two_windows_keeps_both_crossings(self):
        values = [0.0] * 5 + [1.0] * 17 + [0.0] * 15
        assert transition.transition_centres(series_from(values), 8) == [5, 22]
        assert transition.transition_centres(series_from(values), 9) == [13]

    def test_dip_below_mean_is_not_paired(self):
        values = [1.0] * 5 + [0.0] * 4 + [1.0] * 15
        assert transition.transition_centres(series_from(values), 8) == [5, 9]

    def test_lone_crossing_kept(self):
        assert transition.transition_centres(series_from([1, 1, 3, 3]), 8) == [2]

    def test_regions_cover_the_oracle_regions(self):
        # windows on the centres, not on the raw crossings, land on the
        # note boundaries of degraded references
        from refdiff import synthgen

        det = orc = both = 0
        for s in synthgen.make_dataset(16, seed=0):
            _, regions = transition.analyze(s.ref_mel)
            got = regions.covers()
            want = s.true_regions.covers()
            det += int(got.sum())
            orc += int(want.sum())
            both += int((got & want).sum())
        assert both / orc >= 0.65 and both / det >= 0.65


class TestBuildRegions:
    def test_centered_window(self):
        rset = transition.build_regions([10], 4, 100)
        assert rset.regions == ((8, 12),)

    def test_clamped_at_zero(self):
        rset = transition.build_regions([2], 8, 100)
        assert rset.regions == ((0, 6),)

    def test_merge_overlapping(self):
        rset = transition.build_regions([10, 13], 6, 100)
        assert rset.regions == ((7, 16),)

    def test_merge_adjacent(self):
        rset = transition.build_regions([10, 14], 4, 100)
        assert rset.regions == ((8, 16),)

    def test_matches_interval_merge_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            T = int(rng.integers(20, 200))
            pts = sorted(set(rng.integers(0, T, size=rng.integers(1, 12)).tolist()))
            w = int(rng.integers(1, 12))
            rset = transition.build_regions(pts, w, T)
            # oracle: paint a mask, read off maximal runs
            mask = np.zeros(T, dtype=bool)
            for p in pts:
                mask[max(0, p - w // 2) : min(T, p + (w - w // 2))] = True
            runs = []
            start = None
            for i, m in enumerate(mask):
                if m and start is None:
                    start = i
                if not m and start is not None:
                    runs.append((start, i))
                    start = None
            if start is not None:
                runs.append((start, T))
            assert list(rset.regions) == runs

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            transition.build_regions([5, 3], 4, 10)

    def test_region_set_checks_its_points_first(self):
        # a region report's points are checked as build_regions' are,
        # before its (here out-of-bounds) regions
        for points in ((5, 3), (-1,), (10,)):
            with pytest.raises(ValueError, match="points"):
                transition.TransitionRegionSet(regions=((0, 99),), points=points, total_frames=10)

    def test_disjoint_after_merge(self):
        rset = transition.build_regions([1, 2, 3, 9, 40], 6, 50)
        ends = [e for _, e in rset.regions]
        starts = [s for s, _ in rset.regions]
        assert all(starts[i + 1] > ends[i] for i in range(len(starts) - 1))


class TestBlurRegions:
    def test_empty_region_set_identity(self):
        rng = np.random.default_rng(5)
        mel = linear_mel(rng.uniform(0, 1, (6, 10)))
        empty = transition.TransitionRegionSet(regions=(), points=(), total_frames=10)
        out = transition.blur_regions(mel, empty, dsp.gaussian_kernel(5, 1.0))
        assert np.array_equal(out.data, mel.data)

    def test_constant_unchanged(self):
        mel = linear_mel(np.full((6, 12), 1.7))
        rset = transition.build_regions([3, 9], 4, 12)
        out = transition.blur_regions(mel, rset, dsp.gaussian_kernel(5, 1.0))
        np.testing.assert_allclose(out.data, 1.7, atol=1e-9)

    def test_impulse_matches_bruteforce(self):
        from test_dsp import brute_blur_2d

        data = np.zeros((7, 20))
        data[3, 10] = 2.0
        mel = linear_mel(data)
        rset = transition.build_regions([10], 6, 20)
        kernel = dsp.gaussian_kernel(3, 1.0)
        out = transition.blur_regions(mel, rset, kernel)
        start, end = rset.regions[0]
        oracle = brute_blur_2d(data[:, start:end], kernel)
        np.testing.assert_allclose(out.data[:, start:end], oracle, atol=1e-12)
        assert np.array_equal(out.data[:, :start], data[:, :start])
        assert np.array_equal(out.data[:, end:], data[:, end:])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dataset_bytes_equal_per_region_loop(self, seed):
        from test_dsp import per_range_blur

        taps = dsp.gaussian_kernel()
        blurred_any = False
        for item in synthgen.make_dataset(16, seed):
            _, rset = transition.analyze(item.ref_mel)
            blurred_any |= bool(rset.regions)
            for mel in (item.ref_mel, dsp.log_compress(item.ref_mel, item.cfg.log_floor)):
                out = transition.blur_regions(mel, rset, taps)
                assert out.data.tobytes() == per_range_blur(mel.data, taps, rset.regions).tobytes()
        assert blurred_any

    def test_frame_count_mismatch(self):
        mel = linear_mel(np.ones((4, 8)))
        rset = transition.build_regions([3], 4, 9)
        with pytest.raises(ValueError):
            transition.blur_regions(mel, rset, dsp.gaussian_kernel(3, 1.0))


class TestWeightMap:
    def test_no_regions_all_ones(self):
        empty = transition.TransitionRegionSet(regions=(), points=(), total_frames=6)
        wm = transition.weight_map(empty, 3, 2.0)
        assert np.all(wm.data == 1.0)

    def test_full_coverage(self):
        rset = transition.TransitionRegionSet(regions=((0, 6),), points=(2, 4), total_frames=6)
        wm = transition.weight_map(rset, 3, 2.0)
        assert np.all(wm.data == 2.0)

    def test_columns(self):
        rset = transition.TransitionRegionSet(regions=((3, 5),), points=(4,), total_frames=6)
        wm = transition.weight_map(rset, 2, 2.0)
        assert np.all(wm.data[:, 3:5] == 2.0)
        assert np.all(np.delete(wm.data, [3, 4], axis=1) == 1.0)

    def test_mean_bound(self):
        rset = transition.build_regions([4], 4, 10)
        assert transition.weight_map(rset, 2, 1.0).data.mean() == 1.0
        assert transition.weight_map(rset, 2, 3.0).data.mean() > 1.0

    def test_lambda_below_one_rejected(self):
        empty = transition.TransitionRegionSet(regions=(), points=(), total_frames=6)
        with pytest.raises(ValueError):
            transition.weight_map(empty, 2, 0.5)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bytes_match_per_region_loop(self, seed):
        # oracle and detected regions of real items, against a loop that
        # writes lambda_in over each region's columns of a ones array
        for item in synthgen.make_dataset(8, seed):
            for regions in (item.true_regions, transition.analyze(item.ref_mel)[1]):
                want = np.ones((item.score.n_mels, regions.total_frames))
                for start, end in regions.regions:
                    want[:, start:end] = 2.5
                got = transition.weight_map(regions, item.score.n_mels, 2.5).data
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert got.flags.c_contiguous


class TestAnalyze:
    def test_silence_no_regions(self):
        mel = linear_mel(np.zeros((8, 30)))
        _, regions = transition.analyze(mel)
        eps = transition.TransitionConfig().eps
        assert np.all(transition.energy_ratio(*transition.band_energies(mel), eps) == 0.0)
        assert regions.regions == ()

    def test_two_note_gt_single_region(self):
        # low note then high note: ratio steps through its mean once
        score = DatasetConfig().score(((220.0, 40), (880.0, 40)))
        mel = render_mel(score, seed=0)
        _, regions = transition.analyze(mel)
        assert len(regions.regions) == 1
        start, end = regions.regions[0]
        assert start <= 40 < end

    def test_degraded_reference_recall(self):
        rng = np.random.default_rng(6)
        hits = total = 0
        for case in range(8):
            notes = []
            prev = None
            for _ in range(int(rng.integers(3, 7))):
                semi = int(rng.integers(0, 44))
                while semi == prev:
                    semi = int(rng.integers(0, 44))
                prev = semi
                notes.append((80.0 * 2 ** (semi / 12.0), int(rng.integers(10, 30))))
            score = DatasetConfig().score(tuple(notes))
            gt = render_mel(score, seed=case)
            ref = degrade_reference(gt, score, strength=0.9, seed=case + 100)
            series, _ = transition.analyze(ref)
            points = transition.detect_transition_points(series)
            for b in score.boundaries():
                total += 1
                hits += int(any(abs(p - b) <= 8 for p in points))
        assert hits / total >= 0.9

    def test_regions_carry_their_centres(self):
        # detected regions keep the centres analyze found, oracle regions
        # the note boundaries
        for s in synthgen.make_dataset(4, seed=0):
            for w in (4, 8):
                series, regions = transition.analyze(s.ref_mel, transition.TransitionConfig(window_w=w))
                assert regions.points == tuple(transition.transition_centres(series, w))
            assert s.true_regions.points == tuple(s.score.boundaries())

    def test_finite_on_random_input(self):
        rng = np.random.default_rng(7)
        mel = linear_mel(rng.uniform(0, 1, (4, 16)))
        smoothed, regions = transition.analyze(mel)
        eps = transition.TransitionConfig().eps
        assert np.all(np.isfinite(transition.energy_ratio(*transition.band_energies(mel), eps)))
        assert np.all(np.isfinite(smoothed))
        assert regions.total_frames == 16

    def test_returns_the_smoothed_ratio(self):
        rng = np.random.default_rng(8)
        mel = linear_mel(rng.uniform(0, 1, (6, 40)))
        for cfg in (transition.TransitionConfig(), transition.TransitionConfig(smooth_k=3, eps=1e-3)):
            smoothed, _ = transition.analyze(mel, cfg)
            ratio = transition.energy_ratio(*transition.band_energies(mel), cfg.eps)
            assert smoothed.tobytes() == transition.smooth_ratio(ratio, cfg.smooth_k).tobytes()


class TestRegionReport:
    def test_schema_fields(self):
        mel = linear_mel(np.random.default_rng(0).uniform(0, 1, (8, 40)))
        cfg = transition.TransitionConfig()
        series, regions = transition.analyze(mel, cfg)
        report = transition.region_report(regions, 128, cfg, 2.0)
        assert report["points"] == transition.transition_centres(series, cfg.window_w)
        assert report["total_frames"] == 40
        assert report["hop"] == 128
        assert report["params"] == {"k": 9, "w": 8, "eps": 1e-6, "lambda": 2.0}
        for s, e in report["regions"]:
            assert 0 <= s < e <= 40
