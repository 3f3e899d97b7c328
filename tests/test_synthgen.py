"""Synthetic data factory: determinism, oracle regions, degradation locality."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from refdiff import synthgen, transition
from refdiff.dsp import mel_center_frequencies


def two_note_score(p1=220.0, d1=20, p2=440.0, d2=20):
    return synthgen.DatasetConfig().score(((p1, d1), (p2, d2)))


class TestScoreSpec:
    def test_boundaries(self):
        score = synthgen.DatasetConfig().score(((200.0, 10), (300.0, 10), (250.0, 5)))
        assert score.boundaries() == [10, 20]
        assert score.total_frames == 25

    def test_pitch_bounds(self):
        with pytest.raises(ValueError):
            synthgen.DatasetConfig().score(((50.0, 10),))
        with pytest.raises(ValueError):
            synthgen.DatasetConfig().score(((1200.0, 10),))

    def test_duration_bound(self):
        with pytest.raises(ValueError):
            synthgen.DatasetConfig().score(((200.0, 3),))


class TestRenderMel:
    def test_single_note_stationary_argmax(self):
        score = synthgen.DatasetConfig().score(((300.0, 30),))
        mel = synthgen.render_mel(score, seed=0)
        argmax = np.argmax(mel.data, axis=0)
        assert np.all(argmax == argmax[0])

    def test_octave_jump_argmax_increases(self):
        score = two_note_score(220.0, 20, 440.0, 20)
        mel = synthgen.render_mel(score, seed=1)
        argmax = np.argmax(mel.data, axis=0)
        before = argmax[:15]
        after = argmax[25:]
        assert np.all(before == before[0])
        assert np.all(after == after[0])
        assert after[0] > before[0]

    def test_seed_determinism(self):
        score = two_note_score()
        a = synthgen.render_mel(score, seed=7)
        b = synthgen.render_mel(score, seed=7)
        assert np.array_equal(a.data, b.data)
        c = synthgen.render_mel(score, seed=8)
        assert not np.array_equal(a.data, c.data)

    def test_fundamental_bin_positive_every_frame(self):
        score = two_note_score()
        mel = synthgen.render_mel(score, seed=2)
        centers = mel_center_frequencies(score.n_mels, 0.0, score.sample_rate / 2.0)
        for pitch, lo, hi in ((220.0, 0, 20), (440.0, 20, 40)):
            bin_idx = int(np.argmin(np.abs(centers - pitch)))
            assert np.all(mel.data[bin_idx, lo:hi] > 0.0)

    def test_linear_domain(self):
        mel = synthgen.render_mel(two_note_score(), seed=3)
        assert not mel.is_log
        assert mel.data.min() >= 0.0
        assert np.all(np.isfinite(mel.data))


class TestDegradeReference:
    def test_strength_zero_is_noise_floor_only(self):
        score = two_note_score()
        gt = synthgen.render_mel(score, seed=0)
        ref = synthgen.degrade_reference(gt, score, strength=0.0, seed=1)
        rel = np.abs(ref.data - gt.data)
        # 1% multiplicative noise: bounded by ~5 sigma of 1% per entry
        assert np.all(rel <= 0.06 * np.maximum(gt.data, 1e-12))

    def test_defects_localized_at_boundary(self):
        score = two_note_score(220.0, 20, 660.0, 20)
        gt = synthgen.render_mel(score, seed=0)
        ref = synthgen.degrade_reference(gt, score, strength=1.0, seed=2)
        diff = np.sqrt(((ref.data - gt.data) ** 2).mean(axis=0))
        boundary_rms = diff[18:23].mean()
        interior_rms = np.concatenate([diff[2:12], diff[28:38]]).mean()
        assert boundary_rms > interior_rms

    def test_far_from_boundary_within_noise(self):
        score = two_note_score(220.0, 20, 660.0, 20)
        gt = synthgen.render_mel(score, seed=0)
        ref = synthgen.degrade_reference(gt, score, strength=1.0, seed=3)
        clean = np.r_[0:15, 26:40]
        rel = np.abs(ref.data[:, clean] - gt.data[:, clean])
        assert np.all(rel <= 0.06 * np.maximum(gt.data[:, clean], 1e-12))

    def test_determinism(self):
        score = two_note_score()
        gt = synthgen.render_mel(score, seed=0)
        a = synthgen.degrade_reference(gt, score, strength=0.5, seed=9)
        b = synthgen.degrade_reference(gt, score, strength=0.5, seed=9)
        assert np.array_equal(a.data, b.data)

    def test_strength_bounds(self):
        score = two_note_score()
        gt = synthgen.render_mel(score, seed=0)
        with pytest.raises(ValueError):
            synthgen.degrade_reference(gt, score, strength=1.5)


class TestTrueRegions:
    """The oracle regions of a score: one window per interior note boundary."""

    @staticmethod
    def oracle(score, w):
        return transition.build_regions(score.boundaries(), w, score.total_frames)

    def test_single_note_empty(self):
        score = synthgen.DatasetConfig().score(((200.0, 30),))
        assert self.oracle(score, 4).regions == ()

    def test_two_notes_centered(self):
        score = synthgen.DatasetConfig().score(((200.0, 10), (300.0, 10)))
        assert self.oracle(score, 4).regions == ((8, 12),)

    def test_many_notes_cover_all_boundaries(self):
        rng = np.random.default_rng(0)
        notes = tuple(
            (float(rng.uniform(100, 900)), int(rng.integers(5, 20))) for _ in range(6)
        )
        score = synthgen.DatasetConfig().score(notes)
        mask = self.oracle(score, 6).covers()
        for b in score.boundaries():
            assert mask[b] or (b == score.total_frames)

    def test_sample_carries_its_scores_oracle_regions(self):
        dataset = synthgen.make_dataset(3, 0, synthgen.DatasetConfig(region_window=6))
        for s in dataset:
            assert s.true_regions == self.oracle(s.score, 6)


class TestNormalizeF0:
    """The F0 row of score_condition: the per-frame pitch at zero mean and unit variance."""

    def test_two_point(self):
        out = synthgen.score_condition(synthgen.DatasetConfig().score(((100.0, 4), (300.0, 4))))
        np.testing.assert_allclose(out[0], [-1.0] * 4 + [1.0] * 4)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            synthgen.score_condition(synthgen.DatasetConfig().score(((200.0, 5),)))

    def test_moments(self):
        rng = np.random.default_rng(1)
        notes = tuple((float(rng.uniform(100, 800)), int(rng.integers(4, 9))) for _ in range(50))
        out = synthgen.score_condition(synthgen.DatasetConfig().score(notes))[0]
        assert abs(out.mean()) < 1e-9
        assert abs(out.var() - 1.0) < 1e-9


class TestMakeDataset:
    def test_determinism(self):
        a = synthgen.make_dataset(2, seed=5)
        b = synthgen.make_dataset(2, seed=5)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.gt_mel.data, sb.gt_mel.data)
            assert np.array_equal(sa.ref_mel.data, sb.ref_mel.data)
            assert np.array_equal(sa.cond, sb.cond)
            assert sa.score == sb.score

    def test_per_index_determinism(self):
        a = synthgen.make_dataset(3, seed=5)
        # samples are a deterministic function of (seed, index): regenerating a
        # larger dataset reproduces earlier items' scores and raw contents
        b = synthgen.make_dataset(5, seed=5)
        for i in range(3):
            assert a[i].score == b[i].score
            assert np.array_equal(a[i].ref_mel.data, b[i].ref_mel.data)

    def test_invariants(self):
        ds = synthgen.make_dataset(6, seed=1)
        assert ds.norm_hi > ds.norm_lo
        for s in ds:
            T = s.score.total_frames
            assert s.gt_mel.is_log and not s.ref_mel.is_log
            assert s.gt_mel.n_frames == T == s.ref_mel.n_frames == s.cond.shape[1]
            assert s.gt_mel.data.min() >= -1.0 - 1e-12
            assert s.gt_mel.data.max() <= 1.0 + 1e-12
            assert 3 <= len(s.score.notes) <= 8
            assert all(8 <= d <= 40 for _, d in s.score.notes)
            assert all(
                s.score.notes[i][0] != s.score.notes[i + 1][0]
                for i in range(len(s.score.notes) - 1)
            )

    def test_detection_recall_against_oracle(self):
        ds = synthgen.make_dataset(16, seed=0)
        hits = total = 0
        for s in ds:
            series, _ = transition.analyze(s.ref_mel)
            points = transition.detect_transition_points(series)
            for b in s.score.boundaries():
                total += 1
                hits += int(any(abs(p - b) <= 8 for p in points))
        assert hits / total >= 0.9


    def test_holds_little_beyond_what_it_returns(self):
        # until the normalization stats are known each item keeps its log
        # ground truth and reference, the two arrays it returns; keeping
        # the linear ground truth and the normalized copy too ran to 1.8x
        tracemalloc.start()
        try:
            dataset = synthgen.make_dataset(16, 0)
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(dataset) == 16
        assert peak <= 1.25 * live


class TestNormalization:
    def test_roundtrip(self):
        ds = synthgen.make_dataset(1, seed=3)
        mel = ds[0].gt_mel
        back = synthgen.denormalize_log_mel(mel, ds.norm_lo, ds.norm_hi)
        again = synthgen.normalize_log_mel(back, ds.norm_lo, ds.norm_hi)
        np.testing.assert_allclose(again.data, mel.data, atol=1e-12)

    def test_rejects_linear(self):
        ds = synthgen.make_dataset(1, seed=3)
        with pytest.raises(ValueError):
            synthgen.normalize_log_mel(ds[0].ref_mel, 0.0, 1.0)


class TestManifest:
    def test_write_load_roundtrip(self, tmp_path):
        for seed in range(3):
            ds = synthgen.make_dataset(16, seed=seed)
            manifest = synthgen.write_dataset(ds, tmp_path / str(seed))
            back = synthgen.load_dataset(manifest)
            assert len(back) == 16
            assert (back.norm_lo, back.norm_hi, back.cfg, back.seed) == (ds.norm_lo, ds.norm_hi, ds.cfg, seed)
            for orig, loaded in zip(ds, back):
                assert loaded.score == orig.score
                assert loaded.true_regions == orig.true_regions
                assert loaded.cond.tobytes() == orig.cond.tobytes()
                # MELS stores float32: loading reproduces the cast exactly
                for x, y in ((orig.gt_mel, loaded.gt_mel), (orig.ref_mel, loaded.ref_mel)):
                    assert y.data.tobytes() == x.data.astype(np.float32).astype(np.float64).tobytes()

    def test_byte_identical_regeneration(self, tmp_path):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        m1 = synthgen.write_dataset(synthgen.make_dataset(2, seed=9), d1)
        m2 = synthgen.write_dataset(synthgen.make_dataset(2, seed=9), d2)
        assert Path(m1).read_bytes() == Path(m2).read_bytes()
        for name in sorted(p.name for p in d1.iterdir()):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_records_validate_against_schema(self, tmp_path):
        import json
        from importlib import resources

        import jsonschema

        def schema(name):
            return json.loads(resources.files("refdiff.schemas").joinpath(name).read_text())

        ds = synthgen.make_dataset(2, seed=4)
        manifest = synthgen.write_dataset(ds, tmp_path)
        with open(manifest) as fh:
            header, *records = [json.loads(line) for line in fh]
        jsonschema.validate(header, schema("manifest_header.schema.json"))
        assert len(records) == 2
        for record in records:
            jsonschema.validate(record, schema("manifest_record.schema.json"))


# --- the generator's bytes ----------------------------------------------
# Copies of the per-note and per-column loops that render_mel,
# _note_weights and degrade_reference replaced; the array passes must
# reproduce them bit for bit.


def loop_harmonic_profile(pitch, score):
    centers = mel_center_frequencies(score.n_mels, 0.0, score.sample_rate / 2.0)
    profile = np.zeros(score.n_mels)
    radius = (synthgen.SPREAD.size - 1) // 2
    for h in range(1, synthgen.HARMONICS + 1):
        freq = pitch * h
        if freq > score.sample_rate / 2.0:
            break
        center = int(np.argmin(np.abs(centers - freq)))
        for off, w in enumerate(synthgen.SPREAD):
            b = center + off - radius
            if 0 <= b < score.n_mels:
                profile[b] += w / h
    return profile


def loop_note_weights(score):
    weights = np.zeros((len(score.notes), score.total_frames))
    start = 0
    for j, (_, dur) in enumerate(score.notes):
        weights[j, start : start + dur] = 1.0
        start += dur
    ramp = np.array([0.25, 0.5, 0.75])
    for j, b in enumerate(score.boundaries()):
        weights[j, b - 1 : b + 2] = 1.0 - ramp
        weights[j + 1, b - 1 : b + 2] = ramp
    return weights


def loop_render_mel(score, seed):
    rng = np.random.default_rng(seed)
    profiles = np.stack([loop_harmonic_profile(p, score) for p, _ in score.notes])
    data = profiles.T @ loop_note_weights(score)
    jitter = np.clip(1.0 + 0.05 * rng.standard_normal(score.total_frames), 0.5, None)
    return data * jitter[None, :]


def loop_degrade_reference(gt_data, score, strength, seed):
    rng = np.random.default_rng(seed)
    data = gt_data.copy()
    F, T = data.shape
    reach = synthgen.SMEAR_REACH
    for b in score.boundaries():
        lo = max(0, b - reach)
        hi = min(T, b + reach + 1)
        local_avg = gt_data[:, lo:hi].mean(axis=1)
        for t in range(lo, hi):
            tri = 1.0 - abs(t - b) / (reach + 1.0)
            smear = strength * 0.7 * tri
            col = (1.0 - smear) * data[:, t] + smear * local_avg
            flatten = strength * 0.45 * tri
            col = (1.0 - flatten) * col + flatten * col.mean()
            sigma = strength * 1.2 * tri
            data[:, t] = col * np.exp(sigma * rng.standard_normal(F) - 0.5 * sigma**2)
    noise = np.clip(1.0 + 0.01 * rng.standard_normal(data.shape), 0.0, None)
    return data * noise


EDGE_SCORES = {
    # every note 4 frames: the +-4-frame windows of neighbouring
    # boundaries overlap, so a later boundary reads columns an earlier one wrote
    "four_frame_notes": synthgen.DatasetConfig().score(((200.0, 4), (310.0, 4), (150.0, 4), (620.0, 4))),
    # the first window starts at frame 0, the last is clamped at T
    "clamped_windows": synthgen.DatasetConfig().score(((440.0, 4), (300.0, 17), (880.0, 4))),
    # at 8 kHz the upper harmonics of these pitches cross Nyquist
    "nyquist_8k": synthgen.ScoreSpec(
        notes=((1000.0, 9), (700.0, 5), (950.0, 12), (81.0, 6)), sample_rate=8000, hop=128, n_mels=40
    ),
    "one_note": synthgen.DatasetConfig().score(((330.0, 11),)),
}


class TestBytesMatchLoops:
    @pytest.mark.parametrize("name", sorted(EDGE_SCORES))
    # at 0.245, sigma * sigma and sigma**2 (pow) differ in the last bit
    @pytest.mark.parametrize("strength", [0.0, 0.5, 1.0, 0.9, 0.245])
    def test_edge_scores(self, name, strength):
        score = EDGE_SCORES[name]
        gt = synthgen.render_mel(score, seed=4)
        assert gt.data.tobytes() == loop_render_mel(score, 4).tobytes()
        ref = synthgen.degrade_reference(gt, score, strength, seed=5)
        assert ref.data.tobytes() == loop_degrade_reference(gt.data, score, strength, 5).tobytes()

    @pytest.mark.parametrize("seed", range(10))
    def test_dataset_streams(self, seed):
        """The scores and streams of make_dataset(64, seed), item by item."""
        cfg = synthgen.DatasetConfig()
        for i in range(64):
            ss = np.random.SeedSequence([seed, i])
            score_rng, render_rng, degrade_rng = (np.random.default_rng(c) for c in ss.spawn(3))
            score = synthgen.random_score(score_rng, cfg)
            render_state = render_rng.bit_generator.state
            degrade_state = degrade_rng.bit_generator.state
            gt = synthgen.render_mel(score, render_rng)
            ref = synthgen.degrade_reference(gt, score, cfg.degrade_strength, degrade_rng)
            render_rng.bit_generator.state = render_state
            degrade_rng.bit_generator.state = degrade_state
            want_gt = loop_render_mel(score, render_rng)
            assert gt.data.tobytes() == want_gt.tobytes()
            want_ref = loop_degrade_reference(want_gt, score, cfg.degrade_strength, degrade_rng)
            assert ref.data.tobytes() == want_ref.tobytes()


# SHA-256 over every item's gt, ref and cond bytes, then (norm_lo, norm_hi),
# of make_dataset(16, seed).  Any change to the data stream moves these.
DATASET_DIGESTS = {
    0: "3c30c0545fc70f9dc25d4cff84f90aeaf568b58afce72c7464351a342500b230",
    1: "846d081b5214b39063306d681082fe36638f7fea80035f041315551124022bbf",
    2: "24fb91be98f6991e19091ed0fd1b1126308169444966267c625048d8b9a4331c",
}


@pytest.mark.parametrize("seed", sorted(DATASET_DIGESTS))
def test_dataset_digest_pinned(seed):
    import hashlib

    ds = synthgen.make_dataset(16, seed)
    digest = hashlib.sha256()
    for s in ds:
        for arr in (s.gt_mel.data, s.ref_mel.data, s.cond):
            digest.update(arr.tobytes())
    digest.update(np.array([ds.norm_lo, ds.norm_hi]).tobytes())
    assert digest.hexdigest() == DATASET_DIGESTS[seed]
