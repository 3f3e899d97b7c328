"""Synthetic data factory: determinism, oracle regions, degradation locality."""

import numpy as np
import pytest

from refdiff import synthgen, transition
from refdiff.dsp import mel_center_frequencies


def two_note_score(p1=220.0, d1=20, p2=440.0, d2=20):
    return synthgen.ScoreSpec(notes=((p1, d1), (p2, d2)))


class TestScoreSpec:
    def test_boundaries(self):
        score = synthgen.ScoreSpec(notes=((200.0, 10), (300.0, 10), (250.0, 5)))
        assert score.boundaries() == [10, 20]
        assert score.total_frames == 25

    def test_pitch_bounds(self):
        with pytest.raises(ValueError):
            synthgen.ScoreSpec(notes=((50.0, 10),))
        with pytest.raises(ValueError):
            synthgen.ScoreSpec(notes=((1200.0, 10),))

    def test_duration_bound(self):
        with pytest.raises(ValueError):
            synthgen.ScoreSpec(notes=((200.0, 3),))

    def test_json_roundtrip(self):
        score = two_note_score()
        assert synthgen.ScoreSpec.from_json(score.to_json()) == score


class TestRenderMel:
    def test_single_note_stationary_argmax(self):
        score = synthgen.ScoreSpec(notes=((300.0, 30),))
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
    def test_single_note_empty(self):
        score = synthgen.ScoreSpec(notes=((200.0, 30),))
        regions = synthgen.true_transition_regions(score, 4)
        assert regions.regions == ()

    def test_two_notes_centered(self):
        score = synthgen.ScoreSpec(notes=((200.0, 10), (300.0, 10)))
        regions = synthgen.true_transition_regions(score, 4)
        assert regions.regions == ((8, 12),)

    def test_many_notes_cover_all_boundaries(self):
        rng = np.random.default_rng(0)
        notes = tuple(
            (float(rng.uniform(100, 900)), int(rng.integers(5, 20))) for _ in range(6)
        )
        score = synthgen.ScoreSpec(notes=notes)
        regions = synthgen.true_transition_regions(score, 6)
        mask = regions.covers()
        for b in score.boundaries():
            assert mask[b] or (b == score.total_frames)


class TestNormalizeF0:
    def test_two_point(self):
        out = synthgen.normalize_f0(np.array([100.0, 300.0]), np.array([True, True]))
        np.testing.assert_allclose(out, [-1.0, 1.0])

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            synthgen.normalize_f0(np.full(5, 200.0), np.ones(5, dtype=bool))

    def test_all_unvoiced_rejected(self):
        with pytest.raises(ValueError):
            synthgen.normalize_f0(np.zeros(5), np.zeros(5, dtype=bool))

    def test_moments(self):
        rng = np.random.default_rng(1)
        f0 = rng.uniform(100, 800, 50)
        voiced = rng.uniform(size=50) > 0.3
        out = synthgen.normalize_f0(f0, voiced)
        assert abs(out[voiced].mean()) < 1e-9
        assert abs(out[voiced].var() - 1.0) < 1e-9
        assert np.all(out[~voiced] == 0.0)


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
    @pytest.mark.parametrize(
        "field, value",
        [("norm", {"lo": -20.0, "hi": 1.0}), ("dataset_seed", 99), ("config", None)],
    )
    def test_mixed_manifest_rejected(self, tmp_path, field, value):
        import json

        manifest = synthgen.write_dataset(synthgen.make_dataset(2, seed=2), tmp_path)
        with open(manifest) as fh:
            records = [json.loads(line) for line in fh]
        records[1][field] = value
        with open(manifest, "w") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in records)
        with pytest.raises(ValueError, match="mixed manifest"):
            synthgen.load_dataset(manifest)

    def test_write_load_roundtrip(self, tmp_path):
        ds = synthgen.make_dataset(3, seed=2)
        manifest = synthgen.write_dataset(ds, tmp_path)
        back = synthgen.load_dataset(manifest)
        assert len(back) == 3
        assert back.norm_lo == ds.norm_lo and back.norm_hi == ds.norm_hi
        for orig, loaded in zip(ds, back):
            assert loaded.score == orig.score
            assert loaded.true_regions.regions == orig.true_regions.regions
            np.testing.assert_allclose(loaded.cond, orig.cond, atol=0)
            # MELS stores float32: loading reproduces the cast exactly
            assert np.array_equal(
                loaded.gt_mel.data, orig.gt_mel.data.astype(np.float32).astype(np.float64)
            )

    def test_byte_identical_regeneration(self, tmp_path):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        m1 = synthgen.write_dataset(synthgen.make_dataset(2, seed=9), d1)
        m2 = synthgen.write_dataset(synthgen.make_dataset(2, seed=9), d2)
        assert open(m1, "rb").read() == open(m2, "rb").read()
        for name in sorted(p.name for p in d1.iterdir()):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_records_validate_against_schema(self, tmp_path):
        import json
        from importlib import resources

        import jsonschema

        schema = json.loads(
            resources.files("refdiff.schemas").joinpath("manifest_record.schema.json").read_text()
        )
        ds = synthgen.make_dataset(2, seed=4)
        manifest = synthgen.write_dataset(ds, tmp_path)
        with open(manifest) as fh:
            for line in fh:
                jsonschema.validate(json.loads(line), schema)
