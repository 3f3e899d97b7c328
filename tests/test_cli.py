"""CLI subcommands: exit codes, JSON schemas, determinism, file hygiene."""

import dataclasses
import hashlib
import json
import struct
from importlib import resources

import jsonschema
import numpy as np
import pytest
from scipy.io import wavfile

from refdiff import cli, dsp, synthgen, trainer
from refdiff.synthgen import ScoreSpec, render_mel


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    return json.loads(resources.files("refdiff.schemas").joinpath(name).read_text())


def write_silence_wav(path, seconds=1, sr=44100):
    buf = dsp.AudioBuffer(samples=np.zeros(sr * seconds), sample_rate=sr)
    dsp.save_wav(path, buf)


def write_two_note_mels(path, seed=0):
    score = ScoreSpec(notes=((220.0, 40), (880.0, 40)))
    mel = render_mel(score, seed=seed)
    dsp.write_mels(path, mel)
    return score


def assert_one_line_input_error(code, out, err):
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("input error:")


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    dataset = synthgen.make_dataset(3, seed=1)
    synthgen.write_dataset(dataset, out)
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("ckpt")
    config = {
        "total_steps": 12,
        "batch_size": 2,
        "hidden": 8,
        "depth": 2,
        "step_dim": 8,
        "learning_rate": 1e-3,
        "seed": 0,
    }
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(config))
    code = cli.main(
        ["train", str(cfg_path), str(dataset_dir / "manifest.jsonl"), "--out", str(out)]
    )
    assert code == 0
    return out / "model.rdck", cfg_path


class TestAnalyze:
    def test_silence_wav_empty_regions(self, tmp_path, capsys):
        wav = tmp_path / "s.wav"
        write_silence_wav(wav)
        code, out, _ = run_cli(capsys, "analyze", str(wav), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["regions"] == []
        jsonschema.validate(doc, load_schema("region_report.schema.json"))

    def test_two_note_region_contains_boundary(self, tmp_path, capsys):
        mels = tmp_path / "two.mels"
        write_two_note_mels(mels)
        code, out, _ = run_cli(capsys, "analyze", str(mels), "--json")
        assert code == 0
        doc = json.loads(out)
        assert any(s <= 40 < e for s, e in doc["regions"])
        jsonschema.validate(doc, load_schema("region_report.schema.json"))

    def test_json_byte_identical(self, tmp_path, capsys):
        mels = tmp_path / "two.mels"
        write_two_note_mels(mels)
        _, out1, _ = run_cli(capsys, "analyze", str(mels), "--json")
        _, out2, _ = run_cli(capsys, "analyze", str(mels), "--json")
        assert out1 == out2

    def test_missing_input_exit2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "analyze", str(tmp_path / "nope.wav"))
        assert code == 2
        assert err

    def test_bad_params_exit3(self, tmp_path, capsys):
        mels = tmp_path / "two.mels"
        write_two_note_mels(mels)
        code, _, _ = run_cli(capsys, "analyze", str(mels), "--k", "4")
        assert code == 3

    def test_log_input_rejected(self, tmp_path, capsys):
        mels = tmp_path / "log.mels"
        dsp.write_mels(
            mels, dsp.MelSpectrogram(data=-np.ones((4, 8)), n_mels=4, hop=128, is_log=True)
        )
        code, _, _ = run_cli(capsys, "analyze", str(mels))
        assert code == 2


    def test_riff_only_file_exit2(self, tmp_path, capsys):
        wav = tmp_path / "riff.wav"
        wav.write_bytes(b"RIFF")
        assert_one_line_input_error(*run_cli(capsys, "analyze", str(wav)))

    def test_short_data_chunk_exit2(self, tmp_path, capsys):
        # the file ends inside the data chunk, before the size its header gives
        wav = tmp_path / "cut.wav"
        write_silence_wav(wav)
        blob = wav.read_bytes()
        wav.write_bytes(blob[: len(blob) // 2])
        assert_one_line_input_error(*run_cli(capsys, "analyze", str(wav)))

    def test_short_data_chunk_riff_size_patched_exit2(self, tmp_path, capsys):
        # cut inside the data chunk with the RIFF size rewritten to match:
        # only the data chunk's own size shows that samples are missing
        wav = tmp_path / "patched.wav"
        dsp.save_wav(wav, dsp.AudioBuffer(samples=np.full(8000, 0.25), sample_rate=8000))
        blob = wav.read_bytes()[: (44 + 16000) // 2]
        wav.write_bytes(blob[:4] + struct.pack("<I", len(blob) - 8) + blob[8:])
        code, out, err = run_cli(capsys, "analyze", str(wav))
        assert_one_line_input_error(code, out, err)
        assert "data chunk declares 16000 bytes" in err

    def test_unknown_chunk_still_loads(self, tmp_path, capsys):
        wav = tmp_path / "extra.wav"
        write_silence_wav(wav)
        blob = wav.read_bytes()
        extra = b"xtra" + struct.pack("<I", 4) + b"\x00" * 4
        riff_size = struct.unpack("<I", blob[4:8])[0] + len(extra)
        wav.write_bytes(blob[:4] + struct.pack("<I", riff_size) + blob[8:] + extra)
        with pytest.warns(wavfile.WavFileWarning, match="not understood"):
            code, out, _ = run_cli(capsys, "analyze", str(wav), "--json")
        assert code == 0
        assert json.loads(out)["regions"] == []


class TestShortSpectrogram:
    """Detection needs T >= max(2, (k+1)//2) frames; a shorter input exits 2."""

    @pytest.mark.parametrize("command", ["analyze", "blur"])
    @pytest.mark.parametrize("T, k", [(1, 9), (4, 9), (1, 1), (5, 9), (2, 1)])
    def test_exit_code(self, tmp_path, capsys, command, T, k):
        mels = tmp_path / "short.mels"
        data = np.random.default_rng(T).uniform(0.5, 1.0, (6, T))
        dsp.write_mels(mels, dsp.MelSpectrogram(data=data, n_mels=6, hop=128))
        outputs = [str(tmp_path / "out.mels")] if command == "blur" else []
        code, out, err = run_cli(capsys, command, str(mels), *outputs, "--k", str(k))
        need = max(2, (k + 1) // 2)
        if T < need:
            assert_one_line_input_error(code, out, err)
            assert f"T={T} " in err and f"at least {need}" in err
        else:
            assert code == 0


class TestBlur:
    def test_empty_regions_payload_identical(self, tmp_path, capsys):
        mels = tmp_path / "in.mels"
        out = tmp_path / "out.mels"
        data = np.abs(np.random.default_rng(0).uniform(0.5, 1.0, (6, 10)))
        dsp.write_mels(mels, dsp.MelSpectrogram(data=data, n_mels=6, hop=128))
        report = tmp_path / "regions.json"
        report.write_text(
            json.dumps(
                {
                    "total_frames": 10,
                    "hop": 128,
                    "points": [],
                    "regions": [],
                    "params": {"k": 9, "w": 8, "eps": 1e-6, "lambda": 2.0},
                }
            )
        )
        code, _, _ = run_cli(capsys, "blur", str(mels), str(out), "--regions", str(report))
        assert code == 0
        assert mels.read_bytes() == out.read_bytes()

    def test_constant_unchanged(self, tmp_path, capsys):
        mels = tmp_path / "in.mels"
        out = tmp_path / "out.mels"
        dsp.write_mels(mels, dsp.MelSpectrogram(data=np.full((6, 20), 2.0), n_mels=6, hop=128))
        code, _, _ = run_cli(capsys, "blur", str(mels), str(out))
        assert code == 0
        result = dsp.read_mels(out)
        np.testing.assert_allclose(result.data, 2.0, atol=1e-6)

    def test_impulse_matches_bruteforce(self, tmp_path, capsys):
        from test_dsp import brute_blur_2d

        data = np.zeros((7, 30), dtype=np.float32)
        data[3, 15] = 4.0
        mels = tmp_path / "imp.mels"
        out = tmp_path / "out.mels"
        dsp.write_mels(mels, dsp.MelSpectrogram(data=data.astype(float), n_mels=7, hop=128))
        report = tmp_path / "regions.json"
        report.write_text(
            json.dumps(
                {
                    "total_frames": 30,
                    "hop": 128,
                    "points": [15],
                    "regions": [[11, 19]],
                    "params": {"k": 9, "w": 8, "eps": 1e-6, "lambda": 2.0},
                }
            )
        )
        code, _, _ = run_cli(
            capsys, "blur", str(mels), str(out),
            "--regions", str(report), "--kernel-size", "5", "--sigma", "1.0",
        )
        assert code == 0
        got = dsp.read_mels(out)
        kernel = dsp.gaussian_kernel(5, 1.0)
        oracle = brute_blur_2d(data[:, 11:19].astype(float), kernel.taps)
        np.testing.assert_allclose(got.data[:, 11:19], oracle, atol=1e-6)
        assert np.array_equal(got.data[:, :11], data[:, :11])
        assert np.array_equal(got.data[:, 19:], data[:, 19:])

    def test_input_not_mutated(self, tmp_path, capsys):
        mels = tmp_path / "in.mels"
        out = tmp_path / "out.mels"
        write_two_note_mels(mels)
        before = mels.read_bytes()
        run_cli(capsys, "blur", str(mels), str(out))
        assert mels.read_bytes() == before

    def test_garbage_input_exit2(self, tmp_path, capsys):
        bad = tmp_path / "bad.mels"
        bad.write_bytes(b"garbage here")
        code, _, _ = run_cli(capsys, "blur", str(bad), str(tmp_path / "o.mels"))
        assert code == 2


class TestGendata:
    def test_deterministic_hashes(self, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            code, out, _ = run_cli(
                capsys, "gendata", "--n", "2", "--seed", "3", "--out", str(d), "--json"
            )
            assert code == 0
            doc = json.loads(out)
            assert doc["n"] == 2
        hashes = []
        for d in (d1, d2):
            digest = hashlib.sha256()
            for name in sorted(p.name for p in d.iterdir()):
                digest.update(name.encode())
                digest.update((d / name).read_bytes())
            hashes.append(digest.hexdigest())
        assert hashes[0] == hashes[1]

    def test_manifest_schema(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "gendata", "--n", "2", "--seed", "0", "--out", str(tmp_path))
        assert code == 0
        schema = load_schema("manifest_record.schema.json")
        with open(tmp_path / "manifest.jsonl") as fh:
            for line in fh:
                jsonschema.validate(json.loads(line), schema)

    def test_env_var_out_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REFDIFF_OUT_DIR", str(tmp_path / "env_out"))
        code, _, _ = run_cli(capsys, "gendata", "--n", "1", "--seed", "0")
        assert code == 0
        assert (tmp_path / "env_out" / "manifest.jsonl").exists()

    def test_bad_n_exit3(self, capsys):
        code, _, _ = run_cli(capsys, "gendata", "--n", "0")
        assert code == 3


class TestTrainCmd:
    def test_outputs_exist(self, trained):
        ckpt_path, _ = trained
        assert ckpt_path.exists()
        assert ckpt_path.with_name("model_loss.json").exists()
        curve = json.loads(ckpt_path.with_name("model_loss.json").read_text())
        assert len(curve["loss_curve"]) == 12

    def test_missing_config_exit2(self, dataset_dir, capsys):
        code, _, _ = run_cli(
            capsys, "train", "missing.json", str(dataset_dir / "manifest.jsonl")
        )
        assert code == 2

    def test_bad_config_exit3(self, dataset_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"learning_rate": -1.0}))
        code, _, _ = run_cli(
            capsys, "train", str(bad), str(dataset_dir / "manifest.jsonl")
        )
        assert code == 3

    @pytest.mark.parametrize(
        "field, value",
        [("log_floor", "x"), ("batch_size", 2.5), ("blur", "yes"), ("learning_rate", float("nan"))],
    )
    def test_wrongly_typed_config_exit3(self, dataset_dir, tmp_path, capsys, field, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"total_steps": 1, "hidden": 2, "depth": 1, "step_dim": 2, field: value}))
        code, out, err = run_cli(capsys, "train", str(bad), str(dataset_dir / "manifest.jsonl"))
        assert code == 3
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and field in err

    def test_mixed_manifest_exit2(self, dataset_dir, tmp_path, capsys):
        records = (dataset_dir / "manifest.jsonl").read_text().splitlines()
        other = json.loads(records[1])
        other["dataset_seed"] += 1
        mixed = dataset_dir / "mixed.jsonl"
        mixed.write_text("\n".join([records[0], json.dumps(other)]) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"total_steps": 1, "hidden": 2, "depth": 1, "step_dim": 2}))
        assert_one_line_input_error(*run_cli(capsys, "train", str(cfg), str(mixed)))


class TestSampleCmd:
    def test_deterministic_output(self, trained, dataset_dir, tmp_path, capsys):
        ckpt_path, _ = trained
        manifest = str(dataset_dir / "manifest.jsonl")
        o1, o2 = tmp_path / "a.mels", tmp_path / "b.mels"
        for o in (o1, o2):
            code, _, _ = run_cli(
                capsys, "sample", str(ckpt_path), manifest, str(o),
                "--index", "0", "--steps", "20", "--seed", "5",
            )
            assert code == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_steps_beyond_schedule_exit3(self, trained, dataset_dir, tmp_path, capsys):
        ckpt_path, _ = trained
        code, _, _ = run_cli(
            capsys, "sample", str(ckpt_path), str(dataset_dir / "manifest.jsonl"),
            str(tmp_path / "x.mels"), "--steps", "101",
        )
        assert code == 3

    def test_bad_index_exit3(self, trained, dataset_dir, tmp_path, capsys):
        ckpt_path, _ = trained
        code, _, _ = run_cli(
            capsys, "sample", str(ckpt_path), str(dataset_dir / "manifest.jsonl"),
            str(tmp_path / "x.mels"), "--index", "99",
        )
        assert code == 3

    def test_held_out_mse_uses_the_evaluate_mapping(self, trained, tmp_path, capsys):
        # a held-out manifest has its own normalization; mse_vs_gt must be
        # measured in the checkpoint's, as evaluate measures it
        ckpt_path, _ = trained
        manifest = synthgen.write_dataset(synthgen.make_dataset(2, seed=7), tmp_path / "held")
        code, out, _ = run_cli(
            capsys, "sample", str(ckpt_path), manifest, str(tmp_path / "x.mels"),
            "--index", "1", "--steps", "5", "--seed", "4", "--json",
        )
        assert code == 0
        ckpt = trainer.Checkpoint.load(ckpt_path)
        held = synthgen.load_dataset(manifest)
        assert (held.norm_lo, held.norm_hi) != (ckpt.norm_lo, ckpt.norm_hi)
        one = dataclasses.replace(held, samples=[held[1]])
        want = trainer.evaluate(ckpt, one, 5, seed=4).global_mse
        assert json.loads(out)["mse_vs_gt"] == pytest.approx(want, rel=1e-12)


class TestEvalCmd:
    def test_metrics_schema(self, trained, dataset_dir, capsys):
        ckpt_path, _ = trained
        code, out, _ = run_cli(
            capsys, "eval", str(ckpt_path), str(dataset_dir / "manifest.jsonl"),
            "--steps", "10", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("metrics.schema.json"))

    def test_deterministic(self, trained, dataset_dir, capsys):
        ckpt_path, _ = trained
        args = (
            "eval", str(ckpt_path), str(dataset_dir / "manifest.jsonl"),
            "--steps", "10", "--seed", "2", "--json",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_version1_checkpoint_exit2(self, trained, dataset_dir, tmp_path, capsys):
        # version 1 has the same layout but no output skip path; loading it
        # would silently run a different network
        ckpt_path, _ = trained
        blob = bytearray(ckpt_path.read_bytes())
        blob[4:8] = (1).to_bytes(4, "little")
        old = tmp_path / "v1.rdck"
        old.write_bytes(bytes(blob))
        code, out, err = run_cli(capsys, "eval", str(old), str(dataset_dir / "manifest.jsonl"))
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and "version 1" in err

    def test_missing_checkpoint_exit2(self, dataset_dir, capsys):
        code, _, _ = run_cli(
            capsys, "eval", "missing.rdck", str(dataset_dir / "manifest.jsonl")
        )
        assert code == 2

    def _eval_blob(self, blob, dataset_dir, tmp_path, capsys):
        path = tmp_path / "hostile.rdck"
        path.write_bytes(blob)
        return run_cli(capsys, "eval", str(path), str(dataset_dir / "manifest.jsonl"))

    def test_six_byte_checkpoint_exit2(self, trained, dataset_dir, tmp_path, capsys):
        blob = trained[0].read_bytes()[:6]
        assert_one_line_input_error(*self._eval_blob(blob, dataset_dir, tmp_path, capsys))

    @staticmethod
    def _edit_header(blob, edit):
        header_len = struct.unpack("<I", blob[8:12])[0]
        header = json.loads(blob[12 : 12 + header_len])
        edit(header)
        new = json.dumps(header, sort_keys=True).encode()
        return blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + header_len :]

    def test_non_integer_arch_exit2(self, trained, dataset_dir, tmp_path, capsys):
        blob = self._edit_header(trained[0].read_bytes(), lambda h: h["arch"].update(n_mels="x"))
        code, out, err = self._eval_blob(blob, dataset_dir, tmp_path, capsys)
        assert_one_line_input_error(code, out, err)
        assert "n_mels" in err

    def test_wrongly_typed_config_exit2(self, trained, dataset_dir, tmp_path, capsys):
        blob = self._edit_header(trained[0].read_bytes(), lambda h: h["config"].update(log_floor="x"))
        code, out, err = self._eval_blob(blob, dataset_dir, tmp_path, capsys)
        assert_one_line_input_error(code, out, err)
        assert "log_floor" in err

    def test_non_finite_parameter_exit2(self, trained, dataset_dir, tmp_path, capsys):
        # the last block, cond.b, has hidden = 8 values
        blob = trained[0].read_bytes()[:-64] + np.full(8, np.nan).astype("<f8").tobytes()
        code, out, err = self._eval_blob(blob, dataset_dir, tmp_path, capsys)
        assert_one_line_input_error(code, out, err)
        assert "NaN" in err

    @pytest.mark.parametrize(
        "header", [b"[" * 100_000, b"[1]", b'{"arch": 5}'], ids=["nested", "array", "arch-int"]
    )
    def test_hostile_header_exit2(self, dataset_dir, tmp_path, capsys, header):
        blob = b"RDCK" + struct.pack("<II", 2, len(header)) + header
        assert_one_line_input_error(*self._eval_blob(blob, dataset_dir, tmp_path, capsys))

    @pytest.mark.parametrize(
        "record",
        ["[1]", '{"norm": {"lo": 0, "hi": 1}, "score": 5}', "[" * 100_000],
        ids=["array", "score-int", "nested"],
    )
    def test_hostile_manifest_record_exit2(self, trained, tmp_path, capsys, record):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(record + "\n")
        assert_one_line_input_error(*run_cli(capsys, "eval", str(trained[0]), str(manifest)))

    def test_trailing_bytes_exit2(self, trained, dataset_dir, tmp_path, capsys):
        blob = trained[0].read_bytes() + b"\x00" * 8
        code, out, err = self._eval_blob(blob, dataset_dir, tmp_path, capsys)
        assert_one_line_input_error(code, out, err)
        assert "trailing" in err


class TestAblateCmd:
    def test_table_schema(self, dataset_dir, tmp_path, capsys):
        config = {
            "total_steps": 3,
            "batch_size": 1,
            "hidden": 6,
            "depth": 1,
            "step_dim": 4,
            "eval_steps": 4,
            "seed": 0,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "table.json"
        code, out, _ = run_cli(
            capsys, "ablate", str(cfg_path), str(dataset_dir / "manifest.jsonl"),
            "--steps", "2", "4", "--out", str(out_path), "--json",
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("ablation.schema.json"))
        assert json.loads(out_path.read_text()) == doc

    def test_bad_config_exit3(self, dataset_dir, tmp_path, capsys):
        # the same config exits 3 from train; ablate must agree
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"lambda_in": 0.5}))
        for command in ("train", "ablate"):
            code, _, _ = run_cli(capsys, command, str(cfg_path), str(dataset_dir / "manifest.jsonl"))
            assert code == 3
