"""CLI subcommands: exit codes, JSON schemas, determinism, file hygiene."""

import dataclasses
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest
from scipy.io import wavfile

from refdiff import cli, denoiser, diffusion, dsp, synthgen, trainer, transition
from refdiff.synthgen import DatasetConfig, render_mel


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
    score = DatasetConfig().score(((220.0, 40), (880.0, 40)))
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
            mels, dsp.MelSpectrogram(data=-np.ones((4, 8)), hop=128, is_log=True)
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
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "analyze", str(wav), "--json")
        assert code == 0 and err == ""
        assert json.loads(out)["regions"] == []


def wav_chunk(chunk_id, payload):
    return chunk_id + struct.pack("<I", len(payload)) + payload + b"\x00" * (len(payload) & 1)


def wav_fmt(tag=1, channels=1, bits=16, block_align=None, rate=8000):
    if block_align is None:
        block_align = channels * bits // 8
    return wav_chunk(b"fmt ", struct.pack("<HHIIHH", tag, channels, rate, rate * block_align, block_align, bits))


def riff(*chunks, size=None):
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body) if size is None else size) + body


class TestWavReader:
    """Hand-built WAV files through ``analyze``: each malformed one exits 2
    with one line, from an explicit check of the reader."""

    DATA = wav_chunk(b"data", np.zeros(2048, dtype="<i2").tobytes())
    BODY = len(riff(wav_fmt(), DATA)) - 8

    @pytest.mark.parametrize(
        "blob, reason",
        [
            (riff(wav_chunk(b"fmt ", wav_fmt()[8:22]), DATA), "fmt chunk of 14 bytes, fewer than 16"),
            (riff(DATA), "no fmt chunk before the data chunk"),
            (riff(wav_fmt()), "no data chunk"),
            (riff(DATA, wav_fmt()), "no fmt chunk before the data chunk"),
            (riff(wav_fmt(channels=0), DATA), "0 channels"),
            (riff(wav_fmt(channels=2, block_align=2), DATA), "2 channels, 2-byte blocks"),
            (riff(wav_fmt(), DATA, size=BODY + 100), "no RIFF/WAVE header whose size fits"),
            (riff(wav_fmt(bits=8), DATA), "8 bits, not PCM16/float32"),
            (riff(wav_fmt(bits=24), DATA), "24 bits, not PCM16/float32"),
        ],
        ids=[
            "short-fmt", "no-fmt", "no-data", "data-before-fmt", "zero-channels",
            "block-align", "riff-size-past-eof", "pcm8", "pcm24",
        ],
    )
    def test_rejected_exit2(self, tmp_path, capsys, blob, reason):
        wav = tmp_path / "bad.wav"
        wav.write_bytes(blob)
        with pytest.raises(dsp.WavError, match=reason):
            dsp.load_wav(wav)
        assert_one_line_input_error(*run_cli(capsys, "analyze", str(wav)))

    def test_valid_builder_file_loads(self, tmp_path, capsys):
        # the files above differ from this one in the named field only
        wav = tmp_path / "ok.wav"
        wav.write_bytes(riff(wav_fmt(), self.DATA))
        code, out, err = run_cli(capsys, "analyze", str(wav), "--json")
        assert code == 0 and err == ""

    @pytest.mark.parametrize("tag, dtype", [(1, "<i2"), (3, "<f4")])
    def test_extensible_matches_scipy(self, tmp_path, capsys, tag, dtype):
        rng = np.random.default_rng(tag)
        frames = rng.uniform(-1, 1, (1000, 2))
        if dtype == "<i2":
            frames = np.round(frames * 32767)
        data = frames.astype(dtype)
        width = data.itemsize
        subformat = struct.pack("<I", tag) + bytes.fromhex("00001000800000aa00389b71")
        fmt = struct.pack(
            "<HHIIHHHHI", 0xFFFE, 2, 8000, 8000 * 2 * width, 2 * width, 8 * width, 22, 8 * width, 3
        ) + subformat
        wav = tmp_path / "ext.wav"
        wav.write_bytes(riff(wav_chunk(b"fmt ", fmt), wav_chunk(b"data", data.tobytes())))
        rate, ref = wavfile.read(wav)
        loaded = dsp.load_wav(wav)
        first = ref[:, 0].astype(np.float64)
        want = first / 32768.0 if dtype == "<i2" else np.clip(first, -1.0, 1.0)
        assert (loaded.sample_rate, loaded.samples.tobytes()) == (rate, want.tobytes())
        code, _, err = run_cli(capsys, "analyze", str(wav), "--json")
        assert code == 0 and err == ""


class TestAnalyzeEchoedValues:
    """``--region-weight`` and ``--eps`` are echoed into the report, so a
    value the schema rejects exits 3 with one line naming the flag."""

    @pytest.mark.parametrize("flag", ["--region-weight", "--eps"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    def test_out_of_range_exit3(self, tmp_path, capsys, flag, value):
        mels = tmp_path / "two.mels"
        write_two_note_mels(mels)
        code, out, err = run_cli(capsys, "analyze", str(mels), f"{flag}={value}", "--json")
        assert code == 3 and out == ""
        assert len(err.strip().splitlines()) == 1 and flag in err

    def test_region_weight_half_exit3(self, tmp_path, capsys):
        mels = tmp_path / "two.mels"
        write_two_note_mels(mels)
        code, _, err = run_cli(capsys, "analyze", str(mels), "--region-weight", "0.5")
        assert code == 3 and "--region-weight" in err

    def test_region_weight_one_matches_schema(self, tmp_path, capsys):
        mels = tmp_path / "two.mels"
        write_two_note_mels(mels)
        code, out, _ = run_cli(capsys, "analyze", str(mels), "--region-weight", "1.0", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["lambda"] == 1.0
        jsonschema.validate(doc, load_schema("region_report.schema.json"))


class TestAnalyzeRatioOverflow:
    """An eps so small that the energy ratio overflows float64 exits 3
    with one line naming eps, not NaN crossings and an empty report."""

    def test_silent_low_band_tiny_eps_exit3(self, tmp_path, capsys):
        mels = tmp_path / "gap.mels"
        data = np.ones((6, 20))
        data[:3, :10] = 0.0  # the low band is silent in frames 0-9
        dsp.write_mels(mels, dsp.MelSpectrogram(data=data, hop=128))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "analyze", str(mels), "--eps", "1e-320", "--json")
        assert caught == []
        assert code == 3 and out == ""
        assert len(err.strip().splitlines()) == 1 and "eps=1e-320" in err
        code, out, _ = run_cli(capsys, "analyze", str(mels), "--json")
        assert code == 0 and json.loads(out)["points"] == [10]


class TestBlurSigma:
    @pytest.mark.parametrize("sigma", ["nan", "inf", "0", "-1"])
    def test_bad_sigma_exit3(self, tmp_path, capsys, sigma):
        mels = tmp_path / "two.mels"
        write_two_note_mels(mels)
        code, out, err = run_cli(capsys, "blur", str(mels), str(tmp_path / "o.mels"), f"--sigma={sigma}")
        assert code == 3 and out == ""
        assert len(err.strip().splitlines()) == 1 and "sigma" in err

    def test_sigma_too_small_for_the_size_exit3(self, tmp_path, capsys):
        # the outer taps of 101 at sigma 0.1 underflow to zero
        mels = tmp_path / "two.mels"
        write_two_note_mels(mels)
        argv = ["blur", str(mels), str(tmp_path / "o.mels"), "--kernel-size", "101", "--sigma", "0.1"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert len(err.strip().splitlines()) == 1 and "sigma 0.1" in err and "101" in err

    @pytest.mark.parametrize("sigma", ["1e-300", "1e-160"])
    def test_tiny_sigma_exit3_without_warnings(self, tmp_path, capsys, sigma):
        # the outer taps' exponent overflows to zero taps: that may neither
        # warn nor blame the spectrogram
        mels = tmp_path / "two.mels"
        write_two_note_mels(mels)
        code, out, err = run_cli(capsys, "blur", str(mels), str(tmp_path / "o.mels"), "--sigma", sigma)
        assert code == 3 and out == ""
        assert len(err.strip().splitlines()) == 1 and f"sigma {float(sigma)} is too small" in err

    def test_one_tap_tiny_sigma_keeps_the_bytes(self, tmp_path, capsys):
        # a one-tap kernel is [1.0] at any sigma: blurring changes nothing
        mels, out = tmp_path / "two.mels", tmp_path / "o.mels"
        write_two_note_mels(mels)
        code, _, _ = run_cli(capsys, "blur", str(mels), str(out), "--kernel-size", "1", "--sigma", "1e-300")
        assert code == 0
        assert out.read_bytes() == mels.read_bytes()

    def test_unit_sigma_ok(self, tmp_path, capsys):
        mels = tmp_path / "two.mels"
        write_two_note_mels(mels)
        code, _, _ = run_cli(capsys, "blur", str(mels), str(tmp_path / "o.mels"), "--sigma", "1.0")
        assert code == 0


def test_detector_and_weight_defaults_come_from_their_modules():
    detector = transition.TransitionConfig()
    analyze = cli.build_parser().parse_args(["analyze", "in.mels"])
    blur = cli.build_parser().parse_args(["blur", "in.mels", "out.mels"])
    assert (analyze.k, analyze.w, analyze.eps) == (detector.smooth_k, detector.window_w, detector.eps)
    assert analyze.region_weight == trainer.TrainConfig().lambda_in
    assert (blur.k, blur.w) == (detector.smooth_k, detector.window_w)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["analyze", "in.mels"],
            {"command": "analyze", "func": "cmd_analyze", "input": "in.mels", "k": 9, "w": 8,
             "eps": 1e-06, "region_weight": 2.0, "json": False},
        ),
        (
            ["analyze", "in.mels", "--k", "7", "--w", "3", "--eps", "0.5", "--region-weight", "2.5", "--json"],
            {"command": "analyze", "func": "cmd_analyze", "input": "in.mels", "k": 7, "w": 3,
             "eps": 0.5, "region_weight": 2.5, "json": True},
        ),
        (
            ["blur", "in.mels", "out.mels"],
            {"command": "blur", "func": "cmd_blur", "input": "in.mels", "output": "out.mels", "regions": None,
             "kernel_size": 5, "sigma": 1.0, "k": 9, "w": 8, "json": False},
        ),
        (
            ["blur", "in.mels", "out.mels", "--regions", "r.json", "--kernel-size", "7", "--sigma", "2.0",
             "--k", "5", "--w", "4", "--json"],
            {"command": "blur", "func": "cmd_blur", "input": "in.mels", "output": "out.mels", "regions": "r.json",
             "kernel_size": 7, "sigma": 2.0, "k": 5, "w": 4, "json": True},
        ),
        (
            ["gendata", "--n", "4"],
            {"command": "gendata", "func": "cmd_gendata", "n": 4, "seed": 0, "out": None, "json": False},
        ),
        (
            ["gendata", "--n", "4", "--seed", "3", "--out", "d", "--json"],
            {"command": "gendata", "func": "cmd_gendata", "n": 4, "seed": 3, "out": "d", "json": True},
        ),
        (
            ["train", "c.json", "m.jsonl"],
            {"command": "train", "func": "cmd_train", "config": "c.json", "manifest": "m.jsonl", "out": None,
             "name": "model", "json": False},
        ),
        (
            ["train", "c.json", "m.jsonl", "--out", "o", "--name", "x", "--json"],
            {"command": "train", "func": "cmd_train", "config": "c.json", "manifest": "m.jsonl", "out": "o",
             "name": "x", "json": True},
        ),
        (
            ["sample", "m.rdck", "m.jsonl", "o.mels"],
            {"command": "sample", "func": "cmd_sample", "checkpoint": "m.rdck", "manifest": "m.jsonl",
             "output": "o.mels", "index": 0, "steps": None, "seed": 0, "json": False},
        ),
        (
            ["sample", "m.rdck", "m.jsonl", "o.mels", "--index", "2", "--steps", "10", "--seed", "5", "--json"],
            {"command": "sample", "func": "cmd_sample", "checkpoint": "m.rdck", "manifest": "m.jsonl",
             "output": "o.mels", "index": 2, "steps": 10, "seed": 5, "json": True},
        ),
        (
            ["eval", "m.rdck", "m.jsonl"],
            {"command": "eval", "func": "cmd_eval", "checkpoint": "m.rdck", "manifest": "m.jsonl",
             "steps": None, "seed": 0, "json": False},
        ),
        (
            ["eval", "m.rdck", "m.jsonl", "--steps", "10", "--seed", "5", "--json"],
            {"command": "eval", "func": "cmd_eval", "checkpoint": "m.rdck", "manifest": "m.jsonl",
             "steps": 10, "seed": 5, "json": True},
        ),
        (
            ["ablate", "c.json", "m.jsonl"],
            {"command": "ablate", "func": "cmd_ablate", "config": "c.json", "manifest": "m.jsonl",
             "eval_manifest": None, "steps": [24, 54, 100], "seed": 0, "out": None, "json": False},
        ),
        (
            ["ablate", "c.json", "m.jsonl", "--eval-manifest", "e.jsonl", "--steps", "2", "3", "--seed", "5",
             "--out", "t.json", "--json"],
            {"command": "ablate", "func": "cmd_ablate", "config": "c.json", "manifest": "m.jsonl",
             "eval_manifest": "e.jsonl", "steps": [2, 3], "seed": 5, "out": "t.json", "json": True},
        ),
    ],
    ids=[f"{cmd}-{argv}" for cmd in ("analyze", "blur", "gendata", "train", "sample", "eval", "ablate")
         for argv in ("bare", "full")],
)
def test_parsed_namespace_pinned(argv, expected):
    # positional order and every default, for a bare and a full argv per subcommand
    parsed = vars(cli.build_parser().parse_args(argv))
    parsed["func"] = parsed["func"].__name__
    assert parsed == expected


class TestSharedParser:
    """``main`` reuses one parser per process; no call may leave state in it."""

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys):
        mels = tmp_path / "two.mels"
        write_two_note_mels(mels)
        calls = [
            ["analyze", str(mels), "--k", "5", "--w", "4", "--json"],
            ["analyze", str(mels), "--k", "five"],
            ["analyze", str(mels), "--json"],
        ]
        in_process = []
        for argv in calls:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        assert [c for c, _, _ in in_process] == [0, 2, 0]
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        for argv, got in zip(calls, in_process):
            fresh = subprocess.run(
                [sys.executable, "-m", "refdiff.cli", *argv], capture_output=True, text=True, env=env
            )
            assert got == (fresh.returncode, fresh.stdout, fresh.stderr)

    def test_ablate_default_steps_unchanged(self, dataset_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"total_steps": 2, "batch_size": 1, "hidden": 6, "depth": 1,
                                        "step_dim": 4, "seed": 0}))
        argv = ["ablate", str(cfg_path), str(dataset_dir / "manifest.jsonl"), "--json"]
        assert cli.build_parser().parse_args(argv).steps == [24, 54, 100]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert sorted(map(int, json.loads(out)["steps"])) == [24, 54, 100]
        assert cli.build_parser().parse_args(argv).steps == [24, 54, 100]


class TestShortSpectrogram:
    """Detection needs T >= max(2, (k+1)//2) frames; a shorter input exits 2."""

    @pytest.mark.parametrize("command", ["analyze", "blur"])
    @pytest.mark.parametrize("T, k", [(1, 9), (4, 9), (1, 1), (5, 9), (2, 1)])
    def test_exit_code(self, tmp_path, capsys, command, T, k):
        mels = tmp_path / "short.mels"
        data = np.random.default_rng(T).uniform(0.5, 1.0, (6, T))
        dsp.write_mels(mels, dsp.MelSpectrogram(data=data, hop=128))
        outputs = [str(tmp_path / "out.mels")] if command == "blur" else []
        code, out, err = run_cli(capsys, command, str(mels), *outputs, "--k", str(k))
        need = max(2, (k + 1) // 2)
        if T < need:
            assert_one_line_input_error(code, out, err)
            assert f"T={T} " in err and f"at least {need}" in err
        else:
            assert code == 0


@pytest.mark.parametrize("command", ["analyze", "blur"])
def test_one_bin_spectrogram_exit2(tmp_path, capsys, command):
    # detection splits the mel axis into a low and a high band
    mels = tmp_path / "one_bin.mels"
    dsp.write_mels(mels, dsp.MelSpectrogram(data=np.full((1, 40), 0.5), hop=128))
    outputs = [str(tmp_path / "out.mels")] if command == "blur" else []
    code, out, err = run_cli(capsys, command, str(mels), *outputs)
    assert_one_line_input_error(code, out, err)
    assert "1 mel bin" in err


class TestBlur:
    def test_empty_regions_payload_identical(self, tmp_path, capsys):
        mels = tmp_path / "in.mels"
        out = tmp_path / "out.mels"
        data = np.abs(np.random.default_rng(0).uniform(0.5, 1.0, (6, 10)))
        dsp.write_mels(mels, dsp.MelSpectrogram(data=data, hop=128))
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
        dsp.write_mels(mels, dsp.MelSpectrogram(data=np.full((6, 20), 2.0), hop=128))
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
        dsp.write_mels(mels, dsp.MelSpectrogram(data=data.astype(float), hop=128))
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
        oracle = brute_blur_2d(data[:, 11:19].astype(float), dsp.gaussian_kernel(5, 1.0))
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


# A complete region report for write_two_note_mels' 80 frames, its
# points field to be filled in.
REPORT = (
    '{"total_frames": 80, "hop": 128, "points": %s, "regions": %s, '
    '"params": {"k": 9, "w": 8, "eps": 1e-06, "lambda": 2.0}}'
)


class TestBlurRegionReportShape:
    """A region report that is JSON of the wrong shape, or that was
    written for a spectrogram of another frame count or hop, is an input
    error."""

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            REPORT % ("[40]", "null"),
            "[" * 100_000,
            # a bound or point that is not an integer is not rounded to one
            REPORT % ("[40]", "[[1.7, 5]]"),
            REPORT % ("[40]", '[["3", "5"]]'),
            REPORT % ("[40]", "[[false, true]]"),
            REPORT.replace('"points": %s, ', "") % "[[36, 44]]",
            REPORT % ("null", "[[36, 44]]"),
            REPORT % ("[1e999]", "[[36, 44]]"),
            REPORT % ("[40.0]", "[[36, 44]]"),
            REPORT % ('["40"]', "[[36, 44]]"),
            REPORT % ("[40, 20]", "[[16, 24], [36, 44]]"),
            REPORT % ("[80]", "[[76, 80]]"),
            # the two-note spectrogram has 80 frames at hop 128
            REPORT.replace('"total_frames": 80', '"total_frames": 79') % ("[40]", "[[36, 44]]"),
            REPORT.replace('"total_frames": 80', '"total_frames": 148') % ("[40]", "[[36, 44]]"),
            REPORT.replace('"total_frames": 80', '"total_frames": 80.0') % ("[40]", "[[36, 44]]"),
            REPORT.replace('"hop": 128', '"hop": 64') % ("[40]", "[[36, 44]]"),
            REPORT.replace('"hop": 128', '"hop": "128"') % ("[40]", "[[36, 44]]"),
        ],
        ids=[
            "top_level_list", "regions_null", "deep_nesting", "float_bound", "string_bounds", "bool_bounds",
            "points_missing", "points_null", "points_inf", "float_point", "string_point", "unsorted_points",
            "point_out_of_range", "fewer_frames", "more_frames", "float_frames", "other_hop", "string_hop",
        ],
    )
    def test_exit2(self, tmp_path, capsys, text):
        mels = tmp_path / "in.mels"
        write_two_note_mels(mels)
        report = tmp_path / "regions.json"
        report.write_text(text)
        code, out, err = run_cli(
            capsys, "blur", str(mels), str(tmp_path / "out.mels"), "--regions", str(report)
        )
        assert_one_line_input_error(code, out, err)
        assert "bad region report" in err
        assert not (tmp_path / "out.mels").exists()


def test_blur_region_report_of_another_file_exit2(tmp_path, capsys):
    # blurring the regions of a report written for another spectrogram would blur the wrong frames
    short, longer = tmp_path / "short.mels", tmp_path / "long.mels"
    write_two_note_mels(short)
    dsp.write_mels(longer, render_mel(DatasetConfig().score(((220.0, 40), (880.0, 50))), seed=0))
    code, out, _ = run_cli(capsys, "analyze", str(short), "--json")
    assert code == 0 and json.loads(out)["regions"]
    report = tmp_path / "regions.json"
    report.write_text(out)
    code, out, err = run_cli(
        capsys, "blur", str(longer), str(tmp_path / "out.mels"), "--regions", str(report)
    )
    assert_one_line_input_error(code, out, err)
    assert "total_frames is 80" in err and "90" in err


class TestManifestIntegerOverflow:
    def test_region_window_1e999_exit2(self, dataset_dir, tmp_path, capsys):
        header, *records = (dataset_dir / "manifest.jsonl").read_text().splitlines()
        header = json.loads(header)
        header["config"]["region_window"] = float("inf")  # json.dumps writes Infinity
        bad = dataset_dir / "overflow.jsonl"  # beside the MELS files it names
        bad.write_text("\n".join([json.dumps(header).replace("Infinity", "1e999"), *records]) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"total_steps": 1, "hidden": 2, "depth": 1, "step_dim": 2}))
        code, out, err = run_cli(capsys, "train", str(cfg), str(bad))
        assert_one_line_input_error(code, out, err)
        assert "region_window" in err


class TestManifestVersion:
    def test_version_1_manifest_exit2(self, dataset_dir, trained, capsys):
        # the per-record layout of version 1, which embedded every
        # annotation and repeated the shared fields on each line
        notes = [[220.0, 20], [440.0, 20]]
        score = {"frame": 512, "hop": 128, "n_mels": 80, "notes": notes, "sample_rate": 44100}
        record = {
            "index": 0,
            "gt": "gt_0000.mels",
            "ref": "ref_0000.mels",
            "score": score,
            "regions": [[16, 24]],
            "region_window": 8,
            "cond": [[-1.0] * 20 + [1.0] * 20, [1.0] * 40],
            "norm": {"lo": -11.5, "hi": 0.5},
            "dataset_seed": 1,
        }
        old = dataset_dir / "v1.jsonl"  # beside the MELS files it names
        old.write_text(json.dumps(record, sort_keys=True) + "\n")
        code, out, err = run_cli(capsys, "eval", str(trained[0]), str(old), "--steps", "2")
        assert_one_line_input_error(code, out, err)
        assert "gendata" in err


class TestManifestNoteTypes:
    """A note's duration must be an integer and its pitch a number: a
    duration of 24.5 is not read as 24, nor a pitch "440.0" as 440.0."""

    @pytest.mark.parametrize("field", ["duration", "pitch"])
    def test_eval_exit2(self, trained, dataset_dir, capsys, field):
        header, record, *records = (dataset_dir / "manifest.jsonl").read_text().splitlines()
        record = json.loads(record)
        pitch, dur = record["notes"][0]
        record["notes"][0] = [pitch, dur + 0.5] if field == "duration" else [str(pitch), dur]
        bad = dataset_dir / "bad_note.jsonl"  # beside the MELS files it names
        bad.write_text("\n".join([header, json.dumps(record), *records]) + "\n")
        code, out, err = run_cli(capsys, "eval", str(trained[0]), str(bad), "--steps", "2")
        assert_one_line_input_error(code, out, err)
        assert field in err


class TestMelBinMismatch:
    """A checkpoint and a manifest, or a training and an evaluation
    manifest, that disagree on the mel-bin count are an input error
    naming both files."""

    @pytest.fixture(scope="class")
    def manifest_40(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("data40")
        return synthgen.write_dataset(synthgen.make_dataset(2, 1, synthgen.DatasetConfig(n_mels=40)), out)

    @pytest.mark.parametrize("command", ["eval", "sample"])
    def test_checkpoint_vs_manifest_exit2(self, trained, manifest_40, tmp_path, capsys, command):
        argv = [command, str(trained[0]), manifest_40]
        if command == "sample":
            argv.append(str(tmp_path / "x.mels"))
        code, out, err = run_cli(capsys, *argv, "--steps", "2")
        assert_one_line_input_error(code, out, err)
        assert str(trained[0]) in err and manifest_40 in err

    def test_ablate_eval_manifest_exit2_before_training(
        self, dataset_dir, manifest_40, tmp_path, capsys, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(trainer, "run_in_pool", calls.append)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"total_steps": 1, "hidden": 2, "depth": 1, "step_dim": 2}))
        manifest = str(dataset_dir / "manifest.jsonl")
        code, out, err = run_cli(
            capsys, "ablate", str(cfg_path), manifest, "--eval-manifest", manifest_40, "--steps", "2"
        )
        assert_one_line_input_error(code, out, err)
        assert manifest in err and manifest_40 in err
        assert calls == []


def test_ablate_eval_manifest_scores_the_held_out_items(tmp_path, capsys):
    # every variant and step count is scored on the held-out manifest's
    # entries, n_mels x its total frames, not on the training set's
    train_dir, held_dir = tmp_path / "train", tmp_path / "held"
    for out, n, seed in ((train_dir, "3", "1"), (held_dir, "2", "7")):
        assert run_cli(capsys, "gendata", "--n", n, "--seed", seed, "--out", str(out))[0] == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"total_steps": 2, "batch_size": 1, "hidden": 6, "depth": 1,
                                    "step_dim": 4, "schedule_T": 10, "seed": 0}))
    code, out, _ = run_cli(
        capsys, "ablate", str(cfg_path), str(train_dir / "manifest.jsonl"),
        "--eval-manifest", str(held_dir / "manifest.jsonl"), "--steps", "2", "--json",
    )
    assert code == 0
    table = json.loads(out)

    def entries(directory):
        dataset = synthgen.load_dataset(directory / "manifest.jsonl")
        return sum(s.gt_mel.data.size for s in dataset.samples)

    held, train = entries(held_dir), entries(train_dir)
    assert held != train
    scored = [v["metrics"] for v in table["variants"].values()] + list(table["steps"].values())
    assert len(scored) == len(trainer.ABLATION_VARIANTS) + 1
    for metrics in scored:
        assert metrics["n_region"] + metrics["n_nonregion"] == held


class TestManifestNorm:
    @pytest.mark.parametrize(
        "norm",
        [
            '{"lo": 0, "hi": 1e999}',
            '{"lo": -1e999, "hi": 0}',
            '{"lo": 0, "hi": NaN}',
            '{"lo": 1, "hi": 1}',
            '{"lo": "-11", "hi": 1}',
            '{"lo": false, "hi": 1}',
        ],
    )
    def test_unusable_norm_exit2(self, trained, dataset_dir, capsys, norm):
        # a non-finite norm would turn every metric into NaN, lo >= hi
        # cannot be normalized against, and a string or a bool is not a number
        header, *records = (dataset_dir / "manifest.jsonl").read_text().splitlines()
        header = json.loads(header)
        header["norm"] = "SLOT"
        bad = dataset_dir / "unusable.jsonl"  # beside the MELS files it names
        bad.write_text("\n".join([json.dumps(header).replace('"SLOT"', norm), *records]) + "\n")
        code, out, err = run_cli(capsys, "eval", str(trained[0]), str(bad), "--steps", "2")
        assert_one_line_input_error(code, out, err)
        assert "norm" in err


class TestManifestDatasetSeed:
    @pytest.mark.parametrize("seed", [7.9, True, "7"], ids=["float", "bool", "string"])
    def test_non_integer_seed_exit2(self, trained, dataset_dir, capsys, seed):
        header, *records = (dataset_dir / "manifest.jsonl").read_text().splitlines()
        bad = dataset_dir / "bad_seed.jsonl"  # beside the MELS files it names
        bad.write_text("\n".join([json.dumps({**json.loads(header), "dataset_seed": seed}), *records]) + "\n")
        code, out, err = run_cli(capsys, "eval", str(trained[0]), str(bad), "--steps", "2")
        assert_one_line_input_error(code, out, err)
        assert "dataset_seed" in err


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
        header, *records = (tmp_path / "manifest.jsonl").read_text().splitlines()
        jsonschema.validate(json.loads(header), load_schema("manifest_header.schema.json"))
        assert len(records) == 2
        for record in records:
            jsonschema.validate(json.loads(record), load_schema("manifest_record.schema.json"))

    def test_env_var_out_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REFDIFF_OUT_DIR", str(tmp_path / "env_out"))
        code, _, _ = run_cli(capsys, "gendata", "--n", "1", "--seed", "0")
        assert code == 0
        assert (tmp_path / "env_out" / "manifest.jsonl").exists()

    def test_bad_n_exit3(self, capsys):
        code, out, err = run_cli(capsys, "gendata", "--n", "0")
        assert (code, out, err) == (3, "", "parameter error: n must be >= 1\n")


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
        [("beta_min", "x"), ("batch_size", 2.5), ("blur", "yes"), ("learning_rate", float("nan"))],
    )
    def test_wrongly_typed_config_exit3(self, dataset_dir, tmp_path, capsys, field, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"total_steps": 1, "hidden": 2, "depth": 1, "step_dim": 2, field: value}))
        code, out, err = run_cli(capsys, "train", str(bad), str(dataset_dir / "manifest.jsonl"))
        assert code == 3
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and field in err

    @pytest.mark.parametrize("field", ["depth", "hidden"])
    def test_zero_size_config_exit3(self, dataset_dir, tmp_path, capsys, field):
        # a zero depth or width has no parameters to train; it must not
        # reach the forward pass
        cfg = {"total_steps": 1, "hidden": 2, "depth": 1, "step_dim": 2, field: 0}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        argv = ["train", str(tmp_path / "cfg.json"), str(dataset_dir / "manifest.jsonl"), "--out", str(tmp_path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert len(err.strip().splitlines()) == 1 and f"{field}=0" in err

    def test_mixed_manifest_exit2(self, dataset_dir, tmp_path, capsys):
        # a record whose ref has 40 mel bins where its score, and its gt,
        # have 80: input, not a parameter error
        header, record, *_ = (dataset_dir / "manifest.jsonl").read_text().splitlines()
        ref = dsp.read_mels(dataset_dir / "ref_0000.mels")
        dsp.write_mels(dataset_dir / "ref40.mels", dataclasses.replace(ref, data=ref.data[:40]))
        mixed = dataset_dir / "mixed.jsonl"
        mixed.write_text("\n".join([header, json.dumps({**json.loads(record), "ref": "ref40.mels"})]) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"total_steps": 1, "hidden": 2, "depth": 1, "step_dim": 2}))
        code, out, err = run_cli(capsys, "train", str(cfg), str(mixed))
        assert_one_line_input_error(code, out, err)
        assert "(80, " in err and "(40, " in err

    @pytest.mark.parametrize("change", ["log", "hop"])
    def test_ref_unlike_its_score_exit2(self, dataset_dir, tmp_path, capsys, change):
        # a log-domain ref, or one framed at another hop, is an input
        # error when the manifest loads, not a failure inside training
        header, record, *_ = (dataset_dir / "manifest.jsonl").read_text().splitlines()
        ref = dsp.read_mels(dataset_dir / "ref_0000.mels")
        edit = {"is_log": True} if change == "log" else {"hop": 2 * ref.hop}
        dsp.write_mels(dataset_dir / f"ref_{change}.mels", dataclasses.replace(ref, **edit))
        bad = dataset_dir / f"ref_{change}.jsonl"
        bad.write_text("\n".join([header, json.dumps({**json.loads(record), "ref": f"ref_{change}.mels"})]) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"total_steps": 1, "hidden": 2, "depth": 1, "step_dim": 2}))
        code, out, err = run_cli(capsys, "train", str(cfg), str(bad), "--out", str(tmp_path))
        assert_one_line_input_error(code, out, err)
        assert "ref must be linear-domain" in err


    def test_one_bin_manifest_exit2(self, tmp_path, capsys):
        # the detector needs a low and a high band; a one-bin dataset is a
        # bad input file, rejected when the manifest loads
        synthgen.write_dataset(synthgen.make_dataset(2, 1), tmp_path)
        manifest = tmp_path / "manifest.jsonl"
        for mels in tmp_path.glob("*.mels"):
            mel = dsp.read_mels(mels)
            dsp.write_mels(mels, dataclasses.replace(mel, data=mel.data[:1]))
        header, *records = manifest.read_text().splitlines()
        header = json.loads(header)
        header["config"]["n_mels"] = 1
        manifest.write_text("\n".join([json.dumps(header), *records]) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"total_steps": 1, "hidden": 2, "depth": 1, "step_dim": 2}))
        code, out, err = run_cli(capsys, "train", str(cfg), str(manifest), "--out", str(tmp_path))
        assert_one_line_input_error(code, out, err)
        assert "n_mels" in err


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
        # version 1 has version 2's layout, not this one's, and no output
        # skip path; loading it would silently run a different network
        ckpt_path, _ = trained
        blob = bytearray(ckpt_path.read_bytes())
        blob[4:8] = (1).to_bytes(4, "little")
        old = tmp_path / "v1.rdck"
        old.write_bytes(bytes(blob))
        code, out, err = run_cli(capsys, "eval", str(old), str(dataset_dir / "manifest.jsonl"))
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and "version 1" in err

    def test_version2_checkpoint_exit2(self, trained, dataset_dir, tmp_path, capsys):
        # version 2 holds the same values with each conv weight transposed;
        # read as version 3 it would run a different network
        ckpt_path, _ = trained
        blob = bytearray(ckpt_path.read_bytes())
        blob[4:8] = (2).to_bytes(4, "little")
        old = tmp_path / "v2.rdck"
        old.write_bytes(bytes(blob))
        code, out, err = run_cli(capsys, "eval", str(old), str(dataset_dir / "manifest.jsonl"))
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and "version 2" in err

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

    @pytest.mark.parametrize("key, value", [("depth", 0), ("hidden", -3), ("kernel", 2)])
    def test_invalid_arch_size_exit2(self, trained, dataset_dir, tmp_path, capsys, key, value):
        blob = self._edit_header(trained[0].read_bytes(), lambda h: h["arch"].update({key: value}))
        code, out, err = self._eval_blob(blob, dataset_dir, tmp_path, capsys)
        assert_one_line_input_error(code, out, err)
        assert key in err

    def test_wrongly_typed_config_exit2(self, trained, dataset_dir, tmp_path, capsys):
        blob = self._edit_header(trained[0].read_bytes(), lambda h: h["config"].update(beta_min="x"))
        code, out, err = self._eval_blob(blob, dataset_dir, tmp_path, capsys)
        assert_one_line_input_error(code, out, err)
        assert "beta_min" in err

    @pytest.mark.parametrize(
        "norm", [{"lo": 0, "hi": math.inf}, {"lo": 0, "hi": math.nan}, {"lo": 1, "hi": 1}, {"lo": "-11", "hi": 1}]
    )
    def test_unusable_norm_exit2(self, trained, dataset_dir, tmp_path, capsys, norm):
        # an infinite hi maps every value to -1 and still scores
        blob = self._edit_header(trained[0].read_bytes(), lambda h: h.update(norm=norm))
        code, out, err = self._eval_blob(blob, dataset_dir, tmp_path, capsys)
        assert_one_line_input_error(code, out, err)
        assert "norm" in err

    @pytest.mark.parametrize("key", ["hidden", "depth", "step_dim", "kernel"])
    def test_config_sizes_give_way_to_arch(self, trained, dataset_dir, tmp_path, capsys, key):
        # a header whose config also carries a size loads, and the arch
        # that shapes the parameters overrides it, even where they disagree
        blob = self._edit_header(trained[0].read_bytes(), lambda h: h["config"].update({key: h["arch"][key] + 2}))
        path = tmp_path / "sizes_in_config.rdck"
        path.write_bytes(blob)
        args = (str(dataset_dir / "manifest.jsonl"), "--steps", "3", "--json")
        edited = run_cli(capsys, "eval", str(path), *args)
        assert edited == run_cli(capsys, "eval", str(trained[0]), *args)
        assert edited[0] == 0

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
        blob = b"RDCK" + struct.pack("<II", denoiser.CHECKPOINT_VERSION, len(header)) + header
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

    @pytest.mark.parametrize("steps", [[], ["24", "51"], ["0"]], ids=["default", "51", "0"])
    def test_steps_outside_schedule_exit3_before_training(
        self, dataset_dir, tmp_path, capsys, monkeypatch, steps
    ):
        calls = []
        monkeypatch.setattr(trainer, "run_in_pool", calls.append)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"schedule_T": 50}))
        step_args = ["--steps", *steps] if steps else []
        code, out, err = run_cli(
            capsys, "ablate", str(cfg_path), str(dataset_dir / "manifest.jsonl"), *step_args
        )
        assert code == 3
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and "1..50" in err
        assert calls == []

    def test_variants_scored_at_full_chain(self, dataset_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"total_steps": 2, "batch_size": 1, "hidden": 2, "depth": 1, "step_dim": 2, "schedule_T": 50})
        )
        code, out, _ = run_cli(
            capsys, "ablate", str(cfg_path), str(dataset_dir / "manifest.jsonl"),
            "--steps", "24", "50", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["eval"]["steps"] == 50
        assert set(doc["steps"]) == {"24", "50"}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_in_a_worker_exit4(self, dataset_dir, tmp_path, capsys):
        # the worker runs under this test's filters, so it overflows
        # quietly, and the error it then raises reaches main
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"total_steps": 3, "batch_size": 1, "hidden": 2, "depth": 1,
                                        "step_dim": 2, "learning_rate": 1e100}))
        code, out, err = run_cli(capsys, "ablate", str(cfg_path), str(dataset_dir / "manifest.jsonl"))
        assert (code, out, err) == (4, "", "numerical failure: non-finite loss at step 1\n")

    def test_memory_error_in_a_worker_exit3(self, dataset_dir, tmp_path, capsys, monkeypatch):
        # faked: a real allocation this large could succeed on a host that
        # overcommits memory; the training set raises it in the worker
        from test_trainer import JobProbe

        message = "Unable to allocate 745 GiB for an array with shape (100000000000,)"
        real = synthgen.load_dataset
        monkeypatch.setattr(
            synthgen, "load_dataset", lambda path: JobProbe(real(path), tmp_path / "starts", MemoryError(message))
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"total_steps": 1, "hidden": 2, "depth": 1, "step_dim": 2}))
        code, out, err = run_cli(capsys, "ablate", str(cfg_path), str(dataset_dir / "manifest.jsonl"))
        assert (code, out, err) == (3, "", f"parameter error: {message}\n")
        assert (tmp_path / "starts").exists()


class TestScheduleTooLarge:
    """A schedule length too large to allocate ends in one stderr line.

    The allocation failure is faked: on a host that overcommits memory, a
    real request for 10^11 float64 values could succeed and then exhaust
    the machine's memory.
    """

    T = 10**11

    @pytest.fixture(autouse=True)
    def fake_allocation_failure(self, monkeypatch):
        real = diffusion.make_schedule

        def make_schedule(T, *args):
            if T >= self.T:
                raise MemoryError(f"Unable to allocate {T * 8 / 2**30:.0f} GiB for an array with shape ({T},)")
            return real(T, *args)

        monkeypatch.setattr(diffusion, "make_schedule", make_schedule)
        monkeypatch.setattr(trainer, "make_schedule", make_schedule)

    @pytest.mark.parametrize("command", ["eval", "sample"])
    def test_checkpoint_schedule_exit2(self, trained, dataset_dir, tmp_path, capsys, command):
        blob = TestEvalCmd._edit_header(trained[0].read_bytes(), lambda h: h["config"].update(schedule_T=self.T))
        path = tmp_path / "huge.rdck"
        path.write_bytes(blob)
        argv = [command, str(path), str(dataset_dir / "manifest.jsonl")]
        if command == "sample":
            argv.append(str(tmp_path / "out.mels"))
        assert_one_line_input_error(*run_cli(capsys, *argv))

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_config_schedule_exit3(self, dataset_dir, tmp_path, capsys, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"total_steps": 1, "hidden": 2, "depth": 1, "step_dim": 2, "schedule_T": self.T})
        )
        argv = [command, str(cfg_path), str(dataset_dir / "manifest.jsonl")]
        if command == "train":
            argv += ["--out", str(tmp_path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("parameter error:")


class TestOldConfigKeys:
    """Files that still carry the removed ``eval_every`` and ``eval_steps``
    settings load as before: unknown config keys are ignored."""

    OLD = {"eval_every": 3, "eval_steps": 4}

    def test_train_config(self, dataset_dir, tmp_path, capsys):
        base = {"total_steps": 1, "hidden": 2, "depth": 1, "step_dim": 2}
        assert trainer.TrainConfig.from_json({**base, **self.OLD}) == trainer.TrainConfig.from_json(base)
        cfg_path = tmp_path / "old.json"
        cfg_path.write_text(json.dumps({**base, **self.OLD}))
        code, _, _ = run_cli(
            capsys, "train", str(cfg_path), str(dataset_dir / "manifest.jsonl"), "--out", str(tmp_path)
        )
        assert code == 0
        curve = json.loads((tmp_path / "model_loss.json").read_text())
        assert set(curve) == {"loss_curve", "config"}
        assert curve["config"] == dataclasses.asdict(trainer.TrainConfig.from_json(base))

    def test_checkpoint_header(self, trained, dataset_dir, tmp_path, capsys):
        old = tmp_path / "old.rdck"
        old.write_bytes(TestEvalCmd._edit_header(trained[0].read_bytes(), lambda h: h["config"].update(self.OLD)))
        old_run, new_run = (
            run_cli(capsys, "eval", str(path), str(dataset_dir / "manifest.jsonl"), "--steps", "10", "--json")
            for path in (old, trained[0])
        )
        assert old_run[0] == 0
        assert old_run == new_run


class TestHeaderWithSchedule:
    """A checkpoint whose header still stores the schedule beside the
    config, and whose config still carries the reference's log floor,
    loads as before: the schedule is rebuilt from the config, and the
    reference takes its dataset's floor."""

    def test_eval_unchanged(self, trained, dataset_dir, tmp_path, capsys):
        def add_removed_keys(header):
            cfg = header["config"]
            header["schedule"] = {
                "T": cfg["schedule_T"], "beta_min": cfg["beta_min"], "beta_max": cfg["beta_max"], "kind": "linear"
            }
            cfg["log_floor"] = 1e-5

        old = tmp_path / "old.rdck"
        old.write_bytes(TestEvalCmd._edit_header(trained[0].read_bytes(), add_removed_keys))
        old_run, new_run = (
            run_cli(capsys, "eval", str(path), str(dataset_dir / "manifest.jsonl"), "--steps", "10", "--json")
            for path in (old, trained[0])
        )
        assert old_run[0] == 0
        assert old_run == new_run


class TestDefaultSteps:
    """``eval`` and ``sample`` run the checkpoint's full chain unless
    ``--steps`` says otherwise, and echo the count they used."""

    @pytest.fixture(scope="class")
    def short_chain(self, tmp_path_factory, dataset_dir):
        out = tmp_path_factory.mktemp("t50")
        cfg_path = out / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"total_steps": 1, "batch_size": 1, "hidden": 2, "depth": 1, "step_dim": 2, "schedule_T": 50}
        ))
        argv = ["train", str(cfg_path), str(dataset_dir / "manifest.jsonl"), "--out", str(out)]
        assert cli.main(argv) == 0
        return out / "model.rdck"

    def test_eval(self, short_chain, dataset_dir, capsys):
        manifest = str(dataset_dir / "manifest.jsonl")
        code, out, _ = run_cli(capsys, "eval", str(short_chain), manifest, "--json")
        assert code == 0
        assert json.loads(out)["steps"] == 50
        _, explicit, _ = run_cli(capsys, "eval", str(short_chain), manifest, "--steps", "50", "--json")
        assert explicit == out

    def test_sample(self, short_chain, dataset_dir, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "sample", str(short_chain), str(dataset_dir / "manifest.jsonl"),
            str(tmp_path / "x.mels"), "--json",
        )
        assert code == 0
        assert json.loads(out)["steps"] == 50

    @pytest.mark.parametrize("command", ["eval", "sample"])
    def test_explicit_steps_still_checked(self, short_chain, dataset_dir, tmp_path, capsys, command):
        argv = [command, str(short_chain), str(dataset_dir / "manifest.jsonl")]
        if command == "sample":
            argv.append(str(tmp_path / "x.mels"))
        code, out, err = run_cli(capsys, *argv, "--steps", "51")
        assert code == 3 and out == ""
        assert "1..50" in err

    def test_default_checkpoint_runs_100_steps(self, trained, dataset_dir, capsys):
        code, out, _ = run_cli(capsys, "eval", str(trained[0]), str(dataset_dir / "manifest.jsonl"), "--json")
        assert code == 0
        assert json.loads(out)["steps"] == 100


class TestOutputPaths:
    """An output that cannot be written exits 2 with one line naming it;
    ``train`` and ``ablate`` find out before they train."""

    @pytest.fixture
    def train_calls(self, monkeypatch):
        # train trains in process, ablate through the pool
        calls = []
        monkeypatch.setattr(trainer, "train", lambda *args: calls.append(args))
        monkeypatch.setattr(trainer, "run_in_pool", calls.append)
        return calls

    @staticmethod
    def assert_names(path, code, out, err):
        assert_one_line_input_error(code, out, err)
        assert str(path) in err

    def test_sample(self, trained, dataset_dir, tmp_path, capsys):
        dest = tmp_path / "missing" / "out.mels"
        self.assert_names(dest, *run_cli(
            capsys, "sample", str(trained[0]), str(dataset_dir / "manifest.jsonl"), str(dest), "--steps", "2"
        ))

    def test_blur(self, tmp_path, capsys):
        mels = tmp_path / "two.mels"
        write_two_note_mels(mels)
        dest = tmp_path / "missing" / "b.mels"
        self.assert_names(dest, *run_cli(capsys, "blur", str(mels), str(dest)))

    def test_gendata_out_is_a_file(self, tmp_path, capsys):
        dest = tmp_path / "file"
        dest.write_text("")
        self.assert_names(dest, *run_cli(capsys, "gendata", "--n", "1", "--out", str(dest)))

    @pytest.mark.parametrize("where", ["out-is-a-file", "name-in-missing-dir"])
    def test_train(self, dataset_dir, tmp_path, capsys, train_calls, where):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"total_steps": 1, "hidden": 2, "depth": 1, "step_dim": 2}))
        argv = ["train", str(cfg_path), str(dataset_dir / "manifest.jsonl")]
        if where == "out-is-a-file":
            dest = tmp_path / "file"
            dest.write_text("")
            argv += ["--out", str(dest)]
        else:
            dest = tmp_path / "sub" / "model.rdck"
            argv += ["--out", str(tmp_path), "--name", "sub/model"]
        self.assert_names(dest, *run_cli(capsys, *argv))
        assert train_calls == []

    @pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
    def test_ablate(self, dataset_dir, tmp_path, capsys, train_calls, where):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"total_steps": 1, "hidden": 2, "depth": 1, "step_dim": 2}))
        dest = tmp_path / "missing" / "t.json" if where == "missing-dir" else tmp_path
        self.assert_names(dest, *run_cli(
            capsys, "ablate", str(cfg_path), str(dataset_dir / "manifest.jsonl"), "--out", str(dest)
        ))
        assert train_calls == []


def test_cli_import_leaves_scipy_io_out():
    """The WAV reader is refdiff's own: importing the CLI must not bring
    in scipy's parser."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = "import sys, refdiff.cli; print('scipy.io' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src)
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


NO_SCIPY_PIPELINE = """
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
from refdiff import cli

out, cfg = sys.argv[1:]
manifest = out + "/manifest.jsonl"
for argv in (
    ["gendata", "--n", "2", "--out", out],
    ["train", cfg, manifest, "--out", out],
    ["sample", "--steps", "2", out + "/model.rdck", manifest, out + "/sample.mels"],
):
    code = cli.main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
"""


def test_cli_runs_without_scipy(tmp_path):
    """scipy is a test dependency only: with every scipy import refused, the
    CLI still generates data, trains and samples."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"total_steps": 2, "batch_size": 2, "hidden": 2, "depth": 1, "step_dim": 2}))
    run = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_PIPELINE, str(tmp_path), str(cfg_path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "sample.mels").is_file()
