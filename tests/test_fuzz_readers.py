"""Truncated and mutated input files through the CLI: every reader must end
in a documented exit code (0, 2 input, 3 parameter), never a traceback.
A damaged file is an input error, so each reader may end only in 0 or 2
unless a valid file can carry a parameter that the command rejects."""

import contextlib
import io
import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from refdiff import cli, diffusion, dsp, synthgen, trainer
from refdiff import denoiser as dn

FUZZ = settings(
    max_examples=40,
    derandomize=True,  # the same examples on every run, so the gate cannot flake
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One valid file of each format: a tiny checkpoint, a one-item
    manifest with its MELS files, a PCM16 mono WAV and a float32 stereo one."""
    root = tmp_path_factory.mktemp("fuzz")
    dataset = synthgen.make_dataset(1, seed=3)
    manifest = synthgen.write_dataset(dataset, root / "data")
    config = trainer.TrainConfig(hidden=2, depth=1, step_dim=2, schedule_T=10)
    params = dn.init_params(
        n_mels=dataset[0].gt_mel.n_mels,
        hidden=2,
        depth=1,
        cond_dim=dataset[0].cond.shape[0],
        step_dim=2,
        kernel=3,
    )
    ckpt = trainer.Checkpoint(
        params=dn.randomize_params(params, seed=1),
        schedule=diffusion.make_schedule(config.schedule_T, config.beta_min, config.beta_max),
        norm_lo=dataset.norm_lo,
        norm_hi=dataset.norm_hi,
        config=config,
    )
    ckpt_path = root / "model.rdck"
    ckpt.save(ckpt_path)
    wav = root / "tone.wav"
    t = np.arange(4096) / 8000.0
    dsp.save_wav(wav, dsp.AudioBuffer(samples=0.5 * np.sin(2 * np.pi * 440.0 * t), sample_rate=8000))
    # short, so that byte mutations often land in the encoding, channel
    # and block-align fields of its header
    stereo = root / "stereo_f32.wav"
    wavfile.write(stereo, 8000, np.random.default_rng(0).uniform(-1, 1, (8, 2)).astype(np.float32))
    return {
        "root": root,
        "manifest": manifest,
        "mels": os.path.join(root / "data", "ref_0000.mels"),
        "ckpt": str(ckpt_path),
        "wav": str(wav),
        "wav_stereo_f32": str(stereo),
    }


# (offset, width) of the header fields each binary reader checks.  ``damaged``
# alone seldom reaches them: its mutations cluster at the start of the
# file, on the magic, and its cuts fail the size checks first.  So half of
# each binary reader's examples are ``in_fields`` instead.
MELS_FIELDS = [(4, 4), (8, 4), (12, 4), (16, 4), (20, 1)]  # version, F, T, hop, is_log
RDCK_FIELDS = [(4, 4), (8, 4)]  # version, header length


def wav_fields(blob: bytes):
    """RIFF size; fmt tag, channels, rate, byte rate, block align and bits
    (``fmt `` is the first chunk in both test files); data size."""
    return [(4, 4), (20, 2), (22, 2), (24, 4), (28, 4), (32, 2), (34, 2), (blob.index(b"data") + 4, 4)]


@st.composite
def damaged(draw, blob: bytes):
    """``blob`` whole or cut at a random length, then up to four bytes overwritten."""
    out = bytearray(blob[: draw(st.one_of(st.just(len(blob)), st.integers(0, len(blob))))])
    for _ in range(draw(st.integers(0, 4))):
        if out:
            out[draw(st.integers(0, len(out) - 1))] = draw(st.integers(0, 255))
    return bytes(out)


@st.composite
def in_fields(draw, blob: bytes, fields):
    """``blob`` with one to four bytes overwritten inside its header
    ``fields`` ((offset, width) pairs)."""
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        offset, width = draw(st.sampled_from(fields))
        out[offset + draw(st.integers(0, width - 1))] = draw(st.integers(0, 255))
    return bytes(out)


def damaged_or_in_fields(blob: bytes, fields):
    return st.one_of(damaged(blob), in_fields(blob, fields))


def run_on(files, suffix, blob, allowed, argv_of):
    """Write ``blob`` next to the valid files, run the CLI on it and
    require one of the exit codes ``allowed``."""
    fd, path = tempfile.mkstemp(suffix=suffix, dir=os.path.dirname(files["mels"]))
    with os.fdopen(fd, "wb") as fh:
        fh.write(blob)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv_of(path))
    finally:
        os.remove(path)
    assert code in allowed, err.getvalue()
    if code != 0:
        assert len(err.getvalue().strip().splitlines()) == 1


def read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


@FUZZ
@given(data=st.data())
def test_checkpoint(files, data):
    blob = data.draw(damaged_or_in_fields(read(files["ckpt"]), RDCK_FIELDS))
    # a damaged header can set a schedule shorter than --steps 2
    run_on(files, ".rdck", blob, (0, 2, 3), lambda p: ["eval", p, files["manifest"], "--steps", "2"])


@FUZZ
@given(data=st.data())
def test_mels(files, data):
    blob = data.draw(damaged_or_in_fields(read(files["mels"]), MELS_FIELDS))
    run_on(files, ".mels", blob, (0, 2), lambda p: ["analyze", p, "--json"])


@FUZZ
@given(data=st.data())
def test_wav(files, data):
    blob = read(files["wav"])
    blob = data.draw(damaged_or_in_fields(blob, wav_fields(blob)))
    run_on(files, ".wav", blob, (0, 2), lambda p: ["analyze", p, "--json"])


@FUZZ
@given(data=st.data())
def test_wav_float32_stereo(files, data):
    blob = read(files["wav_stereo_f32"])
    blob = data.draw(damaged_or_in_fields(blob, wav_fields(blob)))
    # --k 1 needs only 2 frames, which 8 samples give
    run_on(files, ".wav", blob, (0, 2), lambda p: ["analyze", p, "--k", "1", "--json"])


@FUZZ
@given(data=st.data())
def test_manifest(files, data):
    blob = data.draw(damaged(read(files["manifest"])))
    run_on(files, ".jsonl", blob, (0, 2), lambda p: ["eval", files["ckpt"], p, "--steps", "2"])


@pytest.fixture(scope="module")
def region_report(files):
    """``analyze --json``'s report on the valid MELS file, as ``blur --regions`` reads it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["analyze", files["mels"], "--json"]) == 0
    assert json.loads(out.getvalue())["regions"]
    return out.getvalue().encode()


@FUZZ
@given(data=st.data())
def test_region_report(files, region_report, data):
    blob = data.draw(damaged(region_report))
    blurred = os.path.join(files["root"], "blurred.mels")
    run_on(files, ".json", blob, (0, 2), lambda p: ["blur", files["mels"], blurred, "--regions", p])


# Byte mutations seldom turn valid JSON into valid JSON of another shape,
# so each JSON reader also gets documents with one value swapped for one
# of another type.  The swap is spliced in as text so that 1e999 (which
# json reads as inf) and nesting past the recursion limit reach the reader.
SWAPS = ["null", "[1]", '{"a": 1}', '"x"', "1e999", "[" * 100_000 + "]" * 100_000]
_SLOT = "\x00swap\x00"


def value_paths(doc, path=()):
    """Paths to ``doc`` itself, every dict value and the first element of
    every list, recursively."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from value_paths(value, path + (key,))
    elif isinstance(doc, list) and doc:
        yield from value_paths(doc[0], path + (0,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def swapped(draw, doc, within=()):
    """``doc`` as JSON text with the value at one path under ``within``
    replaced by a value of another type."""
    path = within + draw(st.sampled_from(list(value_paths(_at(doc, within)))))
    if not path:
        return draw(st.sampled_from(SWAPS))
    doc = json.loads(json.dumps(doc))
    _at(doc, path[:-1])[path[-1]] = _SLOT
    return json.dumps(doc).replace(json.dumps(_SLOT), draw(st.sampled_from(SWAPS)))


@FUZZ
@given(data=st.data())
def test_manifest_record_type_swap(files, data):
    """One value swapped inside the header line or inside the first record."""
    lines = read(files["manifest"]).decode().splitlines()
    i = data.draw(st.sampled_from([0, 1]))
    lines[i] = data.draw(swapped(json.loads(lines[i])))
    blob = ("\n".join(lines) + "\n").encode()
    run_on(files, ".jsonl", blob, (0, 2), lambda p: ["eval", files["ckpt"], p, "--steps", "2"])


@FUZZ
@given(data=st.data())
def test_train_config_type_swap(files, data):
    config = {"total_steps": 1, "batch_size": 1, "hidden": 2, "depth": 1, "step_dim": 2, "schedule_T": 10}
    text = data.draw(swapped(config))
    # a dict in place of the whole config is a valid all-defaults config;
    # --steps 0 makes ablate exit 3 right after reading it, before training
    run_on(files, ".json", text.encode(), (2, 3), lambda p: ["ablate", p, files["manifest"], "--steps", "0"])


@FUZZ
@given(data=st.data())
def test_region_report_type_swap(files, region_report, data):
    text = data.draw(swapped(json.loads(region_report)))
    blurred = os.path.join(files["root"], "blurred.mels")
    run_on(files, ".json", text.encode(), (0, 2), lambda p: ["blur", files["mels"], blurred, "--regions", p])


@FUZZ
@given(data=st.data())
def test_checkpoint_header_config_type_swap(files, data):
    blob = read(files["ckpt"])
    (header_len,) = struct.unpack("<I", blob[8:12])
    header = data.draw(swapped(json.loads(blob[12 : 12 + header_len]), within=("config",))).encode()
    blob = blob[:8] + struct.pack("<I", len(header)) + header + blob[12 + header_len :]
    run_on(files, ".rdck", blob, (0, 2), lambda p: ["eval", p, files["manifest"], "--steps", "2"])
