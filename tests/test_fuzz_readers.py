"""Truncated and mutated input files through the CLI: every reader must end
in a documented exit code (0, 2 input, 3 parameter), never a traceback."""

import contextlib
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from refdiff import cli, diffusion, dsp, synthgen, trainer
from refdiff import denoiser as dn

# scipy warns about the truncated WAVs it still reads; the exit code is what counts
pytestmark = pytest.mark.filterwarnings("ignore::scipy.io.wavfile.WavFileWarning")
FUZZ = settings(
    max_examples=40,
    derandomize=True,  # the same examples on every run, so the gate cannot flake
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One valid file of each format: a tiny checkpoint, a one-item
    manifest with its MELS files, and a short WAV."""
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
        schedule=diffusion.make_schedule(10),
        norm_lo=dataset.norm_lo,
        norm_hi=dataset.norm_hi,
        config=config,
    )
    ckpt_path = root / "model.rdck"
    ckpt.save(ckpt_path)
    wav = root / "tone.wav"
    t = np.arange(4096) / 8000.0
    dsp.save_wav(wav, dsp.AudioBuffer(samples=0.5 * np.sin(2 * np.pi * 440.0 * t), sample_rate=8000))
    return {
        "root": root,
        "manifest": manifest,
        "mels": os.path.join(root / "data", "ref_0000.mels"),
        "ckpt": str(ckpt_path),
        "wav": str(wav),
    }


@st.composite
def damaged(draw, blob: bytes):
    """``blob`` whole or cut at a random length, then up to four bytes overwritten."""
    out = bytearray(blob[: draw(st.one_of(st.just(len(blob)), st.integers(0, len(blob))))])
    for _ in range(draw(st.integers(0, 4))):
        if out:
            out[draw(st.integers(0, len(out) - 1))] = draw(st.integers(0, 255))
    return bytes(out)


def run_on(files, suffix, blob, argv_of):
    """Write ``blob`` next to the valid files and run the CLI on it."""
    fd, path = tempfile.mkstemp(suffix=suffix, dir=os.path.dirname(files["mels"]))
    with os.fdopen(fd, "wb") as fh:
        fh.write(blob)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv_of(path))
    finally:
        os.remove(path)
    assert code in (0, 2, 3), err.getvalue()
    if code != 0:
        assert len(err.getvalue().strip().splitlines()) == 1


def read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


@FUZZ
@given(data=st.data())
def test_checkpoint(files, data):
    blob = data.draw(damaged(read(files["ckpt"])))
    run_on(files, ".rdck", blob, lambda p: ["eval", p, files["manifest"], "--steps", "2"])


@FUZZ
@given(data=st.data())
def test_mels(files, data):
    blob = data.draw(damaged(read(files["mels"])))
    run_on(files, ".mels", blob, lambda p: ["analyze", p, "--json"])


@FUZZ
@given(data=st.data())
def test_wav(files, data):
    blob = data.draw(damaged(read(files["wav"])))
    run_on(files, ".wav", blob, lambda p: ["analyze", p, "--json"])


@FUZZ
@given(data=st.data())
def test_manifest(files, data):
    blob = data.draw(damaged(read(files["manifest"])))
    run_on(files, ".jsonl", blob, lambda p: ["eval", files["ckpt"], p, "--steps", "2"])
