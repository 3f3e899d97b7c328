"""The benchmark's workloads: set-up, one measured operation, output checks.

Every workload is a closed loop with one caller: the runner starts the
next operation only when the previous one has returned.  An operation is
one seeded call into refdiff that always does the same work, so every
operation of a run must produce bit-identical outputs; the runner
compares their digests.  Set-up makes the inputs from the workload seed;
the program receives only those inputs.

The model workloads count throughput in nominal items of
``NOMINAL_FRAMES`` frames: the cost of a denoiser pass grows with the
item's length, and seeds draw different length mixes (44 to 279 frames),
so frames per second divided by the expected item length is the figure
that does not move with the seed.  ``prep`` counts real items, because
most of its per-item cost (CLI start-up, the checkpoint round trip) does
not depend on the length.

Operations are timed on the process CPU clock.  refdiff runs on one
thread (BLAS is pinned to one) and its files stay in the page cache, so
on an idle machine CPU time equals wall time; on a shared virtual
machine it leaves out the time the hypervisor took the CPU away (up to
19% in ``vmstat``'s steal column), though not the slowdown that load on
sibling hardware threads causes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace

import numpy as np

from refdiff import cli, denoiser, diffusion, dsp, synthgen, trainer, transition

clock = time.process_time

# Expected item length under the default DatasetConfig: 5.5 notes of 24 frames.
NOMINAL_FRAMES = 132

# The acceptance recipe: batch 8, H=64, depth 4, K=3, lr 1e-4, lambda 2,
# blur, weighting and the reference all enabled.
RECIPE = trainer.TrainConfig(
    learning_rate=1e-4,
    batch_size=8,
    lambda_in=2.0,
    blur=True,
    weighting=True,
    reference=True,
    hidden=64,
    depth=4,
    kernel=3,
    seed=0,
)


@dataclass
class OpResult:
    """One measured operation: its time, its work and its outputs."""

    seconds: float
    items: float
    digest: str
    output_mse: float
    problems: list[str] = field(default_factory=list)
    item_ms: list[float] = field(default_factory=list)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _finite(name: str, *arrays) -> list[str]:
    return [] if all(np.all(np.isfinite(a)) for a in arrays) else [f"{name} is not finite"]


def drawn_frames(config: trainer.TrainConfig, dataset: synthgen.SynthDataset) -> int:
    """Frames ``trainer.train`` feeds through the denoiser.

    Replays train's documented draw order: per step the batch indices,
    then per item one step and one noise draw.
    """
    rng = np.random.default_rng(config.seed)
    frames = 0
    for _ in range(config.total_steps):
        for j in rng.integers(0, len(dataset), size=config.batch_size):
            shape = dataset[j].gt_mel.data.shape
            rng.integers(1, config.schedule_T + 1)
            rng.standard_normal(shape)
            frames += shape[1]
    return frames


class Train:
    """``trainer.train`` with the acceptance recipe for a fixed step count."""

    name = "train"

    def __init__(self, items: int = 64, steps: int = 8):
        self.items = items
        self.config = replace(RECIPE, total_steps=steps)

    def items_per_op(self) -> int:
        return self.config.total_steps * self.config.batch_size

    def setup(self, seed: int, workdir: str) -> dict:
        return {"dataset": synthgen.make_dataset(self.items, seed)}

    def finish_setup(self, state: dict) -> list[str]:
        state["frames"] = drawn_frames(self.config, state["dataset"])
        return []

    def run(self, state: dict) -> OpResult:
        start = clock()
        ckpt, history = trainer.train(self.config, state["dataset"])
        seconds = clock() - start
        curve = np.array(history.loss_curve)
        problems = _finite("loss curve", curve)
        problems += _finite("parameters", *(arr for _, arr in ckpt.params.named_arrays()))
        if not curve[-1] < curve[0]:
            problems.append(f"final loss {curve[-1]} is not below the first {curve[0]}")
        return OpResult(
            seconds=seconds,
            items=state["frames"] / NOMINAL_FRAMES,
            digest=_digest(curve, *(arr for _, arr in ckpt.params.named_arrays())),
            output_mse=float(curve[-4:].mean()),
            problems=problems,
        )


class Sample:
    """``trainer.evaluate`` over a whole dataset at a fixed step count."""

    def __init__(self, steps: int, items: int = 16, setup_steps: int = 4):
        self.steps = steps
        self.items = items
        self.setup_config = replace(RECIPE, total_steps=setup_steps)
        self.name = "sample" if steps == 100 else f"sample{steps}"

    def items_per_op(self) -> int:
        return self.items

    def setup(self, seed: int, workdir: str) -> dict:
        dataset = synthgen.make_dataset(self.items, seed)
        ckpt, _ = trainer.train(self.setup_config, dataset)
        return {"dataset": dataset, "ckpt": ckpt}

    def finish_setup(self, state: dict) -> list[str]:
        state["frames"] = sum(s.gt_mel.n_frames for s in state["dataset"])
        if all(not np.any(w) for w in state["ckpt"].params.zero_w):
            return ["set-up training left every zero-linear injection at zero"]
        return []

    def run(self, state: dict) -> OpResult:
        start = clock()
        metrics = trainer.evaluate(state["ckpt"], state["dataset"], self.steps)
        seconds = clock() - start
        values = metrics.to_json()
        floats = np.array([values["global_mse"], values["region_mse"], values["nonregion_mse"]])
        return OpResult(
            seconds=seconds,
            items=state["frames"] / NOMINAL_FRAMES,
            digest=_digest(floats, np.array([values["n_region"], values["n_nonregion"]])),
            output_mse=metrics.global_mse,
            problems=_finite("metrics", floats),
        )


def tone_sequence(score: synthgen.ScoreSpec, amplitude: float = 0.25) -> dsp.AudioBuffer:
    """Five-harmonic tones at the score's pitches, one hop of samples per frame."""
    parts = []
    for pitch, dur in score.notes:
        t = np.arange(dur * score.hop) / score.sample_rate
        wave = sum(np.sin(2.0 * np.pi * h * pitch * t) / h for h in range(1, 6))
        parts.append(wave)
    samples = np.concatenate(parts)
    return dsp.AudioBuffer(samples=amplitude * samples / np.abs(samples).max(), sample_rate=score.sample_rate)


class Prep:
    """The data path with no model compute, item by item."""

    name = "prep"

    def __init__(self, items: int = 32):
        self.items = items

    def items_per_op(self) -> int:
        return self.items

    def setup(self, seed: int, workdir: str) -> dict:
        dataset = synthgen.make_dataset(self.items, seed)
        tones = [tone_sequence(s.score) for s in dataset]
        params = denoiser.init_params(
            n_mels=dataset[0].gt_mel.n_mels,
            hidden=RECIPE.hidden,
            depth=RECIPE.depth,
            cond_dim=dataset[0].cond.shape[0],
            step_dim=RECIPE.step_dim,
            kernel=RECIPE.kernel,
            seed=seed,
        )
        ckpt = trainer.Checkpoint(
            params=params,
            schedule=diffusion.make_schedule(RECIPE.schedule_T, RECIPE.beta_min, RECIPE.beta_max),
            norm_lo=dataset.norm_lo,
            norm_hi=dataset.norm_hi,
            config=RECIPE,
        )
        return {"seed": seed, "dir": workdir, "tones": tones, "ckpt": ckpt}

    def finish_setup(self, state: dict) -> list[str]:
        return []

    def run(self, state: dict) -> OpResult:
        # Every operation writes fresh files into a fresh directory and
        # deletes them afterwards: on ext4, truncating a just-written file
        # forces a flush, which would make the timing depend on the disk.
        opdir = tempfile.mkdtemp(dir=state["dir"])
        try:
            return self._run(state, opdir)
        finally:
            shutil.rmtree(opdir, ignore_errors=True)

    def _run(self, state: dict, opdir: str) -> OpResult:
        ckpt = state["ckpt"]
        start = clock()
        dataset = synthgen.make_dataset(self.items, state["seed"])
        manifest = synthgen.write_dataset(dataset, opdir)
        loaded = synthgen.load_dataset(manifest)
        seconds = clock() - start

        problems = _mels_roundtrip(dataset, loaded)
        parts = [_read(manifest)]
        item_ms = []
        sq = 0.0
        count = 0
        for i, item in enumerate(loaded):
            ref = os.path.join(opdir, f"ref_{i:04d}.mels")
            blurred = os.path.join(opdir, f"blur_{i:04d}.mels")
            wav = os.path.join(opdir, f"tone_{i:04d}.wav")
            ckpt_path = os.path.join(opdir, f"model_{i:04d}.rdck")
            out = io.StringIO()
            t0 = clock()
            with contextlib.redirect_stdout(out):
                codes = (cli.main(["analyze", ref, "--json"]), cli.main(["blur", ref, blurred]))
            prepared = trainer.prepare_sample(item, RECIPE, loaded.norm_lo, loaded.norm_hi)
            dsp.save_wav(wav, state["tones"][i])
            mel = dsp.mel_spectrogram(dsp.load_wav(wav))
            _, regions = transition.analyze(mel)
            ckpt.save(ckpt_path)
            back = trainer.Checkpoint.load(ckpt_path)
            elapsed = clock() - t0
            seconds += elapsed
            item_ms.append(1e3 * elapsed)

            if codes != (0, 0):
                problems.append(f"item {i}: cli exit codes {codes}")
            problems += _finite(f"item {i} prepared sample", prepared.ref_norm.data, mel.data)
            problems += _rdck_roundtrip(ckpt, back, i)
            diff = prepared.ref_norm.data - prepared.gt
            sq += float((diff * diff).sum())
            count += diff.size
            parts += [
                out.getvalue().replace(opdir, "").encode(),
                _read(blurred),
                prepared.ref_norm.data,
                prepared.weights.data,
                mel.data,
                np.array(regions.regions, dtype=np.int64).reshape(-1),
            ]
            if i == 0:  # every item saves the same checkpoint
                parts.append(_read(ckpt_path))
            os.remove(ckpt_path)
        return OpResult(
            seconds=seconds,
            items=len(dataset),
            digest=_digest(*parts),
            output_mse=sq / count,
            problems=problems,
            item_ms=item_ms,
        )


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _mels_roundtrip(written: synthgen.SynthDataset, loaded: synthgen.SynthDataset) -> list[str]:
    """MELS stores float32, so a round trip must return exactly the float32 values."""
    problems = []
    for i, (a, b) in enumerate(zip(written, loaded)):
        for kind, x, y in (("gt", a.gt_mel, b.gt_mel), ("ref", a.ref_mel, b.ref_mel)):
            expected = x.data.astype("<f4").astype(np.float64)
            if x.data.shape != y.data.shape or expected.tobytes() != y.data.tobytes() or x.hop != y.hop:
                problems.append(f"MELS round trip of item {i} {kind} is not bit-exact")
        if a.cond.tobytes() != b.cond.tobytes() or a.true_regions != b.true_regions:
            problems.append(f"manifest round trip of item {i} changed its annotations")
    if len(written) != len(loaded):
        problems.append("manifest round trip changed the item count")
    return problems


def _rdck_roundtrip(saved: trainer.Checkpoint, loaded: trainer.Checkpoint, i: int) -> list[str]:
    same = all(
        x.tobytes() == y.tobytes() and x.shape == y.shape
        for (_, x), (_, y) in zip(saved.params.named_arrays(), loaded.params.named_arrays())
    )
    same = same and saved.params.arch() == loaded.params.arch() and saved.config == loaded.config
    same = same and (saved.norm_lo, saved.norm_hi) == (loaded.norm_lo, loaded.norm_hi)
    same = same and saved.schedule.to_json() == loaded.schedule.to_json()
    return [] if same else [f"item {i}: RDCK round trip is not bit-exact"]


WORKLOADS = {w.name: w for w in (Train(), Sample(100), Sample(24), Prep())}
