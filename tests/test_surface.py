"""The package's surface: every module-level name is read somewhere, the
diffusion core imports nothing else from the package, and no run fact
is stored twice."""

import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from refdiff import cli, denoiser, diffusion, dsp, synthgen, trainer, transition

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def defined_names(tree: ast.Module):
    """Module-level def, class and assignment names, dunders excepted."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def read_names(tree: ast.AST):
    """Every name the code reads: loaded names, attributes, and strings
    (a lookup by name, as ``getattr(module, "load_checkpoint")``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_module_level_name_is_read():
    files = [p for d in (SRC / "refdiff", ROOT / "tests", ROOT / "bench") for p in sorted(d.glob("*.py"))]
    trees = {p: ast.parse(p.read_text(), str(p)) for p in files}
    read = {name for tree in trees.values() for name in read_names(tree)}
    dead = [
        f"{p.stem}.{name}"
        for p in sorted((SRC / "refdiff").glob("*.py"))
        for name in defined_names(trees[p])
        if name not in read
    ]
    assert dead == []


def test_diffusion_and_denoiser_import_nothing_else_from_the_package():
    probe = (
        "import sys, refdiff.diffusion, refdiff.denoiser; "
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'refdiff')))"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC))
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["refdiff", "refdiff.denoiser", "refdiff.diffusion"]


def test_trainer_holds_the_only_pool():
    # ablate and the acceptance fixture share trainer's job and pool, which
    # imports its process machinery only when it runs: at module level it
    # would weigh on every process that imports the trainer
    for p in sorted((ROOT / "tests").glob("*.py")):
        assert {"train_and_evaluate", "run_in_pool"}.isdisjoint(defined_names(ast.parse(p.read_text()))), p.name
    probe = "import sys, refdiff.cli; print(sorted({'multiprocessing', 'concurrent'} & set(sys.modules)))"
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC))
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
    # bench/run.py keeps its own copy of the BLAS variables the pool pins
    pinned = [
        node.value for node in ast.parse((ROOT / "bench" / "run.py").read_text()).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["BLAS_THREAD_VARS"]
    ]
    assert [ast.literal_eval(v) for v in pinned] == [trainer.BLAS_THREAD_VARS]


def test_train_and_dataset_configs_share_no_field():
    # a setting held by both could disagree between them
    train = {f.name for f in dataclasses.fields(trainer.TrainConfig)}
    dataset = {f.name for f in dataclasses.fields(synthgen.DatasetConfig)}
    assert train & dataset == set()


def saved_header(path) -> dict:
    config = trainer.TrainConfig(hidden=2, depth=1, step_dim=2, schedule_T=10)
    params = denoiser.init_params(n_mels=2, hidden=2, depth=1, step_dim=2)
    schedule = diffusion.make_schedule(config.schedule_T, config.beta_min, config.beta_max)
    trainer.Checkpoint(params, schedule, -1.0, 1.0, config).save(path)
    return denoiser.load_checkpoint(path)[1]


def test_checkpoint_header_stores_no_schedule(tmp_path):
    # the schedule is rebuilt from the config on load
    assert set(saved_header(tmp_path / "m.rdck")) == {"arch", "config", "norm"}


def test_checkpoint_header_stores_each_size_once(tmp_path):
    # the sizes live in the arch; the config's copy could disagree with it
    assert set(saved_header(tmp_path / "m.rdck")["config"]).isdisjoint(denoiser.ARCH_KEYS)


def test_each_fact_has_one_home():
    # a field derived from another, or a default restating a config's,
    # could disagree with the value it copies
    assert [f.name for f in dataclasses.fields(dsp.MelSpectrogram)] == ["data", "hop", "is_log"]
    assert dsp.MelSpectrogram(data=np.ones((3, 2)), hop=1).n_mels == 3
    # the smoothed ratio is analyze's first result; its mean is computed where it is compared
    assert not hasattr(transition, "EnergyRatioSeries")
    assert {f.name for f in dataclasses.fields(dsp.MelConfig)} == {"frame", "hop", "n_mels", "fmax"}
    restated = {
        synthgen.ScoreSpec: ["sample_rate", "hop", "n_mels"],
        diffusion.make_schedule: ["beta_min", "beta_max"],
        dsp.log_compress: ["floor"],
        transition.energy_ratio: ["eps"],
        dsp.stft_magnitude: ["frame", "hop", "window"],
        dsp.mel_filterbank: ["n_mels", "fmin", "fmax"],
        trainer.ablation_suite: ["steps_grid"],
    }
    for fn, names in restated.items():
        params = inspect.signature(fn).parameters
        assert [n for n in names if params[n].default is not inspect.Parameter.empty] == [], fn.__name__
    defaults = synthgen.DatasetConfig()
    assert (defaults.hop, defaults.n_mels) == (dsp.MelConfig.hop, dsp.MelConfig.n_mels)
    kernel = inspect.signature(dsp.gaussian_kernel).parameters
    blur = cli.build_parser().parse_args(["blur", "in.mels", "out.mels"])
    assert (blur.kernel_size, blur.sigma) == (kernel["size"].default, kernel["sigma"].default)
    assert not hasattr(synthgen, "normalize_f0") and not hasattr(trainer.TrainConfig, "to_json")
    # regions carry the centres they were built around, and one function samples an item
    regions = [f.name for f in dataclasses.fields(transition.TransitionRegionSet)]
    assert regions == ["regions", "points", "total_frames"]
    assert "series" not in inspect.signature(transition.region_report).parameters
    assert not hasattr(trainer, "sample_prepared") and not hasattr(trainer, "gt_in_checkpoint_norm")
    # one reverse step: the posterior mean at the x0 estimate, its previous step always given
    assert not hasattr(diffusion, "reverse_mean") and not hasattr(diffusion, "clipped_posterior_mean")
    assert inspect.signature(diffusion.p_step).parameters["t_prev"].default is inspect.Parameter.empty
    # a branch runs its convolution inline, and its trace keeps activations, not weights
    assert not hasattr(denoiser, "_conv_time")
    # each conv weight is stored as the matrix its windows multiply, so nothing flattens it
    assert not hasattr(denoiser, "_flatten_conv")
    assert "flat_w" not in [f.name for f in dataclasses.fields(denoiser._BranchTrace)]
    # no layer has one caller, and the trace reads its output shape off the denoiser's input
    assert not hasattr(diffusion, "posterior_mean") and not hasattr(trainer, "prepare_reference")
    assert not hasattr(dsp, "_cached_filterbank") and not hasattr(synthgen, "true_transition_regions")
    assert not hasattr(cli, "_steps")
    assert "eps_shape" not in [f.name for f in dataclasses.fields(denoiser.ForwardTrace)]
    # the arch's validity lives in _shapes, and the WAV reader raises one error
    assert not hasattr(denoiser, "_parse_arch")
    assert [n for n in ("UnreadableWavError", "UnsupportedWavEncodingError", "EmptyAudioError") if hasattr(dsp, n)] == []
    # a bad value is a ValueError, mapped to its exit code in main alone, and
    # the convolution primitive runs along one axis
    assert not hasattr(cli, "ParamError")
    assert list(inspect.signature(dsp.reflect_conv1d).parameters) == ["arr", "taps"]
