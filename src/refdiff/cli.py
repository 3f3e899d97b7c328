"""Command-line surface for the pipeline.

One binary with subcommands: analyze, blur, gendata, train, sample,
eval, ablate.  Exit codes: 0 success, 2 input error, 3 parameter error,
4 numerical failure.  A subcommand raises ``InputError`` for a bad file
and ``ValueError`` for a bad value, which is a parameter error, exit 3;
only ``main`` maps exceptions to codes.  ``--json`` modes emit exactly
one JSON document on stdout; numeric defaults come from the modules'
defaults and are echoed in the JSON output.  The REFDIFF_OUT_DIR
environment variable supplies the default output directory; everything
else is explicit flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import math
import os
import sys

from . import dsp, synthgen, trainer, transition

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PARAMS = 3
EXIT_NUMERIC = 4


class InputError(Exception):
    pass


def _out_dir(explicit: str | None) -> str:
    return explicit or os.environ.get("REFDIFF_OUT_DIR", ".")


def _check_writable(path: str) -> None:
    """An input error unless ``path`` names a file in an existing
    directory; ``train`` and ``ablate`` check this before they train."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise InputError(f"cannot write {path}: not a file in an existing directory")


# What a reader raises on a file of the wrong shape: a missing key, a
# value of the wrong JSON type, an integer field holding 1e999 (read as
# inf), JSON nested past the recursion limit, or a size field too large
# to allocate (a checkpoint's schedule length).
_MALFORMED = (
    OSError, ValueError, KeyError, TypeError, AttributeError, OverflowError, RecursionError, MemoryError
)


def _read(what: str | None, path, load):
    """``load(path)``, with what a reader raises on a missing or malformed
    file turned into an input error: "<what> <path>: <reason>", or the
    bare reason when ``what`` is None because the reason names the file."""
    try:
        return load(path)
    except _MALFORMED as exc:
        raise InputError(f"{what} {path}: {exc}" if what else str(exc)) from None


def _json_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_spectrogram(path: str) -> dsp.MelSpectrogram:
    """Accept either a WAV file (converted with default settings) or MELS."""
    with _read("cannot read", path, lambda p: open(p, "rb")) as fh:
        magic = fh.read(4)
    if magic == dsp.MELS_MAGIC:
        return _read(None, path, dsp.read_mels)
    if magic == b"RIFF":
        return _read(None, path, lambda p: dsp.mel_spectrogram(dsp.load_wav(p)))
    raise InputError(f"unrecognized input format: {path}")


def _detector_config(mel: dsp.MelSpectrogram, args, **extra) -> transition.TransitionConfig:
    """The transition detector's settings from ``--k``/``--w``, checked
    against ``mel``.  Detection needs a linear-domain spectrogram of two
    or more mel bins (a low and a high band) and T >= max(2, (k+1)//2)
    frames: two to see a crossing, and (k+1)//2 for the reflect-padded
    smoothing window."""
    if mel.is_log:
        raise InputError("transition detection needs a linear-domain spectrogram")
    if mel.n_mels < 2:
        raise InputError(f"spectrogram has {mel.n_mels} mel bin; transition detection needs at least 2")
    if args.k < 1 or args.k % 2 == 0 or args.w < 1:
        raise ValueError("k must be odd and positive, w must be >= 1")
    need = max(2, (args.k + 1) // 2)
    if mel.n_frames < need:
        raise InputError(
            f"spectrogram has T={mel.n_frames} frames; transition detection "
            f"with k={args.k} needs at least {need}"
        )
    return transition.TransitionConfig(smooth_k=args.k, window_w=args.w, **extra)


def _emit(doc: dict, as_json: bool, summary: str) -> None:
    if as_json:
        print(json.dumps(doc, sort_keys=True))
    else:
        print(summary)


def cmd_analyze(args) -> int:
    # both values are echoed into the report, whose schema bounds them
    if not 1.0 <= args.region_weight < math.inf:
        raise ValueError(f"--region-weight must be finite and >= 1, got {args.region_weight}")
    if not 0.0 < args.eps < math.inf:
        raise ValueError(f"--eps must be finite and > 0, got {args.eps}")
    mel = _load_spectrogram(args.input)
    cfg = _detector_config(mel, args, eps=args.eps)
    _, regions = transition.analyze(mel, cfg)
    report = transition.region_report(regions, mel.hop, cfg, args.region_weight)
    _emit(
        report,
        args.json,
        f"{args.input}: {len(report['points'])} transition points, "
        f"{len(report['regions'])} regions over {regions.total_frames} frames",
    )
    return EXIT_OK


def cmd_blur(args) -> int:
    mel = _load_spectrogram(args.input)
    taps = dsp.gaussian_kernel(args.kernel_size, args.sigma)
    if args.regions:

        def load(path):
            report = _json_file(path)
            # a report written for another spectrogram would blur frames chosen for that one
            for field, actual in (("total_frames", mel.n_frames), ("hop", mel.hop)):
                if synthgen.check_kind(field, report[field], int) != actual:
                    raise ValueError(f"{field} is {report[field]} but {args.input} has {actual}")
            bound = functools.partial(synthgen.check_kind, "a region bound", kind=int)
            return transition.TransitionRegionSet(
                regions=tuple(tuple(map(bound, region)) for region in report["regions"]),
                points=tuple(synthgen.check_kind("a point", p, int) for p in report["points"]),
                total_frames=mel.n_frames,
            )

        regions = _read("bad region report", args.regions, load)
    else:
        _, regions = transition.analyze(mel, _detector_config(mel, args))
    blurred = transition.blur_regions(mel, regions, taps)
    dsp.write_mels(args.output, blurred)
    _emit(
        {
            "input": args.input,
            "output": args.output,
            "regions": [[s, e] for s, e in regions.regions],
            "kernel": {"size": args.kernel_size, "sigma": args.sigma},
        },
        args.json,
        f"blurred {len(regions.regions)} regions -> {args.output}",
    )
    return EXIT_OK


def cmd_gendata(args) -> int:
    out_dir = _out_dir(args.out)
    dataset = synthgen.make_dataset(args.n, args.seed)
    manifest = synthgen.write_dataset(dataset, out_dir)
    _emit(
        {
            "manifest": manifest,
            "n": args.n,
            "seed": args.seed,
            "norm": {"lo": dataset.norm_lo, "hi": dataset.norm_hi},
        },
        args.json,
        f"wrote {args.n} samples to {manifest}",
    )
    return EXIT_OK


def _load_config(path: str) -> trainer.TrainConfig:
    """A file that cannot be read as a JSON object is an input error; a
    bad value in it is a parameter error."""
    obj = _read("cannot read config", path, _json_file)
    if not isinstance(obj, dict):
        raise InputError(f"config {path} must be a JSON object")
    try:
        return trainer.TrainConfig.from_json(obj)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad training config: {exc}") from None


def cmd_train(args) -> int:
    config = _load_config(args.config)
    dataset = _read("cannot load dataset", args.manifest, synthgen.load_dataset)
    out_dir = _out_dir(args.out)
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, args.name + ".rdck")
    curve_path = os.path.join(out_dir, args.name + "_loss.json")
    _check_writable(ckpt_path)
    _check_writable(curve_path)
    ckpt, history = trainer.train(config, dataset)
    ckpt.save(ckpt_path)
    final_loss = history.loss_curve[-1]
    with open(curve_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "loss_curve": history.loss_curve,
                "config": dataclasses.asdict(config),
            },
            fh,
            sort_keys=True,
        )
    _emit(
        {"checkpoint": ckpt_path, "loss_curve": curve_path, "final_loss": final_loss},
        args.json,
        f"trained {config.total_steps} steps; final loss {final_loss:.6f} -> {ckpt_path}",
    )
    return EXIT_OK


def _check_mel_bins(path_a: str, bins_a: int, path_b: str, bins_b: int) -> None:
    if bins_a != bins_b:
        raise InputError(f"{path_a} has {bins_a} mel bins but {path_b} has {bins_b}")


def _load_model(args) -> tuple[trainer.Checkpoint, synthgen.SynthDataset, int]:
    """The checkpoint and dataset of ``sample`` and ``eval``, their mel bins
    checked to agree, and ``--steps``, by default the checkpoint's full
    chain; the sampler checks its range."""
    ckpt = _read("cannot load checkpoint", args.checkpoint, trainer.Checkpoint.load)
    dataset = _read("cannot load dataset", args.manifest, synthgen.load_dataset)
    _check_mel_bins(args.checkpoint, ckpt.params.n_mels, args.manifest, dataset.cfg.n_mels)
    return ckpt, dataset, ckpt.schedule.T if args.steps is None else args.steps


def cmd_sample(args) -> int:
    ckpt, dataset, steps = _load_model(args)
    if not (0 <= args.index < len(dataset)):
        raise ValueError(f"index {args.index} outside dataset of {len(dataset)}")
    x0, gt = trainer.sample_item(ckpt, dataset, args.index, steps, args.seed)
    dsp.write_mels(args.output, dsp.MelSpectrogram(data=x0, hop=dataset.cfg.hop, is_log=True))
    mse = float(((x0 - gt) ** 2).mean())
    _emit(
        {
            "output": args.output,
            "index": args.index,
            "steps": steps,
            "seed": args.seed,
            "mse_vs_gt": mse,
        },
        args.json,
        f"sampled index {args.index} at {steps} steps (mse {mse:.6f}) -> {args.output}",
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    ckpt, dataset, steps = _load_model(args)
    metrics = trainer.evaluate(ckpt, dataset, steps, seed=args.seed)
    doc = {"steps": steps, "seed": args.seed, "metrics": metrics.to_json()}
    _emit(
        doc,
        args.json,
        f"global mse {metrics.global_mse:.6f} | region {metrics.region_mse:.6f} "
        f"| non-region {metrics.nonregion_mse:.6f}",
    )
    return EXIT_OK


def cmd_ablate(args) -> int:
    config = _load_config(args.config)
    if not all(1 <= steps <= config.schedule_T for steps in args.steps):
        raise ValueError(f"steps must lie in 1..{config.schedule_T}")
    if args.out:
        _check_writable(args.out)
    dataset = _read("cannot load dataset", args.manifest, synthgen.load_dataset)
    eval_dataset = None
    if args.eval_manifest:
        eval_dataset = _read("cannot load dataset", args.eval_manifest, synthgen.load_dataset)
        _check_mel_bins(args.manifest, dataset.cfg.n_mels, args.eval_manifest, eval_dataset.cfg.n_mels)
    table = trainer.ablation_suite(
        config,
        dataset,
        steps_grid=tuple(args.steps),
        eval_seed=args.seed,
        eval_dataset=eval_dataset,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(table, fh, sort_keys=True)
    lines = [
        f"{name}: region {v['metrics']['region_mse']:.6f} global {v['metrics']['global_mse']:.6f}"
        for name, v in table["variants"].items()
    ]
    _emit(table, args.json, "\n".join(lines))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; ``parse_args`` keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="refdiff",
        description="Reference-conditioned mel diffusion with transition-aware training",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    detector = transition.TransitionConfig
    kernel = inspect.signature(dsp.gaussian_kernel).parameters

    # the flags several subcommands share, each declared once
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    detecting = argparse.ArgumentParser(add_help=False)
    detecting.add_argument("--k", type=int, default=detector.smooth_k, help="smoothing kernel size")
    detecting.add_argument("--w", type=int, default=detector.window_w, help="region window size")
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("checkpoint")
    model.add_argument("manifest")
    model.add_argument("--steps", type=int, help="sampler steps (default: the checkpoint's schedule length)")

    p = sub.add_parser("analyze", help="detect pitch-transition regions", parents=[detecting, as_json])
    p.add_argument("input", help="WAV or MELS file")
    p.add_argument("--eps", type=float, default=detector.eps)
    p.add_argument("--region-weight", type=float, default=trainer.TrainConfig.lambda_in)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "blur", help="Gaussian-blur transition regions of a MELS file", parents=[detecting, as_json]
    )
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--regions", help="region report JSON (default: auto-detect)")
    p.add_argument("--kernel-size", type=int, default=kernel["size"].default)
    p.add_argument("--sigma", type=float, default=kernel["sigma"].default)
    p.set_defaults(func=cmd_blur)

    p = sub.add_parser("gendata", help="generate a synthetic dataset", parents=[seeded, as_json])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="output directory (default: $REFDIFF_OUT_DIR or .)")
    p.set_defaults(func=cmd_gendata)

    p = sub.add_parser("train", help="train a denoiser from a dataset manifest", parents=[as_json])
    p.add_argument("config", help="training config JSON")
    p.add_argument("manifest", help="dataset manifest.jsonl")
    p.add_argument("--out", help="output directory")
    p.add_argument("--name", default="model")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "sample", help="sample one dataset item from a checkpoint", parents=[model, seeded, as_json]
    )
    p.add_argument("output")
    p.add_argument("--index", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset", parents=[model, seeded, as_json])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train and evaluate the ablation grid", parents=[seeded, as_json])
    p.add_argument("config")
    p.add_argument("manifest")
    p.add_argument("--eval-manifest", help="held-out dataset for metrics (default: train set)")
    p.add_argument("--steps", type=int, nargs="+", default=[24, 54, 100])
    p.add_argument("--out", help="write the table JSON here as well")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        # OSError: an output that cannot be written; the message names the path
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, MemoryError) as exc:
        # MemoryError: a config whose sizes cannot be allocated, such as
        # a schedule length of 1e11
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except trainer.TrainingDivergedError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
