"""Span tracing of refdiff's public functions, and the per-layer metrics.

The tracer replaces module attributes with timing wrappers for the
duration of a traced operation and puts the originals back afterwards.
Each function is wrapped under the name its caller looks it up by:
``trainer`` imports ``q_sample``, ``analyze`` and friends by name, so
those are wrapped inside ``trainer``; ``trainer`` reaches the denoiser
through the module (``dn.denoiser_forward``), so that one is wrapped in
``denoiser``.  A wrapper only reads the sizes of its arguments and result,
so a traced call computes exactly what an untraced one does.

A span is ``[name, start_ns, end_ns, parent, op, work, failed]``, with
times on the process CPU clock, the clock operations are timed on: ``parent``
is the index of the enclosing span (-1 at top level), ``op`` the measured
operation it belongs to (-1 in set-up), and ``work`` a dict of the sizes
the layer's metrics divide by (frames, bytes, items, steps, computed
FLOPs).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import time

import numpy as np

from refdiff import cli, denoiser, diffusion, dsp, synthgen, trainer, transition


# --- computed operation counts ---------------------------------------------
#
# FLOPs of the matrix products the denoiser performs, 2 per multiply-add,
# from the architecture sizes and the frame count T.  Element-wise work
# (gates, biases, residual adds, the step-embedding outer product) is
# left out; at the recipe sizes it is well under 1% of the total.


def _sizes(params):
    return (
        params.n_mels,
        params.hidden,
        params.depth,
        params.kernel,
        params.cond_dim,
        params.step_dim,
    )


def forward_flops(params, T: int) -> int:
    """``denoiser_forward``: step and condition projections, zero-linear
    injections, input projection, gated convolutions, output projection."""
    F, H, L, K, D, E = _sizes(params)
    return 2 * H * E + 2 * H * D * T + L * 2 * H * H * T + 2 * H * F * T + L * 4 * K * H * H * T + 2 * F * H * T


def reference_flops(params, T: int) -> int:
    """``reference_forward``: condition projection, input projection, convolutions."""
    F, H, L, K, D, _ = _sizes(params)
    return 2 * H * D * T + 2 * H * F * T + L * 4 * K * H * H * T


def backward_flops(params, T: int, with_reference: bool) -> int:
    """``backward``: output layer, per block the zero-linear and convolution
    gradients, input projection, and the reference branch when recorded."""
    F, H, L, K, D, _ = _sizes(params)
    total = 4 * F * H * T + L * (4 * H * H * T + 8 * K * H * H * T) + 2 * H * F * T + 2 * H * D * T
    if with_reference:
        total += L * 8 * K * H * H * T + 2 * H * F * T
    return total


# --- what each wrapped function records ---------------------------------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _frames_arg(index, name):
    def work(args, kwargs, result):
        mel = _arg(args, kwargs, index, name)
        return {"frames": mel.n_frames}

    return work


def _forward_work(args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    T = np.shape(_arg(args, kwargs, 1, "x_t"))[1]
    return {"frames": T, "flops": forward_flops(params, T)}


def _reference_work(args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    T = np.shape(_arg(args, kwargs, 2, "cond"))[1]
    return {"frames": T, "flops": reference_flops(params, T)}


def _backward_work(args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    trace = _arg(args, kwargs, 1, "trace")
    T = trace.eps_shape[1]
    return {"frames": T, "flops": backward_flops(params, T, trace.ref is not None)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _result_frames(args, kwargs, result):
    return {"frames": np.shape(result)[1] if isinstance(result, np.ndarray) else result.n_frames}


# (module, attribute, metric prefix, work) for every wrapped lookup.  One
# function can be looked up in several modules; each lookup gets a wrapper
# around the same original, so every call makes exactly one span.
TARGETS = [
    (denoiser, "denoiser_forward", "denoiser.denoiser_forward", _forward_work),
    (denoiser, "reference_forward", "denoiser.reference_forward", _reference_work),
    (denoiser, "backward", "denoiser.backward", _backward_work),
    (denoiser, "save_checkpoint", "denoiser.save_checkpoint", None),
    (denoiser, "load_checkpoint", "denoiser.load_checkpoint", None),
    (trainer, "q_sample", "diffusion.q_sample", None),
    (trainer, "weighted_eps_loss", "diffusion.weighted_eps_loss", None),
    (diffusion, "p_step", "diffusion.p_step", None),
    (trainer, "sample", "diffusion.sample", None),
    (trainer, "train", "trainer.train", lambda a, k, r: {"steps": _arg(a, k, 0, "config").total_steps}),
    (trainer, "evaluate", "trainer.evaluate", lambda a, k, r: {"items": len(_arg(a, k, 1, "dataset"))}),
    (trainer, "prepare_sample", "trainer.prepare_sample", None),
    (trainer, "make_predictor", "trainer.make_predictor", None),
    (trainer, "adam_step", "trainer.adam_step", None),
    (trainer, "analyze", "transition.analyze", _frames_arg(0, "mel")),
    (transition, "analyze", "transition.analyze", _frames_arg(0, "mel")),
    (trainer, "blur_regions", "transition.blur_regions", _frames_arg(0, "mel")),
    (transition, "blur_regions", "transition.blur_regions", _frames_arg(0, "mel")),
    (trainer, "weight_map", "transition.weight_map", None),
    (transition, "region_report", "transition.region_report", None),
    (synthgen, "make_dataset", "synthgen.make_dataset", lambda a, k, r: {"items": len(r)}),
    (synthgen, "render_mel", "synthgen.render_mel", None),
    (synthgen, "degrade_reference", "synthgen.degrade_reference", None),
    (synthgen, "write_dataset", "synthgen.write_dataset", lambda a, k, r: {"items": len(_arg(a, k, 0, "dataset"))}),
    (synthgen, "load_dataset", "synthgen.load_dataset", lambda a, k, r: {"items": len(r)}),
    (synthgen, "read_mels", "dsp.read_mels", _file_bytes),
    (dsp, "read_mels", "dsp.read_mels", _file_bytes),
    (synthgen, "write_mels", "dsp.write_mels", _file_bytes),
    (dsp, "write_mels", "dsp.write_mels", _file_bytes),
    (trainer, "log_compress", "dsp.log_compress", _frames_arg(0, "mel")),
    (synthgen, "log_compress", "dsp.log_compress", _frames_arg(0, "mel")),
    (transition, "gaussian_blur_2d", "dsp.gaussian_blur_2d", None),
    (dsp, "stft_magnitude", "dsp.stft_magnitude", _result_frames),
    (dsp, "mel_spectrogram", "dsp.mel_spectrogram", _result_frames),
    (dsp, "load_wav", "dsp.load_wav", None),
    (cli, "main", "cli.main", None),
]

FUNCTIONS = list(dict.fromkeys(name for _, _, name, _ in TARGETS))


class Tracer:
    """Installs the wrappers while active and keeps every span in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, work):
        spans = self.spans
        stack = self._stack
        clock = time.process_time_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, None, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[5] = work(args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        for module, attr, name, work in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, work))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, work, failed in self.spans:
                record = {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}
                if work:
                    record["work"] = work
                if failed:
                    record["failed"] = True
                fh.write(json.dumps(record) + "\n")


# --- per-layer metrics -----------------------------------------------------------


def _div(num, den):
    return num / den if den else 0.0


class _Stats:
    def __init__(self):
        self.calls = 0
        self.failures = 0
        self.ns = 0
        self.self_ns = 0
        self.work: dict[str, float] = {}


def aggregate(spans, ops) -> dict[str, _Stats]:
    """Per-function totals over the spans of the given operations.

    Self time is a span's duration minus the durations of its direct
    children; calls are strictly nested, so the children never overlap.
    """
    ops = set(ops)
    child_ns = [0] * len(spans)
    for name, start, end, parent, op, work, failed in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats = {name: _Stats() for name in FUNCTIONS}
    for i, (name, start, end, parent, op, work, failed) in enumerate(spans):
        if op not in ops:
            continue
        s = stats[name]
        s.calls += 1
        s.failures += int(failed)
        s.ns += end - start
        s.self_ns += end - start - child_ns[i]
        for key, value in (work or {}).items():
            s.work[key] = s.work.get(key, 0) + value
    return stats


def step_intervals_ms(spans, ops) -> list[float]:
    """Time between consecutive ``adam_step`` returns within one ``train`` call."""
    ops = set(ops)
    last_end: dict[int, int] = {}
    out = []
    for name, start, end, parent, op, work, failed in spans:
        if name != "trainer.adam_step" or op not in ops:
            continue
        if parent in last_end:
            out.append((end - last_end[parent]) / 1e6)
        last_end[parent] = end
    return out


# (metric, unit, better) beyond the per-function .calls and .failures.
QUANTITIES = [
    ("denoiser.denoiser_forward.us_per_frame", "us", "lower"),
    ("denoiser.denoiser_forward.share", "ratio", "lower"),
    ("denoiser.backward.us_per_frame", "us", "lower"),
    ("denoiser.backward.share", "ratio", "lower"),
    ("denoiser.reference_forward.us_per_frame", "us", "lower"),
    ("denoiser.reference_forward.per_denoiser_forward", "ratio", "lower"),
    ("denoiser.gflop", "GFLOP", "lower"),
    ("denoiser.gflop_per_s", "GFLOP/s", "higher"),
    ("denoiser.save_checkpoint.ms", "ms", "lower"),
    ("denoiser.load_checkpoint.ms", "ms", "lower"),
    ("diffusion.q_sample.us_per_call", "us", "lower"),
    ("diffusion.weighted_eps_loss.us_per_call", "us", "lower"),
    ("diffusion.p_step.us_per_call", "us", "lower"),
    ("diffusion.sample.self_ms_per_item", "ms", "lower"),
    ("trainer.adam_step.ms_per_call", "ms", "lower"),
    ("trainer.step_ms_p50", "ms", "lower"),
    ("trainer.step_ms_p90", "ms", "lower"),
    ("trainer.train.self_ms_per_step", "ms", "lower"),
    ("trainer.prepare_sample.ms_per_call", "ms", "lower"),
    ("trainer.prepare_sample.calls_per_item", "ratio", "lower"),
    ("trainer.evaluate.self_ms_per_item", "ms", "lower"),
    ("trainer.make_predictor.ms_per_call", "ms", "lower"),
    ("transition.analyze.us_per_frame", "us", "lower"),
    ("transition.blur_regions.us_per_frame", "us", "lower"),
    ("transition.weight_map.us_per_call", "us", "lower"),
    ("transition.region_report.us_per_call", "us", "lower"),
    ("synthgen.make_dataset.ms_per_item", "ms", "lower"),
    ("synthgen.render_mel.ms_per_call", "ms", "lower"),
    ("synthgen.degrade_reference.ms_per_call", "ms", "lower"),
    ("synthgen.write_dataset.ms_per_item", "ms", "lower"),
    ("synthgen.load_dataset.ms_per_item", "ms", "lower"),
    ("dsp.read_mels.mb_per_s", "MB/s", "higher"),
    ("dsp.write_mels.mb_per_s", "MB/s", "higher"),
    ("dsp.log_compress.us_per_frame", "us", "lower"),
    ("dsp.stft_magnitude.us_per_frame", "us", "lower"),
    ("dsp.mel_spectrogram.us_per_frame", "us", "lower"),
    ("dsp.load_wav.ms_per_call", "ms", "lower"),
    ("cli.main.self_ms_per_call", "ms", "lower"),
    ("trace_overhead", "ratio", "lower"),
]


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    units = {}
    for name in FUNCTIONS:
        units[f"{name}.calls"] = ("count", "lower")
        units[f"{name}.failures"] = ("count", "lower")
    for name, unit, better in QUANTITIES:
        units[name] = (unit, better)
    return units


def layer_metrics(spans, ops, op_ns: int, items_per_op: int, trace_overhead: float) -> dict[str, float]:
    """Per-layer values over the traced operations ``ops``.

    ``op_ns`` is their total measured time and ``items_per_op`` the items
    one operation processes.  ``.calls`` are per operation; shares are of
    the measured time; rates divide a layer's inclusive time by its work.
    """
    n_ops = len(ops)
    st = aggregate(spans, ops)
    out = {}
    for name in FUNCTIONS:
        out[f"{name}.calls"] = _div(st[name].calls, n_ops)
        out[f"{name}.failures"] = st[name].failures

    def per(name, key, scale):
        s = st[name]
        return _div(s.ns, s.work.get(key, 0)) / scale

    def per_call(name, scale):
        return _div(st[name].ns, st[name].calls) / scale

    fwd, bwd, ref = st["denoiser.denoiser_forward"], st["denoiser.backward"], st["denoiser.reference_forward"]
    flops = sum(s.work.get("flops", 0) for s in (fwd, bwd, ref))
    steps = step_intervals_ms(spans, ops)
    p50, p90 = np.percentile(steps, [50, 90]) if steps else (0.0, 0.0)
    values = {
        "denoiser.denoiser_forward.us_per_frame": per("denoiser.denoiser_forward", "frames", 1e3),
        "denoiser.denoiser_forward.share": _div(fwd.ns, op_ns),
        "denoiser.backward.us_per_frame": per("denoiser.backward", "frames", 1e3),
        "denoiser.backward.share": _div(bwd.ns, op_ns),
        "denoiser.reference_forward.us_per_frame": per("denoiser.reference_forward", "frames", 1e3),
        "denoiser.reference_forward.per_denoiser_forward": _div(ref.calls, fwd.calls),
        "denoiser.gflop": _div(flops, n_ops) / 1e9,
        "denoiser.gflop_per_s": _div(flops, fwd.ns + bwd.ns + ref.ns),
        "denoiser.save_checkpoint.ms": per_call("denoiser.save_checkpoint", 1e6),
        "denoiser.load_checkpoint.ms": per_call("denoiser.load_checkpoint", 1e6),
        "diffusion.q_sample.us_per_call": per_call("diffusion.q_sample", 1e3),
        "diffusion.weighted_eps_loss.us_per_call": per_call("diffusion.weighted_eps_loss", 1e3),
        "diffusion.p_step.us_per_call": per_call("diffusion.p_step", 1e3),
        "diffusion.sample.self_ms_per_item": _div(st["diffusion.sample"].self_ns, st["diffusion.sample"].calls) / 1e6,
        "trainer.adam_step.ms_per_call": per_call("trainer.adam_step", 1e6),
        "trainer.step_ms_p50": float(p50),
        "trainer.step_ms_p90": float(p90),
        "trainer.train.self_ms_per_step": _div(st["trainer.train"].self_ns, st["trainer.train"].work.get("steps", 0)) / 1e6,
        "trainer.prepare_sample.ms_per_call": per_call("trainer.prepare_sample", 1e6),
        "trainer.prepare_sample.calls_per_item": _div(st["trainer.prepare_sample"].calls, n_ops * items_per_op),
        "trainer.evaluate.self_ms_per_item": _div(st["trainer.evaluate"].self_ns, st["trainer.evaluate"].work.get("items", 0)) / 1e6,
        "trainer.make_predictor.ms_per_call": per_call("trainer.make_predictor", 1e6),
        "transition.analyze.us_per_frame": per("transition.analyze", "frames", 1e3),
        "transition.blur_regions.us_per_frame": per("transition.blur_regions", "frames", 1e3),
        "transition.weight_map.us_per_call": per_call("transition.weight_map", 1e3),
        "transition.region_report.us_per_call": per_call("transition.region_report", 1e3),
        "synthgen.make_dataset.ms_per_item": per("synthgen.make_dataset", "items", 1e6),
        "synthgen.render_mel.ms_per_call": per_call("synthgen.render_mel", 1e6),
        "synthgen.degrade_reference.ms_per_call": per_call("synthgen.degrade_reference", 1e6),
        "synthgen.write_dataset.ms_per_item": per("synthgen.write_dataset", "items", 1e6),
        "synthgen.load_dataset.ms_per_item": per("synthgen.load_dataset", "items", 1e6),
        "dsp.read_mels.mb_per_s": _div(st["dsp.read_mels"].work.get("bytes", 0) * 1e3, st["dsp.read_mels"].ns),
        "dsp.write_mels.mb_per_s": _div(st["dsp.write_mels"].work.get("bytes", 0) * 1e3, st["dsp.write_mels"].ns),
        "dsp.log_compress.us_per_frame": per("dsp.log_compress", "frames", 1e3),
        "dsp.stft_magnitude.us_per_frame": per("dsp.stft_magnitude", "frames", 1e3),
        "dsp.mel_spectrogram.us_per_frame": per("dsp.mel_spectrogram", "frames", 1e3),
        "dsp.load_wav.ms_per_call": per_call("dsp.load_wav", 1e6),
        "cli.main.self_ms_per_call": _div(st["cli.main"].self_ns, st["cli.main"].calls) / 1e6,
        "trace_overhead": trace_overhead,
    }
    out.update(values)
    return out
