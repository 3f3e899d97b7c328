"""Tests of the benchmark itself: FLOP counts, tracing, metric names."""

import json
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from refdiff import denoiser

ROOT = Path(__file__).resolve().parent.parent


def tiny_params(F, H, L, K, D, E, seed=0):
    params = denoiser.init_params(n_mels=F, hidden=H, depth=L, cond_dim=D, step_dim=E, kernel=K, seed=seed)
    return denoiser.randomize_params(params, seed=seed + 1)


def test_flops_match_hand_count():
    """F=3, H=2, depth 1, K=3, cond 2, step 4, T=5, 2 FLOPs per multiply-add.

    forward:   step 2*2*4=16, cond 2*2*2*5=40, injection 2*2*2*5=40,
               input 2*2*3*5=60, conv 2*4*6*5=240, output 2*3*2*5=60 -> 456
    reference: cond 40, input 60, conv 240 -> 340
    backward:  output weight 60 and input grad 60, zero-linear weight 40 and
               input grad 40, conv weight 240 and input grad 240, input
               weight 60, cond weight 40 -> 780; the reference branch adds
               conv 480 and input weight 60 -> 1320
    """
    params = tiny_params(3, 2, 1, 3, 2, 4)
    assert tracing.forward_flops(params, 5) == 456
    assert tracing.reference_flops(params, 5) == 340
    assert tracing.backward_flops(params, 5, with_reference=False) == 780
    assert tracing.backward_flops(params, 5, with_reference=True) == 1320


class _Counted(np.ndarray):
    """Array that adds 2 FLOPs per multiply-add of every matmul it enters."""

    flops = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        args = [np.asarray(x) for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(np.asarray(o) for o in out)
        result = getattr(ufunc, method)(*args, **kwargs)
        if ufunc is np.matmul and method == "__call__":
            _Counted.flops += 2 * args[0].shape[-1] * np.asarray(result).size
        if out is not None:
            return out[0] if len(out) == 1 else out
        return result.view(_Counted) if isinstance(result, np.ndarray) else result


class _CountingNumpy:
    """numpy for the denoiser module, whose new arrays are counted too."""

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name in ("zeros", "zeros_like", "asarray", "concatenate"):
            return lambda *a, **k: attr(*a, **k).view(_Counted)
        return attr


def _count_arrays(params):
    for branch in (params.denoise, params.ref):
        branch.in_w, branch.in_b = branch.in_w.view(_Counted), branch.in_b.view(_Counted)
        for block in branch.blocks:
            block.conv_w, block.conv_b = block.conv_w.view(_Counted), block.conv_b.view(_Counted)
    params.zero_w = [w.view(_Counted) for w in params.zero_w]
    params.zero_b = [b.view(_Counted) for b in params.zero_b]
    for name in ("out_w", "out_b", "step_w", "step_b", "cond_w", "cond_b"):
        setattr(params, name, getattr(params, name).view(_Counted))


def test_flops_match_the_matmuls_the_denoiser_performs(monkeypatch):
    monkeypatch.setattr(denoiser, "np", _CountingNumpy())
    F, H, L, K, D, E, T = 5, 4, 2, 3, 2, 6, 7
    params = tiny_params(F, H, L, K, D, E)
    _count_arrays(params)
    rng = np.random.default_rng(0)
    x_t, ref_mel, target = (rng.standard_normal((F, T)).view(_Counted) for _ in range(3))
    cond = rng.standard_normal((D, T)).view(_Counted)

    def counted(fn, *args, **kwargs):
        _Counted.flops = 0
        return fn(*args, **kwargs), _Counted.flops

    trace = denoiser.ForwardTrace()
    hiddens, n = counted(denoiser.reference_forward, params, ref_mel, cond, trace=trace)
    assert n == tracing.reference_flops(params, T)
    (eps_hat, trace), n = counted(denoiser.denoiser_forward, params, x_t, 9, cond, hiddens, trace=trace)
    assert n == tracing.forward_flops(params, T)
    _, n = counted(denoiser.backward, params, trace, eps_hat - target)
    assert n == tracing.backward_flops(params, T, with_reference=True)
    (eps_hat, trace), _ = counted(denoiser.denoiser_forward, params, x_t, 9, cond, hiddens)
    _, n = counted(denoiser.backward, params, trace, eps_hat - target)
    assert n == tracing.backward_flops(params, T, with_reference=False)


def test_self_time_subtracts_direct_children():
    spans = [
        ["trainer.train", 0, 100, -1, 0, {"steps": 2}, False],
        ["trainer.adam_step", 10, 30, 0, 0, None, False],
        ["trainer.prepare_sample", 40, 90, 0, 0, None, False],
        ["transition.analyze", 50, 70, 2, 0, {"frames": 4}, False],
        ["trainer.train", 200, 210, -1, 1, None, False],
    ]
    stats = tracing.aggregate(spans, [0])
    assert (stats["trainer.train"].calls, stats["trainer.train"].ns, stats["trainer.train"].self_ns) == (1, 100, 30)
    assert (stats["trainer.prepare_sample"].ns, stats["trainer.prepare_sample"].self_ns) == (50, 30)
    assert stats["transition.analyze"].work == {"frames": 4}


TINY = {
    "train": workloads.Train(items=3, steps=2),
    "sample": workloads.Sample(steps=3, items=2, setup_steps=1),
    "prep": workloads.Prep(items=2),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tracing_keeps_outputs_bit_identical(name, tmp_path):
    workload = TINY[name]
    state = workload.setup(5, str(tmp_path))
    workload.finish_setup(state)
    plain = workload.run(state)
    tracer = tracing.Tracer()
    tracer.op = 0
    with tracer:
        traced = workload.run(state)
    assert traced.digest == plain.digest
    assert traced.output_mse == plain.output_mse
    assert tracer.spans and not any(span[6] for span in tracer.spans)
    if name != "train":  # two steps need not lower the loss
        assert plain.problems == [] and traced.problems == []

    values = tracing.layer_metrics(tracer.spans, [0], int(traced.seconds * 1e9), workload.items_per_op(), 0.0)
    assert set(values) == set(tracing.metric_units())
    assert all(np.isfinite(v) for v in values.values())
    if name == "train":
        assert values["denoiser.denoiser_forward.calls"] == 2 * 8
        forward = tracing.aggregate(tracer.spans, [0])["denoiser.denoiser_forward"]
        assert forward.work["frames"] == state["frames"]


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    units = tracing.metric_units()
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == units
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "peak_rss_mb", "items_per_s", "output_mse"]
