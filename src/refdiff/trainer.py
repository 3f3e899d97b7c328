"""Training loop, Adam optimizer, checkpointing and evaluation metrics.

Training follows the standard noise-prediction recipe: per batch item,
draw a uniform step and Gaussian noise, corrupt the target with the
closed-form forward process, run the reference branch on the prepared
(optionally blurred) reference, predict the noise, and descend the
transition-weighted squared error.  References are blurred once at data
preparation time, not per step, and the detected transition regions
drive both that blur and the loss weight map.

Evaluation samples each item back from noise with ``sample_item``
(x0 clipped to the normalized data range) and reports the mean squared
error against the ground truth in the normalized log-mel domain, split
into transition-region and non-region entries using the oracle regions.

Independent trainings, each with its evaluations, run as
``train_and_evaluate`` jobs in ``run_in_pool``: two spawned processes,
one BLAS thread each, so every result equals an in-process run's.
``ablation_suite`` and the acceptance fixture both use it.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import denoiser as dn
from .diffusion import NoiseSchedule, make_schedule, q_sample, sample, weighted_eps_loss
from .dsp import MelSpectrogram, gaussian_kernel, log_compress
from .synthgen import (
    SynthDataset, SynthSample, check_field_types, denormalize_log_mel, normalize_log_mel, read_norm
)
from .transition import TransitionRegionSet, WeightMap, analyze, blur_regions, weight_map


# normalize_log_mel maps the dataset's [lo, hi] onto exactly this range,
# so the sampler clips its x0 estimates to it.
CLIP_RANGE = (-1.0, 1.0)


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 8
    total_steps: int = 2000
    lambda_in: float = 2.0
    blur: bool = True
    weighting: bool = True
    reference: bool = True
    seed: int = 0
    schedule_T: int = 100
    beta_min: float = 1e-4
    beta_max: float = 0.06
    hidden: int = 64
    depth: int = 4
    step_dim: int = 32
    kernel: int = 3

    def __post_init__(self):
        check_field_types(self)
        if self.learning_rate <= 0 or self.batch_size < 1 or self.total_steps < 1:
            raise ValueError("learning rate, batch size and step count must be positive")
        if self.lambda_in < 1.0:
            raise ValueError("lambda_in must be >= 1")

    @staticmethod
    def from_json(obj: dict) -> "TrainConfig":
        known = set(TrainConfig.__dataclass_fields__)
        return TrainConfig(**{k: v for k, v in obj.items() if k in known})


@dataclass
class Checkpoint:
    params: dn.DenoiserParams
    schedule: NoiseSchedule
    norm_lo: float
    norm_hi: float
    config: TrainConfig

    def save(self, path) -> None:
        header = {
            "norm": {"lo": self.norm_lo, "hi": self.norm_hi},
            # the sizes are stored once, in the arch that save_checkpoint adds
            "config": {k: v for k, v in asdict(self.config).items() if k not in dn.ARCH_KEYS},
        }
        dn.save_checkpoint(path, self.params, header)

    @staticmethod
    def load(path) -> "Checkpoint":
        params, header = dn.load_checkpoint(path)
        lo, hi = read_norm(header["norm"], "checkpoint")
        # the file stores no schedule, and its sizes only in the arch: the merge brings them to the config
        config = TrainConfig.from_json({**header["config"], **params.arch()})
        return Checkpoint(
            params=params,
            schedule=make_schedule(config.schedule_T, config.beta_min, config.beta_max),
            norm_lo=lo,
            norm_hi=hi,
            config=config,
        )


@dataclass
class Metrics:
    """MSE of sampled output vs ground truth, split by oracle regions."""

    global_mse: float
    region_mse: float
    nonregion_mse: float
    n_region: int
    n_nonregion: int

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class TrainHistory:
    """Mean batch loss of every training step, in step order."""

    loss_curve: list[float]


@dataclass
class PreparedSample:
    """Per-sample tensors fixed before the training loop starts.

    The F x T loss weight map is not kept: ``weights`` builds it from the
    detected regions each time the loss reads it, so a prepared dataset
    holds no array per item beyond the reference it prepared.
    """

    gt: np.ndarray  # normalized log-mel target (F, T)
    ref_norm: MelSpectrogram  # prepared reference, normalized log domain
    cond: np.ndarray
    regions: TransitionRegionSet  # detected on the reference
    lambda_in: float  # loss weight inside the regions, 1.0 without weighting

    @property
    def weights(self) -> WeightMap:
        return weight_map(self.regions, self.gt.shape[0], self.lambda_in)


def prepare_sample(
    sample_: SynthSample,
    cfg: TrainConfig,
    norm_lo: float,
    norm_hi: float,
) -> PreparedSample:
    """Detect regions on the linear reference, log-compress it at its
    dataset's ``log_floor``, blur the regions with ``gaussian_kernel()``
    (5 taps, sigma 1, as ``refdiff blur`` by default) when ``cfg.blur``,
    then normalize into the domain the denoiser reads.

    The blur runs on log values: in the linear domain it would fill the
    harmonic valleys near the log floor, which the log map turns into
    large errors.
    """
    _, regions = analyze(sample_.ref_mel)
    ref_log = log_compress(sample_.ref_mel, sample_.cfg.log_floor)
    if cfg.blur:
        ref_log = blur_regions(ref_log, regions, gaussian_kernel())
    return PreparedSample(
        gt=sample_.gt_mel.data,
        ref_norm=normalize_log_mel(ref_log, norm_lo, norm_hi),
        cond=sample_.cond,
        regions=regions,
        lambda_in=cfg.lambda_in if cfg.weighting else 1.0,
    )


ADAM_SLICE = 32768  # floats per Adam update: whole-vector temporaries would cost memory and time


def adam_init(params: dn.DenoiserParams) -> dict:
    return {"t": 0, "m": np.zeros_like(params.flat), "v": np.zeros_like(params.flat)}


def adam_step(
    params: dn.DenoiserParams,
    grads: dn.DenoiserParams,
    state: dict,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
):
    """Standard Adam update with bias correction, in place."""
    if grads.arch() != params.arch():
        raise ValueError(f"gradients of arch {grads.arch()} for parameters of arch {params.arch()}")
    state["t"] += 1
    t = state["t"]
    for lo in range(0, params.flat.size, ADAM_SLICE):
        theta, g, m, v = (a[lo : lo + ADAM_SLICE] for a in (params.flat, grads.flat, state["m"], state["v"]))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        # theta -= lr * m_hat / (sqrt(v_hat) + eps), one operation at a time
        step = m / (1.0 - beta1**t)
        step *= lr
        denom = v / (1.0 - beta2**t)
        np.sqrt(denom, out=denom)
        denom += eps
        step /= denom
        theta -= step
    return params, state


def _reference_pass(
    params: dn.DenoiserParams, config: TrainConfig, item: PreparedSample, trace: dn.ForwardTrace | None = None
) -> list[np.ndarray] | None:
    """The reference branch's hidden states for ``item``, or None when
    ``config`` trains without the reference."""
    if not config.reference:
        return None
    return dn.reference_forward(params, item.ref_norm.data, item.cond, trace=trace)


def train(config: TrainConfig, dataset: SynthDataset) -> tuple[Checkpoint, TrainHistory]:
    """Run the training loop; returns the checkpoint and its history.

    Per step the generator is consumed in a fixed order: batch indices,
    then per item one uniform step and one noise draw, so runs with the
    same seed are bit-identical.
    """
    if len(dataset) == 0:
        raise ValueError("dataset must be non-empty")
    schedule = make_schedule(config.schedule_T, config.beta_min, config.beta_max)
    prepared = [prepare_sample(s, config, dataset.norm_lo, dataset.norm_hi) for s in dataset]
    cond_dim = dataset[0].cond.shape[0]
    params = dn.init_params(
        n_mels=dataset.cfg.n_mels,
        hidden=config.hidden,
        depth=config.depth,
        cond_dim=cond_dim,
        step_dim=config.step_dim,
        kernel=config.kernel,
        seed=config.seed,
    )
    state = adam_init(params)
    batch_grads = dn.zero_grads(params)
    rng = np.random.default_rng(config.seed)
    loss_curve: list[float] = []
    for _ in range(config.total_steps):
        idx = rng.integers(0, len(prepared), size=config.batch_size)
        batch_grads.flat.fill(0.0)
        batch_loss = 0.0
        for j in idx:
            item = prepared[j]
            t = int(rng.integers(1, schedule.T + 1))
            noise = rng.standard_normal(item.gt.shape)
            x_t = q_sample(item.gt, t, noise, schedule)
            trace = dn.ForwardTrace()
            hiddens = _reference_pass(params, config, item, trace)
            eps_hat, trace = dn.denoiser_forward(params, x_t, t, item.cond, hiddens, trace=trace)
            loss, loss_grad = weighted_eps_loss(noise, eps_hat, item.weights.data)
            dn.backward(params, trace, loss_grad, batch_grads)
            batch_loss += loss
        batch_grads.flat /= config.batch_size
        batch_loss /= config.batch_size
        if not np.isfinite(batch_loss):
            raise TrainingDivergedError(f"non-finite loss at step {len(loss_curve)}")
        adam_step(params, batch_grads, state, config.learning_rate)
        loss_curve.append(batch_loss)
    ckpt = Checkpoint(
        params=params,
        schedule=schedule,
        norm_lo=dataset.norm_lo,
        norm_hi=dataset.norm_hi,
        config=config,
    )
    return ckpt, TrainHistory(loss_curve=loss_curve)


def make_predictor(ckpt: Checkpoint, prepared: PreparedSample):
    """Denoiser callable for the sampler; reference features computed once."""
    hiddens = _reference_pass(ckpt.params, ckpt.config, prepared)

    def predict(x_t: np.ndarray, t: int) -> np.ndarray:
        eps_hat, _ = dn.denoiser_forward(ckpt.params, x_t, t, prepared.cond, hiddens)
        return eps_hat

    return predict


def sample_item(
    ckpt: Checkpoint, dataset: SynthDataset, i: int, steps: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample item ``i`` of ``dataset`` at ``steps`` respaced steps, x0
    clipped to CLIP_RANGE; returns it with the item's ground truth, both
    F x T in the checkpoint's normalized log-mel domain.

    The item is prepared with the checkpoint's config and normalization.
    Ground truths carry their own dataset's normalization, so a held-out
    dataset's are remapped; when the two agree the stored array is
    returned as it is.
    """
    item = dataset[i]
    prepared = prepare_sample(item, ckpt.config, ckpt.norm_lo, ckpt.norm_hi)
    x0 = sample(make_predictor(ckpt, prepared), prepared.gt.shape, ckpt.schedule, steps, seed, clip=CLIP_RANGE)
    if (dataset.norm_lo, dataset.norm_hi) == (ckpt.norm_lo, ckpt.norm_hi):
        return x0, item.gt_mel.data
    gt_log = denormalize_log_mel(item.gt_mel, dataset.norm_lo, dataset.norm_hi)
    return x0, normalize_log_mel(gt_log, ckpt.norm_lo, ckpt.norm_hi).data


def evaluate(ckpt: Checkpoint, dataset: SynthDataset, steps: int, seed: int = 0) -> Metrics:
    """Sample every item and accumulate region / non-region squared error.

    Item i is drawn by ``sample_item`` with seed ``seed + i``, so
    held-out datasets are scored in the domain the model samples in.
    """
    sq_region = 0.0
    sq_nonregion = 0.0
    n_region = 0
    n_nonregion = 0
    for i, sample_ in enumerate(dataset):
        x0_hat, gt = sample_item(ckpt, dataset, i, steps, seed + i)
        sq = (x0_hat - gt) ** 2
        mask = sample_.true_regions.covers()
        sq_region += float(sq[:, mask].sum())
        sq_nonregion += float(sq[:, ~mask].sum())
        n_region += int(mask.sum()) * sq.shape[0]
        n_nonregion += int((~mask).sum()) * sq.shape[0]
    total = n_region + n_nonregion
    return Metrics(
        global_mse=(sq_region + sq_nonregion) / total,
        region_mse=sq_region / n_region if n_region else 0.0,
        nonregion_mse=sq_nonregion / n_nonregion if n_nonregion else 0.0,
        n_region=n_region,
        n_nonregion=n_nonregion,
    )


def train_and_evaluate(
    config: TrainConfig,
    dataset: SynthDataset,
    steps: tuple[int, ...],
    eval_dataset: SynthDataset | None = None,
    eval_seed: int = 0,
) -> tuple[list[float], list[Metrics]]:
    """One pool job: train ``config`` on ``dataset`` and evaluate the
    checkpoint on ``eval_dataset`` (default: the training set) at each of
    ``steps``.

    Returns the loss curve and one ``Metrics`` per step count, not the
    checkpoint: a pickled checkpoint's arrays are no longer views into its
    flat vector.
    """
    ckpt, history = train(config, dataset)
    eval_ds = dataset if eval_dataset is None else eval_dataset
    return history.loss_curve, [evaluate(ckpt, eval_ds, s, seed=eval_seed) for s in steps]


# BLAS reads these once, at load, so a worker starts with them set; one
# thread per process keeps every training bit-reproducible.  bench/run.py
# pins the same five.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _job_under(filters: list, job: tuple) -> tuple[list[float], list[Metrics]]:
    """``train_and_evaluate(*job)`` under the caller's warning ``filters``,
    so a warning the caller turns into an error raises in the worker too."""
    with warnings.catch_warnings():
        warnings.resetwarnings()
        for action, message, category, module, lineno in filters:
            message, module = (getattr(p, "pattern", "") for p in (message, module))
            warnings.filterwarnings(action, message, category, module, lineno, append=True)
        return train_and_evaluate(*job)


def run_in_pool(jobs: list[tuple]) -> list[tuple[list[float], list[Metrics]]]:
    """Run ``train_and_evaluate`` jobs, an argument tuple each, two at a
    time in spawned processes pinned to one BLAS thread; results come back
    in job order.

    Each job runs under the caller's warning filters.  The first job to
    raise cancels the jobs not yet started, and its exception reaches the
    caller once the running ones end.  Spawn imports the caller's main
    module again in each worker, so a script that calls this guards its
    entry point with ``if __name__ == "__main__"``.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    filters = list(warnings.filters)
    pool = ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn"))
    try:
        futures = [pool.submit(_job_under, filters, job) for job in jobs]
        for future in as_completed(futures):
            future.result()
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


ABLATION_VARIANTS = {
    "full": {"blur": True, "weighting": True, "reference": True},
    "no_blur": {"blur": False, "weighting": True, "reference": True},
    "no_weighting": {"blur": True, "weighting": False, "reference": True},
    "no_blur_no_weighting": {"blur": False, "weighting": False, "reference": True},
    "no_reference": {"blur": True, "weighting": True, "reference": False},
}


def ablation_suite(
    base_config: TrainConfig,
    dataset: SynthDataset,
    steps_grid: tuple[int, ...],
    eval_seed: int = 0,
    eval_dataset: SynthDataset | None = None,
) -> dict:
    """Train the component ablation grid and sweep sampling steps.

    Every variant trains with the same seed so comparisons share their
    random draws, and is evaluated at the full chain of
    ``base_config.schedule_T`` steps; the step sweep evaluates the full
    model's checkpoint once per distinct count, reusing its variant
    metrics at the full chain.  The variants run through ``run_in_pool``,
    the full one first.  Pass ``eval_dataset`` to measure on held-out
    samples instead of the training set.
    """
    full_chain = base_config.schedule_T
    # every variant shares the schedule: one too large to allocate fails
    # here, before any worker starts
    make_schedule(full_chain, base_config.beta_min, base_config.beta_max)
    full_steps = tuple(dict.fromkeys((full_chain, *steps_grid)))
    jobs = [
        (replace(base_config, **flags), dataset, full_steps if name == "full" else (full_chain,),
         eval_dataset, eval_seed)
        for name, flags in ABLATION_VARIANTS.items()
    ]
    results = run_in_pool(jobs)
    full = dict(zip(full_steps, results[0][1]))
    return {
        "eval": {"steps": full_chain, "seed": eval_seed},
        "variants": {
            name: {"flags": flags, "final_loss": curve[-1], "metrics": metrics[0].to_json()}
            for (name, flags), (curve, metrics) in zip(ABLATION_VARIANTS.items(), results)
        },
        "steps": {str(s): full[s].to_json() for s in steps_grid},
    }
