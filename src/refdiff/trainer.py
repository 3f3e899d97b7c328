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
"""

from __future__ import annotations

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
        # the file stores no schedule; an older file's config sizes give way to its arch
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


def prepare_reference(
    ref_linear: MelSpectrogram,
    blur: bool,
    norm_lo: float,
    norm_hi: float,
    log_floor: float,
) -> tuple[MelSpectrogram, TransitionRegionSet]:
    """Detect regions on the linear reference, log-compress it at its
    dataset's ``log_floor``, optionally blur the regions with
    ``gaussian_kernel()`` (5 taps, sigma 1, as ``refdiff blur`` by
    default), then normalize into the domain the denoiser reads.

    The blur runs on log values: in the linear domain it would fill the
    harmonic valleys near the log floor, which the log map turns into
    large errors.
    """
    _, regions = analyze(ref_linear)
    ref_log = log_compress(ref_linear, log_floor)
    if blur:
        ref_log = blur_regions(ref_log, regions, gaussian_kernel())
    return normalize_log_mel(ref_log, norm_lo, norm_hi), regions


def prepare_sample(
    sample_: SynthSample,
    cfg: TrainConfig,
    norm_lo: float,
    norm_hi: float,
) -> PreparedSample:
    ref_norm, regions = prepare_reference(sample_.ref_mel, cfg.blur, norm_lo, norm_hi, sample_.cfg.log_floor)
    lam = cfg.lambda_in if cfg.weighting else 1.0
    return PreparedSample(gt=sample_.gt_mel.data, ref_norm=ref_norm, cond=sample_.cond, regions=regions, lambda_in=lam)


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
            if config.reference:
                hiddens = dn.reference_forward(params, item.ref_norm.data, item.cond, trace=trace)
            else:
                hiddens = None
            eps_hat, trace = dn.denoiser_forward(
                params, x_t, t, item.cond, hiddens, trace=trace
            )
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
    if ckpt.config.reference:
        hiddens = dn.reference_forward(ckpt.params, prepared.ref_norm.data, prepared.cond)
    else:
        hiddens = None

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
    model's checkpoint, reusing its variant metrics at the full chain.
    Pass ``eval_dataset`` to measure on held-out samples instead of the
    training set.
    """
    eval_ds = eval_dataset if eval_dataset is not None else dataset
    out = {
        "eval": {"steps": base_config.schedule_T, "seed": eval_seed},
        "variants": {},
        "steps": {},
    }
    full_ckpt = full_metrics = None
    for name, flags in ABLATION_VARIANTS.items():
        cfg = replace(base_config, **flags)
        ckpt, history = train(cfg, dataset)
        metrics = evaluate(ckpt, eval_ds, base_config.schedule_T, seed=eval_seed)
        out["variants"][name] = {
            "flags": flags,
            "final_loss": history.loss_curve[-1],
            "metrics": metrics.to_json(),
        }
        if name == "full":
            full_ckpt, full_metrics = ckpt, metrics
    for steps in steps_grid:
        full_chain = steps == base_config.schedule_T
        metrics = full_metrics if full_chain else evaluate(full_ckpt, eval_ds, steps, seed=eval_seed)
        out["steps"][str(steps)] = metrics.to_json()
    return out
