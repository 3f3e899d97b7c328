"""Optimizer, training loop, metrics, the job pool and ablation plumbing."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from refdiff import denoiser as dn
from refdiff import diffusion, dsp, synthgen, trainer, transition


def tiny_train_config(**kw):
    base = dict(
        total_steps=25,
        batch_size=2,
        hidden=8,
        depth=2,
        step_dim=8,
        learning_rate=1e-3,
        seed=0,
    )
    base.update(kw)
    return trainer.TrainConfig(**base)


@pytest.fixture(scope="module")
def small_dataset():
    cfg = synthgen.DatasetConfig(dur_min=8, dur_max=16, notes_min=3, notes_max=4)
    return synthgen.make_dataset(4, seed=11, cfg=cfg)


class JobProbe(synthgen.SynthDataset):
    """A training set whose length, read once as a training starts, appends
    a line to the file ``log`` and then raises ``error`` if one is given.
    It is module-level, so a spawned pool worker can unpickle it."""

    def __init__(self, dataset, log, error=None):
        super().__init__(**vars(dataset))
        self.log, self.error = log, error

    def __len__(self):
        with open(self.log, "a", encoding="utf-8") as fh:
            fh.write("started\n")
        if self.error is not None:
            raise self.error
        return super().__len__()


class TestAdam:
    def test_zero_gradients_no_change(self):
        params = dn.init_params(n_mels=2, hidden=3, depth=1, seed=0)
        before = {name: arr.copy() for name, arr in params.named_arrays()}
        state = trainer.adam_init(params)
        trainer.adam_step(params, dn.zero_grads(params), state, lr=0.1)
        for name, arr in params.named_arrays():
            assert np.array_equal(arr, before[name])

    def test_two_hand_computed_steps(self):
        # single scalar parameter followed through the Adam recursion by hand
        params = dn.init_params(n_mels=2, hidden=3, depth=1, seed=0)
        state = trainer.adam_init(params)
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        theta = params.out_b[0]
        m = v = 0.0
        for g_val in (0.3, -0.2):
            grads = dn.zero_grads(params)
            grads.out_b[0] = g_val
            trainer.adam_step(params, grads, state, lr=lr, beta1=b1, beta2=b2, eps=eps)
            m = b1 * m + (1 - b1) * g_val
            v = b2 * v + (1 - b2) * g_val * g_val
            t = state["t"]
            theta = theta - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert abs(params.out_b[0] - theta) < 1e-12

    def test_determinism(self):
        results = []
        for _ in range(2):
            params = dn.init_params(n_mels=2, hidden=3, depth=1, seed=1)
            dn.randomize_params(params, seed=2)
            grads = dn.zero_grads(params)
            grads.flat[...] = 0.01
            state = trainer.adam_init(params)
            trainer.adam_step(params, grads, state, lr=0.05)
            results.append(params.out_w.copy())
        assert np.array_equal(results[0], results[1])

    def test_structure_mismatch(self):
        params = dn.init_params(n_mels=2, hidden=3, depth=1, seed=0)
        state = trainer.adam_init(params)
        grads = dn.zero_grads(dn.init_params(n_mels=2, hidden=4, depth=1, seed=0))
        with pytest.raises(ValueError):
            trainer.adam_step(params, grads, state, lr=0.1)


class TestTrain:
    def test_smoke_loss_decreases(self, small_dataset):
        cfg = tiny_train_config(total_steps=50, learning_rate=3e-3)
        ckpt, history = trainer.train(cfg, small_dataset)
        curve = history.loss_curve
        assert len(curve) == 50
        assert curve[-1] < curve[0]
        assert all(np.isfinite(v) for v in curve)

    def test_seed_determinism(self, small_dataset):
        cfg = tiny_train_config(total_steps=10)
        _, h1 = trainer.train(cfg, small_dataset)
        ckpt2, h2 = trainer.train(cfg, small_dataset)
        assert h1.loss_curve == h2.loss_curve
        ckpt3, _ = trainer.train(cfg, small_dataset)
        for (na, a), (nb, b) in zip(
            ckpt2.params.named_arrays(), ckpt3.params.named_arrays()
        ):
            assert np.array_equal(a, b), na

    def test_weighting_off_equals_lambda_one(self, small_dataset):
        cfg_off = tiny_train_config(total_steps=8, weighting=False, lambda_in=2.0)
        cfg_one = tiny_train_config(total_steps=8, weighting=True, lambda_in=1.0)
        ckpt_off, hist_off = trainer.train(cfg_off, small_dataset)
        ckpt_one, hist_one = trainer.train(cfg_one, small_dataset)
        assert hist_off.loss_curve == hist_one.loss_curve
        for (na, a), (_, b) in zip(
            ckpt_off.params.named_arrays(), ckpt_one.params.named_arrays()
        ):
            assert np.array_equal(a, b), na

    def test_degenerates_to_plain_ddpm(self, small_dataset):
        # lambda=1, blur off, reference off: matches an independent minimal
        # conditional-DDPM loop with those code paths absent
        cfg = tiny_train_config(
            total_steps=6, blur=False, weighting=False, reference=False, lambda_in=1.0
        )
        ckpt, history = trainer.train(cfg, small_dataset)

        schedule = diffusion.make_schedule(cfg.schedule_T, cfg.beta_min, cfg.beta_max)
        from refdiff.dsp import log_compress
        from refdiff.synthgen import normalize_log_mel

        items = []
        for s in small_dataset:
            ref_norm = normalize_log_mel(
                log_compress(s.ref_mel, s.cfg.log_floor), small_dataset.norm_lo, small_dataset.norm_hi
            )
            items.append((s.gt_mel.data, ref_norm, s.cond))
        params = dn.init_params(
            n_mels=80,
            hidden=cfg.hidden,
            depth=cfg.depth,
            cond_dim=2,
            step_dim=cfg.step_dim,
            kernel=cfg.kernel,
            seed=cfg.seed,
        )
        state = trainer.adam_init(params)
        rng = np.random.default_rng(cfg.seed)
        losses = []
        for _ in range(cfg.total_steps):
            idx = rng.integers(0, len(items), size=cfg.batch_size)
            batch = dn.zero_grads(params)
            total = 0.0
            for j in idx:
                gt, _, cond = items[j]
                t = int(rng.integers(1, schedule.T + 1))
                noise = rng.standard_normal(gt.shape)
                x_t = diffusion.q_sample(gt, t, noise, schedule)
                eps_hat, trace = dn.denoiser_forward(params, x_t, t, cond, None)
                diff = noise - eps_hat
                w_total = float(gt.size)
                loss = float((1.0 * diff * diff).sum() / w_total)
                loss_grad = -2.0 * 1.0 * diff / w_total
                grads = dn.backward(params, trace, loss_grad)
                batch.flat += grads.flat
                total += loss
            batch.flat /= cfg.batch_size
            losses.append(total / cfg.batch_size)
            trainer.adam_step(params, batch, state, cfg.learning_rate)
        assert losses == history.loss_curve
        for (na, a), (_, b) in zip(params.named_arrays(), ckpt.params.named_arrays()):
            assert np.array_equal(a, b), na

    def test_divergence_aborts(self, small_dataset, monkeypatch):
        # the guard fires on any non-finite batch loss
        def poisoned(eps_true, eps_hat, weights):
            return float("nan"), np.zeros_like(eps_hat)

        monkeypatch.setattr(trainer, "weighted_eps_loss", poisoned)
        with pytest.raises(trainer.TrainingDivergedError):
            trainer.train(tiny_train_config(total_steps=2), small_dataset)

    def test_empty_dataset_rejected(self, small_dataset):
        empty = synthgen.SynthDataset(
            samples=[], norm_lo=0.0, norm_hi=1.0, cfg=small_dataset.cfg, seed=0
        )
        with pytest.raises(ValueError):
            trainer.train(tiny_train_config(), empty)


class TestPrepareReference:
    def test_blur_brings_regions_closer_to_truth(self):
        # criterion 7's premise, before any training: on the acceptance
        # dataset the blurred reference is no farther from the ground
        # truth inside the oracle regions than the raw one
        dataset = synthgen.make_dataset(64, seed=0)
        sq = {True: 0.0, False: 0.0}
        for s in dataset:
            mask = s.true_regions.covers()
            for blur in sq:
                ref = trainer.prepare_sample(s, tiny_train_config(blur=blur), dataset.norm_lo, dataset.norm_hi).ref_norm
                sq[blur] += float(((ref.data - s.gt_mel.data)[:, mask] ** 2).sum())
        assert sq[True] <= sq[False]

    def test_blur_runs_on_log_values(self, small_dataset):
        s = small_dataset[0]
        lo, hi = small_dataset.norm_lo, small_dataset.norm_hi
        got = trainer.prepare_sample(s, tiny_train_config(blur=True), lo, hi)
        regions = got.regions
        assert regions == transition.analyze(s.ref_mel)[1]
        log_ref = dsp.log_compress(s.ref_mel, s.cfg.log_floor)
        blurred = transition.blur_regions(log_ref, regions, dsp.gaussian_kernel())
        expected = synthgen.normalize_log_mel(blurred, lo, hi)
        assert regions.regions
        assert np.array_equal(got.ref_norm.data, expected.data)


    def test_reference_takes_its_datasets_floor(self):
        # the reference is log-compressed like its ground truth, whatever
        # the training config
        dataset = synthgen.make_dataset(4, 0, synthgen.DatasetConfig(log_floor=1e-3))
        lo, hi = dataset.norm_lo, dataset.norm_hi
        for s in dataset:
            got = trainer.prepare_sample(s, tiny_train_config(blur=False), lo, hi)
            want = synthgen.normalize_log_mel(dsp.log_compress(s.ref_mel, 1e-3), lo, hi)
            assert got.ref_norm.data.tobytes() == want.data.tobytes()


class TestEvaluate:
    def test_partition_identity(self, small_dataset):
        cfg = tiny_train_config(total_steps=5)
        ckpt, _ = trainer.train(cfg, small_dataset)
        m = trainer.evaluate(ckpt, small_dataset, steps=10, seed=0)
        total = m.n_region + m.n_nonregion
        combined = (m.n_region * m.region_mse + m.n_nonregion * m.nonregion_mse) / total
        assert abs(combined - m.global_mse) < 1e-9
        expected_entries = sum(80 * s.score.total_frames for s in small_dataset)
        assert total == expected_entries

    def test_deterministic(self, small_dataset):
        cfg = tiny_train_config(total_steps=5)
        ckpt, _ = trainer.train(cfg, small_dataset)
        m1 = trainer.evaluate(ckpt, small_dataset, steps=10, seed=3)
        m2 = trainer.evaluate(ckpt, small_dataset, steps=10, seed=3)
        assert m1 == m2

    def test_gt_against_itself_zero(self, small_dataset):
        # metric plumbing: squared error of gt vs gt partitions to zeros
        s = small_dataset[0]
        sq = (s.gt_mel.data - s.gt_mel.data) ** 2
        mask = s.true_regions.covers()
        assert sq[:, mask].sum() == 0.0 and sq[:, ~mask].sum() == 0.0

    def test_training_beats_untrained(self, small_dataset):
        cfg = tiny_train_config(total_steps=120, learning_rate=3e-3)
        trained, _ = trainer.train(cfg, small_dataset)
        untrained = trainer.Checkpoint(
            params=dn.init_params(
                n_mels=80, hidden=cfg.hidden, depth=cfg.depth, cond_dim=2,
                step_dim=cfg.step_dim, kernel=cfg.kernel, seed=cfg.seed,
            ),
            schedule=trained.schedule,
            norm_lo=trained.norm_lo,
            norm_hi=trained.norm_hi,
            config=cfg,
        )
        m_trained = trainer.evaluate(trained, small_dataset, steps=25, seed=0)
        m_untrained = trainer.evaluate(untrained, small_dataset, steps=25, seed=0)
        assert m_trained.global_mse < m_untrained.global_mse
        assert m_trained.region_mse < m_untrained.region_mse

    def test_steps_bound(self, small_dataset):
        cfg = tiny_train_config(total_steps=3)
        ckpt, _ = trainer.train(cfg, small_dataset)
        with pytest.raises(ValueError):
            trainer.evaluate(ckpt, small_dataset, steps=101)

    @pytest.mark.parametrize("steps", [1, 7, 100])
    def test_sampling_calls_denoiser_forward_once_per_visited_step(self, small_dataset, monkeypatch, steps):
        # the benchmark times the denoiser by wrapping dn.denoiser_forward,
        # so sampling must reach it, by that name, at every visited step
        cfg = tiny_train_config(total_steps=2)
        ckpt, _ = trainer.train(cfg, small_dataset)
        visited = []
        forward = dn.denoiser_forward

        def counting_forward(params, x_t, t, *args, **kwargs):
            visited.append(t)
            return forward(params, x_t, t, *args, **kwargs)

        monkeypatch.setattr(dn, "denoiser_forward", counting_forward)
        trainer.sample_item(ckpt, small_dataset, 0, steps, seed=0)
        assert visited == [int(t) for t in diffusion.sampling_steps(ckpt.schedule, steps)]


class TestCheckpointRoundtrip:
    def test_save_load(self, small_dataset, tmp_path):
        cfg = tiny_train_config(total_steps=4)
        ckpt, _ = trainer.train(cfg, small_dataset)
        path = tmp_path / "model.rdck"
        ckpt.save(path)
        back = trainer.Checkpoint.load(path)
        for (na, a), (_, b) in zip(ckpt.params.named_arrays(), back.params.named_arrays()):
            assert np.array_equal(a, b), na
        assert back.norm_lo == ckpt.norm_lo
        assert back.config == cfg
        np.testing.assert_array_equal(back.schedule.betas, ckpt.schedule.betas)

    def test_loaded_checkpoint_same_metrics(self, small_dataset, tmp_path):
        cfg = tiny_train_config(total_steps=4)
        ckpt, _ = trainer.train(cfg, small_dataset)
        path = tmp_path / "model.rdck"
        ckpt.save(path)
        back = trainer.Checkpoint.load(path)
        m1 = trainer.evaluate(ckpt, small_dataset, steps=5, seed=1)
        m2 = trainer.evaluate(back, small_dataset, steps=5, seed=1)
        assert m1 == m2


class TestAblationSuite:
    def test_schema_and_variants(self, small_dataset):
        cfg = tiny_train_config(total_steps=4, schedule_T=5)
        table = trainer.ablation_suite(cfg, small_dataset, steps_grid=(3, 5))
        assert set(table["variants"]) == {
            "full",
            "no_blur",
            "no_weighting",
            "no_blur_no_weighting",
            "no_reference",
        }
        for entry in table["variants"].values():
            assert set(entry["metrics"]) == {
                "global_mse",
                "region_mse",
                "nonregion_mse",
                "n_region",
                "n_nonregion",
            }
        assert set(table["steps"]) == {"3", "5"}

    @pytest.fixture
    def evaluated(self, monkeypatch):
        """The step counts ``evaluate`` is called with, the jobs run in
        process: a patch does not reach a pool worker."""
        calls = []
        real = trainer.evaluate

        def evaluate(ckpt, dataset, steps, seed=0):
            calls.append(steps)
            return real(ckpt, dataset, steps, seed=seed)

        monkeypatch.setattr(trainer, "evaluate", evaluate)
        monkeypatch.setattr(trainer, "run_in_pool", lambda jobs: [trainer.train_and_evaluate(*j) for j in jobs])
        return calls

    def test_full_chain_scored_once(self, small_dataset, evaluated):
        # the step sweep reuses the full variant's metrics at schedule_T
        cfg = tiny_train_config(total_steps=2, schedule_T=5)
        table = trainer.ablation_suite(cfg, small_dataset, steps_grid=(3, 5))
        assert evaluated == [5, 3] + [5] * (len(trainer.ABLATION_VARIANTS) - 1)
        assert table["steps"]["5"] == table["variants"]["full"]["metrics"]

    def test_each_step_count_scored_once(self, small_dataset, evaluated):
        cfg = tiny_train_config(total_steps=2, schedule_T=5)
        table = trainer.ablation_suite(cfg, small_dataset, steps_grid=(3, 3, 5, 3))
        assert evaluated == [5, 3] + [5] * (len(trainer.ABLATION_VARIANTS) - 1)
        assert list(table["steps"]) == ["3", "5"]

    def test_table_matches_a_sequential_reference(self, small_dataset):
        # the pooled suite against variants trained and scored one after
        # another in this process, on held-out items at another eval seed
        cfg = tiny_train_config(total_steps=3, schedule_T=6)
        held = synthgen.make_dataset(2, seed=5, cfg=small_dataset.cfg)
        grid = (4, 6, 2, 4)
        table = trainer.ablation_suite(cfg, small_dataset, steps_grid=grid, eval_seed=2, eval_dataset=held)
        want = {"eval": {"steps": 6, "seed": 2}, "variants": {}, "steps": {}}
        for name, flags in trainer.ABLATION_VARIANTS.items():
            ckpt, history = trainer.train(dataclasses.replace(cfg, **flags), small_dataset)
            metrics = trainer.evaluate(ckpt, held, 6, seed=2).to_json()
            want["variants"][name] = {"flags": flags, "final_loss": history.loss_curve[-1], "metrics": metrics}
            if name == "full":
                want["steps"] = {str(s): trainer.evaluate(ckpt, held, s, seed=2).to_json() for s in grid}
        assert json.dumps(table, sort_keys=True) == json.dumps(want, sort_keys=True)

    def test_no_weighting_trains_as_lambda_one(self, small_dataset):
        # prepare_sample weighs the regions by 1.0 either way, so the
        # no_weighting variant and a lambda_in=1 run train one network
        def flat(**kw):
            ckpt, _ = trainer.train(tiny_train_config(total_steps=4, **kw), small_dataset)
            return ckpt.params.flat.tobytes()

        assert flat(weighting=False) == flat(lambda_in=1.0) != flat()


class TestPool:
    def test_pool_returns_what_in_process_runs_return(self):
        """The pool reproduces in-process trainings and evaluations byte
        for byte, on a tiny config."""
        dataset = synthgen.make_dataset(4, seed=1)
        jobs = [
            (
                trainer.TrainConfig(
                    total_steps=6, batch_size=2, hidden=8, depth=2, step_dim=8, seed=seed,
                    lambda_in=lambda_in, blur=blur,
                ),
                dataset,
                (3, 5),
            )
            for seed, lambda_in, blur in ((0, 2.0, True), (1, 1.0, True), (2, 2.0, False))
        ]
        for (curve, metrics), job in zip(trainer.run_in_pool(jobs), jobs, strict=True):
            want_curve, want_metrics = trainer.train_and_evaluate(*job)
            assert np.array(curve).tobytes() == np.array(want_curve).tobytes()
            got = np.array([dataclasses.astuple(m) for m in metrics])
            want = np.array([dataclasses.astuple(m) for m in want_metrics])
            assert got.tobytes() == want.tobytes()

    def test_jobs_run_under_the_callers_warning_filters(self, small_dataset):
        # at this learning rate the first step overflows, and the next
        # loss is non-finite
        job = (tiny_train_config(total_steps=3, learning_rate=1e100), small_dataset, (5,))
        # the suite's filterwarnings = ["error"] raises the overflow in the worker
        with pytest.raises(RuntimeWarning, match="overflow"):
            trainer.run_in_pool([job])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(trainer.TrainingDivergedError, match="non-finite loss at step 1"):
                trainer.run_in_pool([job])

    def test_failing_job_cancels_the_jobs_not_started(self, small_dataset, tmp_path):
        log = tmp_path / "starts"
        cfg = tiny_train_config(total_steps=10, schedule_T=100)
        jobs = [(cfg, JobProbe(small_dataset, log, ValueError("job 0 fails")), (100,))]
        jobs += [(cfg, JobProbe(small_dataset, log), (100,)) for _ in range(9)]
        with pytest.raises(ValueError, match="job 0 fails"):
            trainer.run_in_pool(jobs)
        # the executor had handed a few jobs to its call queue; the rest never started
        assert 2 <= len(log.read_text().splitlines()) < len(jobs)
