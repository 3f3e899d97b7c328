"""Forward/reverse process math against closed forms and Monte Carlo."""

import numpy as np
import pytest

from refdiff import diffusion
from refdiff.transition import TransitionRegionSet, weight_map


def ones_weights(shape):
    regions = TransitionRegionSet(regions=(), window=1, total_frames=shape[1])
    return weight_map(regions, shape[0], 1.0)


class TestMakeSchedule:
    def test_forced_half_betas(self):
        sched = diffusion.make_schedule(2, 0.5, 0.5)
        np.testing.assert_allclose(sched.betas, [0.5, 0.5])
        np.testing.assert_allclose(sched.alpha_bars, [0.5, 0.25])

    def test_constant_schedule_geometric(self):
        b = 0.01
        sched = diffusion.make_schedule(50, b, b)
        np.testing.assert_allclose(sched.alpha_bars, (1 - b) ** np.arange(1, 51), rtol=1e-12)

    def test_product_against_log_accumulation(self):
        sched = diffusion.make_schedule(100, 1e-4, 0.06)
        log_acc = np.exp(np.sum(np.log1p(-sched.betas)))
        assert abs(sched.alpha_bars[-1] - log_acc) < 1e-12

    def test_linear_interpolation(self):
        sched = diffusion.make_schedule(5, 0.1, 0.5)
        np.testing.assert_allclose(sched.betas, [0.1, 0.2, 0.3, 0.4, 0.5], rtol=1e-12)

    def test_alpha_bars_strictly_decreasing(self):
        sched = diffusion.make_schedule(100, 1e-4, 0.06)
        assert np.all(np.diff(sched.alpha_bars) < 0.0)
        assert sched.alpha_bars[-1] > 0.0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            diffusion.make_schedule(10, 0.0, 0.5)
        with pytest.raises(ValueError):
            diffusion.make_schedule(10, 0.5, 0.1)
        with pytest.raises(ValueError):
            diffusion.make_schedule(0, 0.1, 0.5)

    def test_json_roundtrip(self):
        sched = diffusion.make_schedule(42, 2e-4, 0.05)
        back = diffusion.NoiseSchedule.from_json(sched.to_json())
        np.testing.assert_array_equal(back.betas, sched.betas)


class TestQSample:
    def test_near_identity_at_tiny_beta(self):
        sched = diffusion.make_schedule(10, 1e-9, 1e-9)
        x0 = np.full((2, 2), 0.8)
        out = diffusion.q_sample(x0, 10, np.ones((2, 2)), sched)
        np.testing.assert_allclose(out, x0, atol=1e-4)

    def test_zero_noise(self):
        sched = diffusion.make_schedule(10, 1e-3, 0.05)
        x0 = np.arange(6, dtype=np.float64).reshape(2, 3)
        out = diffusion.q_sample(x0, 7, np.zeros((2, 3)), sched)
        np.testing.assert_allclose(out, np.sqrt(sched.alpha_bars[6]) * x0, rtol=1e-15)

    def test_zero_signal(self):
        sched = diffusion.make_schedule(10, 1e-3, 0.05)
        noise = np.ones((2, 3))
        out = diffusion.q_sample(np.zeros((2, 3)), 4, noise, sched)
        np.testing.assert_allclose(out, np.sqrt(1 - sched.alpha_bars[3]) * noise, rtol=1e-15)

    def test_exact_inversion(self):
        sched = diffusion.make_schedule(100, 1e-4, 0.06)
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal((4, 5))
        noise = rng.standard_normal((4, 5))
        for t in (1, 50, 100):
            x_t = diffusion.q_sample(x0, t, noise, sched)
            abar = sched.alpha_bars[t - 1]
            back = (x_t - np.sqrt(1.0 - abar) * noise) / np.sqrt(abar)
            np.testing.assert_allclose(back, x0, rtol=1e-10)

    def test_step_range(self):
        sched = diffusion.make_schedule(10, 1e-3, 0.05)
        with pytest.raises(ValueError):
            diffusion.q_sample(np.zeros((1, 1)), 0, np.zeros((1, 1)), sched)
        with pytest.raises(ValueError):
            diffusion.q_sample(np.zeros((1, 1)), 11, np.zeros((1, 1)), sched)

    def test_shape_mismatch(self):
        sched = diffusion.make_schedule(10, 1e-3, 0.05)
        with pytest.raises(ValueError):
            diffusion.q_sample(np.zeros((2, 2)), 1, np.zeros((2, 3)), sched)


class TestQStep:
    def test_beta_zero_limit(self):
        sched = diffusion.make_schedule(5, 1e-12, 1e-12)
        x = np.full((2, 2), 1.5)
        out = diffusion.q_step(x, 3, np.ones((2, 2)), sched)
        np.testing.assert_allclose(out, x, atol=1e-5)

    def test_pure_noise_input(self):
        sched = diffusion.make_schedule(5, 0.04, 0.04)
        noise = np.ones((2, 2))
        out = diffusion.q_step(np.zeros((2, 2)), 2, noise, sched)
        np.testing.assert_allclose(out, np.sqrt(0.04) * noise, rtol=1e-15)

    def test_chain_matches_closed_form_moments(self):
        # Monte Carlo: chained single steps vs the direct formula at t*
        sched = diffusion.make_schedule(40, 1e-3, 0.05)
        rng = np.random.default_rng(42)
        n = 10_000
        x0 = 0.7
        x = np.full(n, x0)
        for t in range(1, 41):
            x = diffusion.q_step(x, t, rng.standard_normal(n), sched)
        abar = sched.alpha_bars[-1]
        mean_true = np.sqrt(abar) * x0
        var_true = 1.0 - abar
        se_mean = np.sqrt(var_true / n)
        se_var = var_true * np.sqrt(2.0 / (n - 1))
        assert abs(x.mean() - mean_true) < 3 * se_mean
        assert abs(x.var() - var_true) < 3 * se_var


class TestReverseMean:
    def test_zero_eps(self):
        sched = diffusion.make_schedule(10, 1e-3, 0.05)
        x = np.full((2, 2), 2.0)
        out = diffusion.reverse_mean(x, 5, np.zeros((2, 2)), sched)
        np.testing.assert_allclose(out, x / np.sqrt(sched.alphas[4]), rtol=1e-15)

    def test_small_beta_limit(self):
        sched = diffusion.make_schedule(10, 1e-10, 1e-10)
        x = np.full((2, 2), 2.0)
        out = diffusion.reverse_mean(x, 5, np.full((2, 2), 0.3), sched)
        np.testing.assert_allclose(out, x, atol=1e-4)

    def test_algebra_against_independent_evaluation(self):
        sched = diffusion.make_schedule(30, 1e-3, 0.04)
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal((3, 4))
        eps = rng.standard_normal((3, 4))
        for t in (1, 10, 30):
            x_t = diffusion.q_sample(x0, t, eps, sched)
            got = diffusion.reverse_mean(x_t, t, eps, sched)
            # independent re-derivation from the schedule values
            beta = sched.betas[t - 1]
            abar = sched.alpha_bars[t - 1]
            expected = (x_t - beta / np.sqrt(1.0 - abar) * eps) * (1.0 / np.sqrt(1.0 - beta))
            np.testing.assert_allclose(got, expected, atol=1e-10)


class TestPStep:
    def test_no_noise_returns_mean(self):
        sched = diffusion.make_schedule(10, 1e-3, 0.05)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3))
        eps = rng.standard_normal((2, 3))
        out = diffusion.p_step(x, 5, eps, None, sched)
        np.testing.assert_array_equal(out, diffusion.reverse_mean(x, 5, eps, sched))

    def test_final_step_ignores_noise(self):
        sched = diffusion.make_schedule(10, 1e-3, 0.05)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3))
        eps = rng.standard_normal((2, 3))
        z = rng.standard_normal((2, 3))
        out = diffusion.p_step(x, 1, eps, z, sched)
        np.testing.assert_array_equal(out, diffusion.reverse_mean(x, 1, eps, sched))

    def test_variance_matches_beta(self):
        sched = diffusion.make_schedule(10, 1e-3, 0.05)
        rng = np.random.default_rng(4)
        x = np.full(10_000, 0.4)
        eps = np.zeros(10_000)
        out = diffusion.p_step(x, 6, eps, rng.standard_normal(10_000), sched)
        beta = sched.betas[5]
        assert abs(out.var() - beta) / beta < 0.05


class TestRespacedStep:
    def test_strided_beta_from_alpha_bar_ratio(self):
        sched = diffusion.make_schedule(100, 1e-4, 0.06)
        for t, t_prev in ((100, 96), (57, 52), (5, 1), (3, 0)):
            abar_prev = sched.alpha_bars[t_prev - 1] if t_prev else 1.0
            expected = 1.0 - sched.alpha_bars[t - 1] / abar_prev
            assert diffusion.step_beta(t, t_prev, sched) == pytest.approx(expected, rel=1e-15)
        # the strided jump adds up the variance of the steps it skips
        assert diffusion.step_beta(100, 96, sched) > sched.betas[99]

    def test_consecutive_beta_is_the_schedule_beta(self):
        sched = diffusion.make_schedule(100, 1e-4, 0.06)
        for t in (1, 2, 50, 100):
            assert diffusion.step_beta(t, t - 1, sched) == sched.betas[t - 1]

    def test_previous_step_bounds(self):
        sched = diffusion.make_schedule(10, 1e-3, 0.05)
        with pytest.raises(ValueError):
            diffusion.step_beta(5, 5, sched)
        with pytest.raises(ValueError):
            diffusion.step_beta(5, -1, sched)

    def test_clipped_posterior_matches_hand_formula(self):
        sched = diffusion.make_schedule(100, 1e-4, 0.06)
        rng = np.random.default_rng(12)
        x_t = 2.0 * rng.standard_normal((3, 5))
        eps = rng.standard_normal((3, 5))
        t, t_prev = 80, 76
        got = diffusion.clipped_posterior_mean(x_t, t, eps, sched, t_prev, (-1.0, 1.0))
        abar, abar_prev = sched.alpha_bars[t - 1], sched.alpha_bars[t_prev - 1]
        beta = 1.0 - abar / abar_prev
        x0 = np.clip((x_t - np.sqrt(1.0 - abar) * eps) / np.sqrt(abar), -1.0, 1.0)
        assert np.any(np.abs(x0) == 1.0)  # the clip is exercised
        expected = (
            np.sqrt(abar_prev) * beta / (1.0 - abar) * x0
            + np.sqrt(1.0 - beta) * (1.0 - abar_prev) / (1.0 - abar) * x_t
        )
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-15)

    def test_posterior_equals_epsilon_form_without_clip(self):
        sched = diffusion.make_schedule(100, 1e-4, 0.06)
        rng = np.random.default_rng(13)
        x_t = rng.standard_normal((2, 4))
        eps = rng.standard_normal((2, 4))
        for t, t_prev in ((100, 96), (40, 39), (1, 0)):
            wide = diffusion.clipped_posterior_mean(x_t, t, eps, sched, t_prev, (-1e9, 1e9))
            plain = diffusion.reverse_mean(x_t, t, eps, sched, t_prev)
            np.testing.assert_allclose(wide, plain, rtol=1e-9, atol=1e-12)

    def test_clipped_final_step_returns_clipped_x0(self):
        sched = diffusion.make_schedule(10, 1e-3, 0.05)
        x_t = np.array([[3.0, -0.2]])
        out = diffusion.p_step(x_t, 1, np.zeros((1, 2)), None, sched, 0, (-1.0, 1.0))
        x0 = np.clip(x_t / np.sqrt(sched.alpha_bars[0]), -1.0, 1.0)
        np.testing.assert_allclose(out, x0, rtol=1e-9)

    def test_strided_noise_has_the_jump_variance(self):
        sched = diffusion.make_schedule(100, 1e-4, 0.06)
        rng = np.random.default_rng(14)
        x = np.full(10_000, 0.4)
        out = diffusion.p_step(x, 60, np.zeros(10_000), rng.standard_normal(10_000), sched, 55)
        beta = diffusion.step_beta(60, 55, sched)
        assert abs(out.var() - beta) / beta < 0.05


class TestSample:
    def test_determinism(self):
        sched = diffusion.make_schedule(20, 1e-3, 0.05)

        def predictor(x_t, t):
            return 0.5 * x_t

        a = diffusion.sample(predictor, (3, 4), sched, 20, seed=9)
        b = diffusion.sample(predictor, (3, 4), sched, 20, seed=9)
        assert np.array_equal(a, b)

    def test_zero_predictor_matches_reference_unroll(self):
        sched = diffusion.make_schedule(15, 1e-3, 0.05)
        got = diffusion.sample(lambda x, t: np.zeros_like(x), (2, 3), sched, 15, seed=5)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3))
        for t in range(15, 0, -1):
            mean = (x - 0.0) / np.sqrt(sched.alphas[t - 1])
            if t > 1:
                x = mean + np.sqrt(sched.betas[t - 1]) * rng.standard_normal((2, 3))
            else:
                x = mean
        assert np.array_equal(got, x)

    def test_point_mass_analytic_predictor(self):
        sched = diffusion.make_schedule(50, 1e-4, 0.06)
        c0 = 0.3

        def optimal(x_t, t):
            abar = sched.alpha_bars[t - 1]
            return (x_t - np.sqrt(abar) * c0) / np.sqrt(1.0 - abar)

        means = np.zeros((2, 2))
        runs = 200
        for i in range(runs):
            means += diffusion.sample(optimal, (2, 2), sched, 50, seed=i)
        means /= runs
        assert np.abs(means - c0).max() < 0.05

    def test_respaced_zero_predictor_matches_unroll(self):
        sched = diffusion.make_schedule(100, 1e-4, 0.06)
        got = diffusion.sample(lambda x, t: np.zeros_like(x), (2, 3), sched, 24, seed=6)
        ts = diffusion.sampling_steps(sched, 24)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 3))
        for i, t in enumerate(ts):
            t_prev = int(ts[i + 1]) if i + 1 < len(ts) else 0
            abar_prev = sched.alpha_bars[t_prev - 1] if t_prev else 1.0
            beta = 1.0 - sched.alpha_bars[t - 1] / abar_prev
            x = x / np.sqrt(1.0 - beta)
            if t > 1:
                x = x + np.sqrt(beta) * rng.standard_normal((2, 3))
        np.testing.assert_allclose(got, x, rtol=1e-12)

    def test_clip_bounds_the_output(self):
        sched = diffusion.make_schedule(100, 1e-4, 0.06)
        # a predictor that underestimates the noise blows up without the clip
        def weak(x_t, t):
            return 0.5 * x_t

        loose = diffusion.sample(weak, (4, 6), sched, 100, seed=2)
        clipped = diffusion.sample(weak, (4, 6), sched, 100, seed=2, clip=(-1.0, 1.0))
        assert np.abs(loose).max() > 1.5
        assert np.abs(clipped).max() <= 1.0 + 1e-9

    def test_strided_subset(self):
        sched = diffusion.make_schedule(100, 1e-4, 0.06)
        ts = diffusion.sampling_steps(sched, 24)
        assert ts[0] == 100 and ts[-1] == 1
        assert len(ts) == 24
        assert len(set(ts.tolist())) == 24
        assert np.all(np.diff(ts) < 0)
        full = diffusion.sampling_steps(sched, 100)
        assert np.array_equal(full, np.arange(100, 0, -1))

    def test_steps_bound(self):
        sched = diffusion.make_schedule(10, 1e-3, 0.05)
        with pytest.raises(ValueError):
            diffusion.sample(lambda x, t: x, (1, 1), sched, 11, seed=0)


class TestWeightedEpsLoss:
    def test_uniform_weights_plain_mse(self):
        rng = np.random.default_rng(5)
        eps = rng.standard_normal((3, 4))
        eps_hat = rng.standard_normal((3, 4))
        loss, grad = diffusion.weighted_eps_loss(eps, eps_hat, ones_weights((3, 4)))
        np.testing.assert_allclose(loss, ((eps - eps_hat) ** 2).mean(), rtol=1e-14)
        np.testing.assert_allclose(grad, -2.0 * (eps - eps_hat) / 12.0, rtol=1e-14)

    def test_perfect_prediction(self):
        eps = np.ones((2, 2))
        loss, grad = diffusion.weighted_eps_loss(eps, eps.copy(), ones_weights((2, 2)))
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_hand_computed_2x2(self):
        eps = np.array([[1.0, 0.0], [2.0, 1.0]])
        eps_hat = np.array([[0.0, 0.0], [1.0, 3.0]])
        regions = TransitionRegionSet(regions=(), window=1, total_frames=2)
        wm = weight_map(regions, 2, 1.0)
        wm.data[1, :] = 2.0
        w = type(wm)(data=wm.data, lambda_in=2.0)
        # sum w = 6; sum w*(d^2) = 1*1 + 1*0 + 2*1 + 2*4 = 11
        loss, grad = diffusion.weighted_eps_loss(eps, eps_hat, w)
        np.testing.assert_allclose(loss, 11.0 / 6.0, rtol=1e-14)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        eps = rng.standard_normal((2, 2))
        eps_hat = rng.standard_normal((2, 2))
        regions = TransitionRegionSet(regions=((1, 2),), window=1, total_frames=2)
        w = weight_map(regions, 2, 2.0)
        _, grad = diffusion.weighted_eps_loss(eps, eps_hat, w)
        h = 1e-6
        for i in range(2):
            for j in range(2):
                up = eps_hat.copy()
                up[i, j] += h
                down = eps_hat.copy()
                down[i, j] -= h
                lu, _ = diffusion.weighted_eps_loss(eps, up, w)
                ld, _ = diffusion.weighted_eps_loss(eps, down, w)
                numeric = (lu - ld) / (2 * h)
                assert abs(grad[i, j] - numeric) / max(abs(numeric), 1e-8) < 1e-8

    def test_lambda_scaling_grad_emphasis(self):
        rng = np.random.default_rng(7)
        eps = rng.standard_normal((2, 4))
        eps_hat = rng.standard_normal((2, 4))
        regions = TransitionRegionSet(regions=((0, 2),), window=2, total_frames=4)
        ratios = []
        for lam in (1.0, 2.0, 4.0):
            w = weight_map(regions, 2, lam)
            _, grad = diffusion.weighted_eps_loss(eps, eps_hat, w)
            inside = np.abs(grad[:, :2]).sum()
            outside = np.abs(grad[:, 2:]).sum()
            ratios.append(inside / outside)
        assert ratios[0] < ratios[1] < ratios[2]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            diffusion.weighted_eps_loss(np.zeros((2, 2)), np.zeros((2, 3)), ones_weights((2, 2)))
