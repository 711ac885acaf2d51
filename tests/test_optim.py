import numpy as np
import pytest

from branchvi.errors import NonFiniteGradientError
from branchvi.optim import AdamState, LrSchedule, adam_init, adam_step, lr_at


def reference_adam_step(state: AdamState, params, grads, lr):
    """The functional Adam step adam_step must match bitwise: new arrays,
    descent on the negated gradient."""
    g = -grads
    t = state.t + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * g
    s = state.beta2 * state.s + (1.0 - state.beta2) * g * g
    m_hat = m / (1.0 - state.beta1 ** t)
    s_hat = s / (1.0 - state.beta2 ** t)
    new_params = params - lr * m_hat / (np.sqrt(s_hat) + state.eps)
    return AdamState(m, s, t, state.beta1, state.beta2, state.eps), new_params


class TestAdam:
    def test_zero_gradient_is_noop(self):
        state = adam_init(3)
        params = np.array([1.0, -2.0, 0.5])
        before = params.copy()
        new_state, new_params = adam_step(state, params, np.zeros(3), lr=0.1)
        assert np.array_equal(new_params, before)
        assert new_state.t == 1

    def test_in_place_matches_reference_bitwise(self):
        gen = np.random.default_rng(5)
        n = 257
        ref_state, ref_params = adam_init(n), gen.standard_normal(n)
        state, params = adam_init(n), ref_params.copy()
        # gradients spanning 1e-12 .. 1e6 with zeros among them, and the
        # learning rate dropping part way
        scales = 10.0 ** gen.uniform(-12, 6, size=n)
        for k in range(40):
            grads = gen.standard_normal(n) * scales
            grads[gen.random(n) < 0.2] = 0.0
            lr = 1e-2 if k < 20 else 1e-3
            ref_state, ref_params = reference_adam_step(ref_state, ref_params, grads, lr)
            out_state, out_params = adam_step(state, params, grads, lr)
            assert out_state is state and out_params is params  # updated in place
            assert state.t == ref_state.t == k + 1
            assert np.array_equal(params, ref_params), k
            assert np.array_equal(state.m, ref_state.m), k
            assert np.array_equal(state.s, ref_state.s), k

    def test_first_step_magnitude(self):
        # bias correction makes m_hat/sqrt(s_hat) = g/|g| on the first step
        state = adam_init(2)
        params = np.zeros(2)
        g = np.array([3.0, -0.004])
        _, new_params = adam_step(state, params, g, lr=0.01)
        assert np.allclose(np.abs(new_params), 0.01, rtol=1e-5)
        assert np.all(np.sign(new_params) == np.sign(g))  # ascent

    def test_quadratic_convergence(self):
        # maximize -(x - 3)^2
        state = adam_init(1)
        x = np.zeros(1)
        for _ in range(2000):
            g = -2.0 * (x - 3.0)
            state, x = adam_step(state, x, g, lr=0.05)
        assert abs(x[0] - 3.0) < 1e-2

    def test_scale_covariance_of_first_step(self):
        g = np.array([0.7, -1.3, 2.2])
        _, p1 = adam_step(adam_init(3), np.zeros(3), g, lr=0.01)
        _, p2 = adam_step(adam_init(3), np.zeros(3), 1000.0 * g, lr=0.01)
        assert np.allclose(np.sign(p1), np.sign(p2))
        assert np.max(np.abs(p1 - p2) / np.abs(p1)) < 1e-6

    def test_rejects_non_finite_gradient(self):
        state = adam_init(2)
        params = np.zeros(2)
        with pytest.raises(NonFiniteGradientError):
            adam_step(state, params, np.array([1.0, np.nan]), lr=0.1)
        with pytest.raises(NonFiniteGradientError, match="flat index 0"):
            adam_step(state, params, np.array([np.inf, 0.0]), lr=0.1)
        with pytest.raises(NonFiniteGradientError, match="flat index 2"):
            adam_step(adam_init(4), np.zeros(4), np.array([1.0, 2.0, -np.inf, np.inf]),
                      lr=0.1)
        # state and parameters untouched on rejection
        assert state.t == 0 and np.all(state.m == 0) and np.all(params == 0)

    def test_overflowing_gradient_sum_is_not_rejected(self):
        # the sum of finite gradients can overflow; only a non-finite entry fails
        grads = np.array([1e308, 1e308, -3.0])
        with np.errstate(over="ignore"):  # g * g overflows in the second moment
            _, params = adam_step(adam_init(3), np.zeros(3), grads, lr=0.1)
        assert np.all(np.isfinite(params))

    def test_default_hyperparameters(self):
        state = adam_init(1)
        assert state.beta1 == 0.9 and state.beta2 == 0.999 and state.eps == 1e-8


class TestLrSchedule:
    def test_initial_value(self):
        sched = LrSchedule(1e-3, drop_every=50_000, drop_factor=0.1, max_drops=3)
        assert lr_at(sched, 0) == 1e-3

    def test_drops(self):
        sched = LrSchedule(1e-3, drop_every=50_000, drop_factor=0.1, max_drops=3)
        assert lr_at(sched, 49_999) == 1e-3
        assert lr_at(sched, 50_000) == pytest.approx(1e-4)
        assert lr_at(sched, 150_000) == pytest.approx(1e-6)
        assert lr_at(sched, 10_000_000) == pytest.approx(1e-6)  # capped at max_drops

    def test_zero_max_drops_is_constant(self):
        sched = LrSchedule(5e-3, drop_every=100, drop_factor=0.1, max_drops=0)
        assert lr_at(sched, 0) == lr_at(sched, 10_000) == 5e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            LrSchedule(1e-3, drop_every=0)
        sched = LrSchedule(1e-3)
        with pytest.raises(ValueError):
            lr_at(sched, -1)
