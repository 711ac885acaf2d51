import math
import os
import subprocess
import sys

import numpy as np
import pytest

import branchvi
from branchvi.errors import NonFiniteGradientError
from branchvi.optim import (
    _SLICE,
    BETA1,
    BETA2,
    EPS,
    AdamState,
    LrSchedule,
    _factors,
    _update,
    adam_init,
    adam_step,
    catch_up,
    lr_at,
)


def reference_adam_step(state: AdamState, params, grads, lr, eps=EPS):
    """The functional Adam step adam_step must match bitwise: new arrays,
    descent on the negated gradient, in Kingma & Ba's efficient form and the
    update's operation order. ``eps=0`` gives the zero-gradient steps the
    lazy catch-up reproduces."""
    g = -grads
    t = state.t + 1
    m = BETA1 * state.m + (1.0 - BETA1) * g
    s = BETA2 * state.s + (1.0 - BETA2) * g * g
    root = math.sqrt(1.0 - BETA2 ** t)
    alpha = lr * root / (1.0 - BETA1 ** t)
    new_params = params - m / (np.sqrt(s) + eps * root) * alpha
    return AdamState(m, s, t), new_params


def textbook_adam_step(state: AdamState, params, grads, lr, eps=EPS):
    """Kingma & Ba's Algorithm 1 as written: bias-corrected moments m_hat and
    s_hat, then lr m_hat / (sqrt(s_hat) + eps). The same update as
    reference_adam_step in exact arithmetic."""
    g = -grads
    t = state.t + 1
    m = BETA1 * state.m + (1.0 - BETA1) * g
    s = BETA2 * state.s + (1.0 - BETA2) * g * g
    m_hat = m / (1.0 - BETA1 ** t)
    s_hat = s / (1.0 - BETA2 ** t)
    new_params = params - lr * m_hat / (np.sqrt(s_hat) + eps)
    return AdamState(m, s, t), new_params


def _gradient_sequence(gen, n, steps=40):
    """(gradient, lr) pairs: entries spanning 1e-12 .. 1e6 with zeros among
    them, and the learning rate dropping half way."""
    scales = 10.0 ** gen.uniform(-12, 6, size=n)
    for k in range(steps):
        grads = gen.standard_normal(n) * scales
        grads[gen.random(n) < 0.2] = 0.0
        yield grads, 1e-2 if k < steps // 2 else 1e-3


class TestAdam:
    def test_zero_gradient_is_noop(self):
        state = adam_init(3)
        params = np.array([1.0, -2.0, 0.5])
        before = params.copy()
        new_state, new_params = adam_step(state, params, [np.zeros(3)], lr=0.1)
        assert np.array_equal(new_params, before)
        assert new_state.t == 1

    def test_in_place_matches_reference_bitwise(self):
        gen = np.random.default_rng(5)
        n = 257
        ref_state, ref_params = adam_init(n), gen.standard_normal(n)
        state, params = adam_init(n), ref_params.copy()
        for k, (grads, lr) in enumerate(_gradient_sequence(gen, n)):
            ref_state, ref_params = reference_adam_step(ref_state, ref_params, grads, lr)
            out_state, out_params = adam_step(state, params, [grads], lr)
            assert out_state is state and out_params is params  # updated in place
            assert state.t == ref_state.t == k + 1
            assert np.array_equal(params, ref_params), k
            assert np.array_equal(state.m, ref_state.m), k
            assert np.array_equal(state.s, ref_state.s), k

    @pytest.mark.parametrize("t0", [0, 38_105, 10 ** 6])
    def test_efficient_form_is_the_textbook_update(self, t0):
        # Each step from the same (m, s, t), with params 0 so the new params
        # are exactly minus the update: the two forms agree to rounding,
        # from the first step and past step 38,106 (where both bias
        # corrections round to 1 and only the operation order differs).
        gen = np.random.default_rng(6)
        n = 257
        state = AdamState(np.zeros(n), np.zeros(n), t0)
        for grads, lr in _gradient_sequence(gen, n):
            ref, want = textbook_adam_step(state, np.zeros(n), grads, lr)
            got_state, got = reference_adam_step(state, np.zeros(n), grads, lr)
            assert np.array_equal(got_state.m, ref.m) and np.array_equal(got_state.s, ref.s)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            assert np.count_nonzero(want) > n // 2
            state = ref

    def test_first_step_magnitude(self):
        # bias correction makes m_hat/sqrt(s_hat) = g/|g| on the first step
        state = adam_init(2)
        params = np.zeros(2)
        g = np.array([3.0, -0.004])
        _, new_params = adam_step(state, params, [g], lr=0.01)
        assert np.allclose(np.abs(new_params), 0.01, rtol=1e-5)
        assert np.all(np.sign(new_params) == np.sign(g))  # ascent

    def test_quadratic_convergence(self):
        # maximize -(x - 3)^2
        state = adam_init(1)
        x = np.zeros(1)
        for _ in range(2000):
            g = -2.0 * (x - 3.0)
            state, x = adam_step(state, x, [g], lr=0.05)
        assert abs(x[0] - 3.0) < 1e-2

    def test_scale_covariance_of_first_step(self):
        g = np.array([0.7, -1.3, 2.2])
        _, p1 = adam_step(adam_init(3), np.zeros(3), [g], lr=0.01)
        _, p2 = adam_step(adam_init(3), np.zeros(3), [1000.0 * g], lr=0.01)
        assert np.allclose(np.sign(p1), np.sign(p2))
        assert np.max(np.abs(p1 - p2) / np.abs(p1)) < 1e-6

    def test_rejects_non_finite_gradient(self):
        state = adam_init(2)
        params = np.zeros(2)
        with pytest.raises(NonFiniteGradientError):
            adam_step(state, params, [np.array([1.0, np.nan])], lr=0.1)
        with pytest.raises(NonFiniteGradientError, match="flat index 0"):
            adam_step(state, params, [np.array([np.inf, 0.0])], lr=0.1)
        with pytest.raises(NonFiniteGradientError, match="flat index 2"):
            adam_step(adam_init(4), np.zeros(4), [np.array([1.0, 2.0, -np.inf, np.inf])],
                      lr=0.1)
        # state and parameters untouched on rejection
        assert state.t == 0 and np.all(state.m == 0) and np.all(params == 0)

    def test_overflowing_gradient_sum_is_not_rejected(self):
        # the sum of finite gradients can overflow; only a non-finite entry fails
        grads = np.array([1e308, 1e308, -3.0])
        with np.errstate(over="ignore"):  # g * g overflows in the second moment
            _, params = adam_step(adam_init(3), np.zeros(3), [grads], lr=0.1)
        assert np.all(np.isfinite(params))

    def test_default_hyperparameters(self):
        assert BETA1 == 0.9 and BETA2 == 0.999 and EPS == 1e-8


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


class TestLazyRows:
    """adam_step with ``rows``: the lazily updated rows of the matrix W that
    ends the parameter vector (head of 3 entries, W of 6 rows x 4 here)."""

    HEAD, N, WIDTH = 3, 6, 4

    def _state(self, gen, t, tau):
        size = self.HEAD + self.N * self.WIDTH
        # |m| / sqrt(s) of order 1, far above eps
        s = gen.uniform(0.5, 2.0, size)
        m = gen.uniform(-1.0, 1.0, size) * np.sqrt(s)
        state = AdamState(m, s, t, tau=np.array(tau, dtype=np.int64))
        return state, gen.standard_normal(size)

    def test_untouched_rows_are_bitwise_unchanged(self):
        gen = np.random.default_rng(11)
        state, params = self._state(gen, 20, [3, 20, 7, 0, 12, 19])
        before = [a.copy() for a in (params, state.m, state.s, state.tau)]
        rows = np.array([1, 4])
        grads = gen.standard_normal(self.HEAD + rows.size * self.WIDTH)
        adam_step(state, params, [grads], 1e-2, rows=rows, width=self.WIDTH,
                  schedule=LrSchedule(1e-2))
        keep = np.setdiff1d(np.arange(self.N), rows)
        for new, old in zip((params, state.m, state.s), before):
            W_new = new[self.HEAD:].reshape(self.N, self.WIDTH)
            W_old = old[self.HEAD:].reshape(self.N, self.WIDTH)
            assert np.array_equal(W_new[keep], W_old[keep])
            assert not np.array_equal(W_new[rows], W_old[rows])
        assert np.array_equal(state.tau[keep], before[3][keep])
        assert np.all(state.tau[rows] == 21) and state.t == 21

    def test_rows_without_a_gap_take_the_dense_step_bitwise(self):
        gen = np.random.default_rng(12)
        state, params = self._state(gen, 9, [9] * self.N)
        ref_state, ref_params = AdamState(state.m.copy(), state.s.copy(), 9), params.copy()
        rows = np.array([0, 2, 5])
        g_rows = gen.standard_normal((rows.size, self.WIDTH))
        g_head = gen.standard_normal(self.HEAD)
        dense = np.zeros(params.size)
        dense[:self.HEAD] = g_head
        dense[self.HEAD:].reshape(self.N, self.WIDTH)[rows] = g_rows
        ref_state, ref_params = reference_adam_step(ref_state, ref_params, dense, 3e-3)
        adam_step(state, params, [g_head, g_rows], 3e-3, rows=rows,
                  width=self.WIDTH, schedule=LrSchedule(3e-3))
        W, W_ref = (a[self.HEAD:].reshape(self.N, self.WIDTH) for a in (params, ref_params))
        assert np.array_equal(params[:self.HEAD], ref_params[:self.HEAD])
        assert np.array_equal(W[rows], W_ref[rows])

    @pytest.mark.parametrize("tau, k", [(1, 1), (5, 30), (40, 500), (95, 12), (3, 2000)])
    def test_catch_up_matches_explicit_zero_gradient_steps(self, tau, k):
        # the schedule drops at iterations 100 and 200 (steps 101 and 201),
        # inside some of the gaps; the last gap runs past the 397-term horizon
        sched = LrSchedule(1e-2, drop_every=100, drop_factor=0.1, max_drops=2)
        gen = np.random.default_rng(13 + k)
        n = 5
        s0 = gen.uniform(0.5, 2.0, (n, self.WIDTH))
        m0 = gen.uniform(-1.0, 1.0, (n, self.WIDTH)) * np.sqrt(s0)
        p0 = np.zeros((n, self.WIDTH))  # so p holds the displacement without rounding
        # reference: k dense steps with zero gradient and eps dropped
        ref, ref_p = AdamState(m0.ravel().copy(), s0.ravel().copy(), tau), p0.ravel()
        for u in range(tau + 1, tau + k + 1):
            ref, ref_p = reference_adam_step(ref, ref_p, np.zeros(ref_p.size),
                                             lr_at(sched, u - 1), eps=0.0)
        p, m, s = p0.copy(), m0.copy(), s0.copy()
        catch_up(sched, p, m, s, np.full(n, tau), np.full(n, k))
        np.testing.assert_allclose(p, ref_p.reshape(n, -1), rtol=1e-12, atol=0)
        np.testing.assert_allclose(m, ref.m.reshape(n, -1), rtol=1e-12, atol=0)
        np.testing.assert_allclose(s, ref.s.reshape(n, -1), rtol=1e-12, atol=0)

    def test_lazy_step_matches_dense_steps_without_eps_in_the_gap(self):
        # through adam_step: rows last updated at step 40 are touched at step
        # 141, after the lr drop; the rest of the vector steps every time
        sched = LrSchedule(1e-2, drop_every=100, drop_factor=0.1, max_drops=2)
        gen = np.random.default_rng(15)
        size = self.HEAD + self.N * self.WIDTH
        state, params = self._state(gen, 140, [40] * self.N)
        ref, ref_params = AdamState(state.m.copy(), state.s.copy(), 40), params.copy()
        for u in range(41, 141):
            ref, ref_params = reference_adam_step(ref, ref_params, np.zeros(size),
                                                  lr_at(sched, u - 1), eps=0.0)
        rows = np.array([0, 3, 4])
        g_rows = gen.standard_normal((rows.size, self.WIDTH))
        dense = np.zeros(size)
        dense[self.HEAD:].reshape(self.N, self.WIDTH)[rows] = g_rows
        ref, ref_params = reference_adam_step(ref, ref_params, dense, lr_at(sched, 140))
        adam_step(state, params, [np.zeros(self.HEAD), g_rows],
                  lr_at(sched, 140), rows=rows, width=self.WIDTH, schedule=sched)
        W, W_ref = (a[self.HEAD:].reshape(self.N, self.WIDTH)[rows] for a in (params, ref_params))
        np.testing.assert_allclose(W, W_ref, rtol=1e-12, atol=0)

    def test_mixed_gaps_one_across_a_drop_just_before_the_next(self):
        # step 180 of a schedule dropping at steps 101 and 201: row 0 (tau 90)
        # and row 4 (tau 60) cross the first drop, row 1 (tau 179) has no gap,
        # and the batch's term matrix reaches past step 201 in its masked part
        sched = LrSchedule(1e-2, drop_every=100, drop_factor=0.1, max_drops=2)
        gen = np.random.default_rng(16)
        tau = [90, 179, 150, 179, 60, 120]
        state, params = self._state(gen, 179, tau)
        m0, s0, p0 = state.m.copy(), state.s.copy(), params.copy()
        rows = np.array([0, 1, 4])
        g_head = gen.standard_normal(self.HEAD)
        g_rows = gen.standard_normal((rows.size, self.WIDTH))
        adam_step(state, params, [g_head, g_rows], lr_at(sched, 179),
                  rows=rows, width=self.WIDTH, schedule=sched)
        _, head_ref = reference_adam_step(AdamState(m0[:self.HEAD], s0[:self.HEAD], 179),
                                          p0[:self.HEAD], g_head, lr_at(sched, 179))
        assert np.array_equal(params[:self.HEAD], head_ref)
        W = params[self.HEAD:].reshape(self.N, self.WIDTH)
        for r, g in zip(rows, g_rows):
            cols = slice(self.HEAD + r * self.WIDTH, self.HEAD + (r + 1) * self.WIDTH)
            ref, ref_p = AdamState(m0[cols], s0[cols], tau[r]), p0[cols]
            for u in range(tau[r] + 1, 180):  # the missed steps, eps dropped
                ref, ref_p = reference_adam_step(ref, ref_p, np.zeros(self.WIDTH),
                                                 lr_at(sched, u - 1), eps=0.0)
            ref, ref_p = reference_adam_step(ref, ref_p, g, lr_at(sched, 179))
            if tau[r] == 179:
                assert np.array_equal(W[r], ref_p)
            else:
                np.testing.assert_allclose(W[r], ref_p, rtol=1e-12, atol=0)
        assert np.all(state.tau[rows] == 180)

    def test_never_updated_rows_take_a_plain_first_step(self):
        # tau 0 (and s = 0): no catch-up, whatever the step number
        gen = np.random.default_rng(14)
        size = self.HEAD + self.N * self.WIDTH
        state = AdamState(np.zeros(size), np.zeros(size), 50,
                          tau=np.zeros(self.N, dtype=np.int64))
        params = gen.standard_normal(size)
        rows = np.array([3])
        g = np.concatenate([np.zeros(self.HEAD), gen.standard_normal(self.WIDTH)])
        ref_state, ref_params = reference_adam_step(AdamState(np.zeros(size), np.zeros(size), 50),
                                                    params.copy(), np.concatenate(
                                                        [g[:self.HEAD], np.zeros(12),
                                                         g[self.HEAD:], np.zeros(8)]), 1e-2)
        adam_step(state, params, [g], 1e-2, rows=rows, width=self.WIDTH,
                  schedule=LrSchedule(1e-2))
        assert np.array_equal(params, ref_params)
        assert np.all(np.isfinite(state.m)) and np.all(np.isfinite(state.s))

    def test_non_finite_row_gradient_names_its_flat_index(self):
        state = AdamState(np.zeros(27), np.zeros(27), 0, tau=np.zeros(6, dtype=np.int64))
        g = np.zeros(3 + 2 * 4)
        g[3 + 4 + 2] = np.nan  # second touched row (W row 5), column 2
        with pytest.raises(NonFiniteGradientError, match=f"flat index {3 + 5 * 4 + 2}"):
            adam_step(state, np.zeros(27), [g], 0.1, rows=np.array([1, 5]), width=4,
                      schedule=LrSchedule(0.1))
        assert state.t == 0 and np.all(state.tau == 0)

    def test_dense_step_marks_every_row_updated(self):
        state = AdamState(np.zeros(27), np.zeros(27), 4, tau=np.zeros(6, dtype=np.int64))
        adam_step(state, np.zeros(27), [np.ones(27)], 0.1)
        assert np.all(state.tau == 5)


def test_catch_up_tables_are_built_on_the_first_catch_up_only():
    # Only lazy branch runs read the tables, so importing the library builds
    # nothing; a lazy run builds them once, on its first catch-up.
    code = (
        "import branchvi\n"
        "from branchvi import optim\n"
        "assert optim._catch_up_tables.cache_info().currsize == 0\n"
        "from branchvi.families import init_branch\n"
        "from branchvi.models import SyntheticConfig, synthetic_forward_sample, "
        "synthetic_model\n"
        "from branchvi.rng import RngStream\n"
        "from branchvi.training import train\n"
        "data, _ = synthetic_forward_sample(SyntheticConfig(1, 4, (3,) * 4), RngStream(5))\n"
        "train(synthetic_model(1), init_branch('dense', 1, 1, 4), data, kind='branch',\n"
        "      schedule=optim.LrSchedule(1e-2), iters=12, rng=RngStream(6), n_mc=2,\n"
        "      batch_size=1, trace_every=0)\n"
        "info = optim._catch_up_tables.cache_info()\n"
        "assert info.misses == 1 and info.currsize == 1 and info.hits > 0, info\n"
        "rj, bias = optim._catch_up_tables()\n"
        "assert (rj.size, bias.size) == (397, 38106)\n"
        "assert not rj.flags.writeable and not bias.flags.writeable\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(branchvi.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestSlicedDenseStep:
    """The dense step runs _update slice by slice with one slice of scratch."""

    @pytest.mark.parametrize("n", [1, _SLICE - 1, _SLICE, _SLICE + 1, 3 * _SLICE + 7])
    def test_matches_one_update_pass_bitwise(self, n):
        gen = np.random.default_rng(n)
        state, params = adam_init(n), gen.standard_normal(n)
        ref, ref_params = adam_init(n), params.copy()
        u, v = np.empty(n), np.empty(n)
        for k in range(5):
            grads = gen.standard_normal(n) * 10.0 ** gen.uniform(-8, 4, size=n)
            grads[gen.random(n) < 0.1] = 0.0
            lr = 1e-2 if k < 3 else 1e-3
            adam_step(state, params, [grads], lr)
            ref.t += 1
            _update(*_factors(ref.t, lr), ref.m, ref.s, ref_params, grads, u, v)
            assert state.t == ref.t
            assert np.array_equal(params, ref_params), k
            assert np.array_equal(state.m, ref.m) and np.array_equal(state.s, ref.s), k
            assert all(w.size == min(n, _SLICE) for w in state.work)


class TestGradientArrays:
    """The gradient as the container's arrays: the dense step reads each array
    of at least _SLICE entries in place and gathers runs of smaller ones."""

    SIZES = [1, 5, _SLICE - 1, _SLICE, _SLICE + 1, 3 * _SLICE + 7]

    @pytest.mark.parametrize("order", [SIZES, SIZES[::-1], [5, _SLICE, 1, _SLICE - 1,
                                                            3 * _SLICE + 7, _SLICE + 1]])
    def test_dense_step_is_the_step_on_the_concatenation_bitwise(self, order):
        gen = np.random.default_rng(len(order) + order[0])
        n = sum(order)
        state, params = adam_init(n), gen.standard_normal(n)
        ref, ref_params = adam_init(n), params.copy()
        for k in range(3):
            flat = gen.standard_normal(n) * 10.0 ** gen.uniform(-8, 4, size=n)
            parts = np.split(flat, np.cumsum(order)[:-1])
            assert [a.size for a in parts] == order
            adam_step(state, params, [a.copy() for a in parts], 1e-2)
            adam_step(ref, ref_params, [flat], 1e-2)
            assert np.array_equal(params, ref_params), k
            assert np.array_equal(state.m, ref.m) and np.array_equal(state.s, ref.s), k
            assert all(w.size == _SLICE for w in state.work)

    def test_arrays_keep_their_shapes_and_are_not_written(self):
        gen = np.random.default_rng(52)
        parts = [gen.standard_normal((3, 4)), gen.standard_normal(5),
                 gen.standard_normal((_SLICE // 8, 9))]
        before = [a.copy() for a in parts]
        n = sum(a.size for a in parts)
        state, params = adam_init(n), np.zeros(n)
        ref, ref_params = adam_init(n), np.zeros(n)
        adam_step(state, params, parts, 1e-2)
        adam_step(ref, ref_params, [np.concatenate([a.ravel() for a in parts])], 1e-2)
        assert np.array_equal(params, ref_params)
        assert all(np.array_equal(a, b) for a, b in zip(parts, before))

    def test_a_gradient_of_the_wrong_size_is_rejected(self):
        state = adam_init(6)
        with pytest.raises(ValueError, match="5 entries, the parameters 6"):
            adam_step(state, np.zeros(6), [np.zeros(2), np.zeros(3)], 0.1)
        assert state.t == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", [0, 3, 5])
    def test_non_finite_entry_names_its_flat_index_and_writes_nothing(self, bad, which):
        gen = np.random.default_rng(53)
        parts = [gen.standard_normal(k) for k in self.SIZES]
        n = sum(self.SIZES)
        state = AdamState(gen.uniform(-1, 1, n), gen.uniform(0.5, 2.0, n), 7)
        params = gen.standard_normal(n)
        before = params.copy(), state.m.copy(), state.s.copy()
        j = parts[which].size // 2
        parts[which][j] = bad
        flat = sum(self.SIZES[:which]) + j
        with pytest.raises(NonFiniteGradientError, match=rf"flat index {flat}$"):
            adam_step(state, params, parts, 0.1)
        assert state.t == 7
        for got, want in zip((params, state.m, state.s), before):
            assert np.array_equal(got, want)


def _bad_positions(size):
    return [0, size // 2, size - 1]


class TestFiniteCheck:
    HEAD, N, WIDTH = 3, 6, 4
    ROWS = np.array([1, 4])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_dense_rejection_names_the_index_and_writes_nothing(self, bad, where):
        n = 2 * _SLICE + 5
        gen = np.random.default_rng(50)
        state = AdamState(gen.uniform(-1, 1, n), gen.uniform(0.5, 2.0, n), 7)
        params = gen.standard_normal(n)
        before = params.copy(), state.m.copy(), state.s.copy()
        grads = gen.standard_normal(n)
        j = _bad_positions(n)[where]
        grads[j] = bad
        with pytest.raises(NonFiniteGradientError, match=rf"flat index {j}$"):
            adam_step(state, params, [grads], 0.1)
        assert state.t == 7
        for got, want in zip((params, state.m, state.s), before):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_lazy_rejection_names_the_flat_index_and_writes_nothing(self, bad, where):
        size = self.HEAD + self.N * self.WIDTH
        gen = np.random.default_rng(51)
        state = AdamState(gen.uniform(-1, 1, size), gen.uniform(0.5, 2.0, size), 9,
                          tau=np.array([2, 9, 4, 0, 5, 8], dtype=np.int64))
        params = gen.standard_normal(size)
        before = params.copy(), state.m.copy(), state.s.copy(), state.tau.copy()
        grads = gen.standard_normal(self.HEAD + self.ROWS.size * self.WIDTH)
        j = _bad_positions(grads.size)[where]
        grads[j] = bad
        if j < self.HEAD:
            flat = j
        else:
            r, c = divmod(j - self.HEAD, self.WIDTH)
            flat = self.HEAD + self.ROWS[r] * self.WIDTH + c
        with pytest.raises(NonFiniteGradientError, match=rf"flat index {flat}$"):
            adam_step(state, params, [grads], 0.1, rows=self.ROWS, width=self.WIDTH,
                      schedule=LrSchedule(0.1))
        assert state.t == 9
        for got, want in zip((params, state.m, state.s, state.tau), before):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("lazy", [False, True])
    def test_finite_gradient_whose_squared_norm_overflows_takes_the_step(self, lazy):
        size = self.HEAD + self.N * self.WIDTH
        n = self.HEAD + self.ROWS.size * self.WIDTH if lazy else size
        grads = np.where(np.arange(n) % 2 == 0, 1e200, -1e200)
        state = AdamState(np.zeros(size), np.zeros(size), 0,
                          tau=np.zeros(self.N, dtype=np.int64))
        params = np.zeros(size)
        kw = dict(rows=self.ROWS, width=self.WIDTH, schedule=LrSchedule(0.1)) if lazy else {}
        with np.errstate(over="ignore"):  # g . g and g * g overflow
            assert not np.isfinite(np.dot(grads, grads))
            adam_step(state, params, [grads], 0.1, **kw)
        assert state.t == 1 and np.all(np.isfinite(params))
