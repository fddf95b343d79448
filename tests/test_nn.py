from __future__ import annotations

import numpy as np
import pytest

import helpers
from helpers import naive_conv2d, naive_maxpool
from gradcheck import grad_check
from slcnn import nn

F32 = np.float32
F64 = np.float64


def _bank(w, b=None, dtype=F32) -> nn.Layer:
    w = np.asarray(w, dtype=dtype)
    if b is None:
        b = np.zeros(w.shape[0], dtype=dtype)
    return nn.Layer(w, np.asarray(b, dtype=dtype))


# --------------------------------------------------------------------------
# Convolution forward
# --------------------------------------------------------------------------

class TestConvForward:
    def test_hand_sum_identity(self):
        # Window sums of positive inputs: the ReLU passes them unchanged.
        x = np.array([1.0, 2.0, 3.0], F32).reshape(1, 3, 1)
        bank = _bank(np.array([1.0, 1.0]).reshape(1, 1, 2, 1))
        y, _ = nn.conv2d_forward(x[None], bank)
        assert y.ravel().tolist() == [3.0, 5.0]

    def test_hand_sum_relu_with_bias(self):
        x = np.array([1.0, 2.0, 3.0], F32).reshape(1, 3, 1)
        bank = _bank(np.array([1.0, 1.0]).reshape(1, 1, 2, 1), b=[-4.0])
        y, _ = nn.conv2d_forward(x[None], bank)
        assert y.ravel().tolist() == [0.0, 1.0]

    def test_matches_naive_loop_oracle_at_model_scale(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 46, 100)).astype(F32)
        w = (rng.normal(size=(128, 1, 2, 100)) * 0.1).astype(F32)
        b = (rng.normal(size=128) * 0.1).astype(F32)
        got, _ = nn.conv2d_forward(x[None], _bank(w, b))
        want = naive_conv2d(x, w, b, relu=True)[None]
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("s,t", [(1, 2), (2, 1), (1, 1), (2, 2)])
    def test_matches_naive_loop_small_shapes(self, s, t):
        rng = np.random.default_rng(s * 10 + t)
        x = rng.normal(size=(3, 5, 2)).astype(F32)
        w = rng.normal(size=(4, s, t, 2)).astype(F32)
        b = rng.normal(size=4).astype(F32)
        got, _ = nn.conv2d_forward(x[None], _bank(w, b))
        np.testing.assert_allclose(got[0], naive_conv2d(x, w, b, relu=True), rtol=1e-5, atol=1e-6)

    def test_linearity_alpha_two_is_bit_exact(self):
        # With zero biases the conv is linear and its ReLU positively
        # homogeneous, and doubling is exact in floating point.
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 8, 4)).astype(F32)
        bank = _bank(rng.normal(size=(6, 1, 2, 4)).astype(F32))
        y1, _ = nn.conv2d_forward(x, bank)
        y2, _ = nn.conv2d_forward(2.0 * x, bank)
        assert np.array_equal(2.0 * y1, y2)

    def test_shape_law_exhaustive(self):
        rng = np.random.default_rng(1)
        for m in range(1, 5):
            for n in range(1, 6):
                for s, t in ((1, 2), (2, 1), (1, 1), (2, 2)):
                    if m < s or n < t:
                        continue
                    x = rng.normal(size=(1, m, n, 3)).astype(F32)
                    bank = _bank(rng.normal(size=(2, s, t, 3)).astype(F32))
                    y, _ = nn.conv2d_forward(x, bank)
                    assert y.shape == (1, m - s + 1, n - t + 1, 2)

    def test_relu_nonnegative(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 3, 5, 2)).astype(F32)
        bank = _bank(rng.normal(size=(4, 1, 2, 2)).astype(F32))
        y, _ = nn.conv2d_forward(x, bank)
        assert (y >= 0).all()


# --------------------------------------------------------------------------
# Finite-difference sweeps (implementations shared with the acceptance suite)
# --------------------------------------------------------------------------

def test_conv_backward_finite_differences():
    result = helpers.fd_sweep_conv(100)
    assert result["worst64"] < 1e-6, f"float64 conv backward off by {result['worst64']}"
    assert result["worst32"] < 1e-3, f"float32 conv backward off by {result['worst32']}"


class TestConvBackwardTrivial:
    def test_ones_upstream_gives_window_sums(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 4, 2)).astype(F32)
        # A positive bias makes every output live, so the ReLU mask is all 1.
        bank = _bank(np.zeros((1, 1, 2, 2), F32), b=[1.0])
        y, cache = nn.conv2d_forward(x[None], bank)
        _, gw, gb = nn.conv2d_backward(bank, cache, np.ones_like(y))
        # grad_w[0, 0, b, ch] = sum_j x[0, j+b, ch]
        for b_off in range(2):
            for ch in range(2):
                assert gw[0, 0, b_off, ch] == pytest.approx(x[0, b_off : b_off + 3, ch].sum())
        assert gb[0] == y.size

    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 3, 5, 2)).astype(F32)
        bank = _bank(rng.normal(size=(2, 1, 2, 2)).astype(F32))
        y, cache = nn.conv2d_forward(x, bank)
        gx, gw, gb = nn.conv2d_backward(bank, cache, np.zeros_like(y))
        assert not gx.any() and not gw.any() and not gb.any()

    @pytest.mark.parametrize("s,t", [(1, 2), (2, 1)])
    def test_without_input_grad_same_param_grads(self, s, t):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 4, 5, 3)).astype(F32)
        bank = _bank(rng.normal(size=(4, s, t, 3)), rng.normal(size=4))
        y, cache = nn.conv2d_forward(x, bank)
        up = rng.normal(size=y.shape).astype(F32)
        _, gw, gb = nn.conv2d_backward(bank, cache, up)
        gx, gw_only, gb_only = nn.conv2d_backward(bank, cache, up, need_input_grad=False)
        assert gx is None
        assert np.array_equal(gw_only, gw)
        assert np.array_equal(gb_only, gb)


# --------------------------------------------------------------------------
# Max pooling
# --------------------------------------------------------------------------

class TestMaxPool:
    def test_horizontal_example(self):
        x = np.array([3.0, 1.0, 4.0, 1.0], F32).reshape(1, 1, 4, 1)
        y, _ = nn.maxpool_forward(x, "horizontal")
        assert y.ravel().tolist() == [3.0, 4.0]

    def test_odd_trailing_dropped(self):
        x = np.array([5.0, 2.0, 7.0], F32).reshape(1, 1, 3, 1)
        y, _ = nn.maxpool_forward(x, "horizontal")
        assert y.ravel().tolist() == [5.0]

    def test_vertical_example(self):
        x = np.array([1.0, 9.0], F32).reshape(1, 2, 1, 1)
        y, _ = nn.maxpool_forward(x, "vertical")
        assert y.ravel().tolist() == [9.0]

    def test_matches_bruteforce_on_random_tensors(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            m, n, c = rng.integers(2, 7), rng.integers(2, 9), rng.integers(1, 4)
            x = rng.normal(size=(m, n, c)).astype(F32)
            for axis in ("horizontal", "vertical"):
                if (n if axis == "horizontal" else m) < 2:
                    continue
                y, _ = nn.maxpool_forward(x[None], axis)
                assert np.array_equal(y[0], naive_maxpool(x, axis))

    def test_backward_routes_to_argmax(self):
        x = np.array([3.0, 1.0, 4.0, 1.0], F32).reshape(1, 1, 4, 1)
        _, cache = nn.maxpool_forward(x, "horizontal")
        grad = nn.maxpool_backward(cache, np.array([1.0, 1.0], F32).reshape(1, 1, 2, 1))
        assert grad.ravel().tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_tie_breaks_to_earlier_index(self):
        x = np.array([2.0, 2.0], F32).reshape(1, 1, 2, 1)
        _, cache = nn.maxpool_forward(x, "horizontal")
        grad = nn.maxpool_backward(cache, np.array([1.0], F32).reshape(1, 1, 1, 1))
        assert grad.ravel().tolist() == [1.0, 0.0]

    def test_dropped_tail_gets_zero_gradient(self):
        x = np.array([5.0, 2.0, 7.0], F32).reshape(1, 1, 3, 1)
        _, cache = nn.maxpool_forward(x, "horizontal")
        grad = nn.maxpool_backward(cache, np.array([1.0], F32).reshape(1, 1, 1, 1))
        assert grad.ravel().tolist() == [1.0, 0.0, 0.0]

    def test_shape_halving_law(self):
        rng = np.random.default_rng(7)
        for n in range(2, 10):
            x = rng.normal(size=(1, 3, n, 2)).astype(F32)
            y, _ = nn.maxpool_forward(x, "horizontal")
            assert y.shape == (1, 3, n // 2, 2)

    def test_backward_finite_differences_away_from_ties(self):
        result = helpers.fd_sweep_pool(100)
        assert result["checked"] >= 80
        assert result["worst64"] < 1e-6


# --------------------------------------------------------------------------
# Dense
# --------------------------------------------------------------------------

class TestDense:
    def test_identity_weights_relu(self):
        layer = nn.Layer(np.eye(2, dtype=F32), np.zeros(2, F32))
        y, _ = nn.dense_forward(np.array([[-1.0, 2.0]], F32), layer, "relu")
        assert y.tolist() == [[0.0, 2.0]]

    def test_hand_affine(self):
        layer = nn.Layer(np.array([[1.0, 1.0]], F32), np.array([0.5], F32))
        y, _ = nn.dense_forward(np.array([[1.0, 2.0]], F32), layer, "identity")
        assert y.tolist() == [[3.5]]

    def test_backward_finite_differences(self):
        result = helpers.fd_sweep_dense(100)
        assert result["worst64"] < 1e-6
        assert result["worst32"] < 1e-3


# --------------------------------------------------------------------------
# Softmax cross-entropy
# --------------------------------------------------------------------------

class TestSoftmaxCrossEntropy:
    def test_symmetric_two_class(self):
        losses, grad = nn.softmax_cross_entropy(np.array([[0.0, 0.0]]), np.array([0]))
        assert losses.mean() == pytest.approx(np.log(2), rel=1e-12)
        np.testing.assert_allclose(grad, [[-0.5, 0.5]], atol=1e-12)

    def test_stabilized_no_overflow(self):
        losses, grad = nn.softmax_cross_entropy(np.array([[100.0, 0.0]]), np.array([0]))
        assert losses.mean() == pytest.approx(0.0, abs=1e-12)
        assert np.isfinite(grad).all()

    def test_probability_vector_property(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            logits = rng.normal(size=rng.integers(2, 9)) * rng.uniform(0.1, 30)
            probs = nn.softmax(logits)
            assert (probs >= 0).all()
            assert abs(probs.sum() - 1.0) < 1e-6

    def test_gradient_matches_finite_differences(self):
        assert helpers.fd_sweep_softmax(100) < 1e-4

    @pytest.mark.parametrize("label,expected", [(0, [0, 0, 0]), (1, [1, -1, 0])])
    def test_no_gradient_entry_below_the_floor(self, label, expected):
        # A spread of 95 (between 87.4 and 103.9) makes exp(-95) = 5.5e-42 a
        # float32 subnormal; it is floored to 0 and the other entries stay.
        _, grad = nn.softmax_cross_entropy(np.array([[95, 0, 0]], F32), np.array([label]))
        assert not ((grad != 0) & (np.abs(grad) < 2.0**-100)).any()
        assert np.array_equal(grad, np.array([expected], F32))

    def test_batch_mean_semantics(self):
        logits = np.array([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0]])
        labels = np.array([1, 2])
        losses, grad = nn.softmax_cross_entropy(logits, labels)
        l0, g0 = nn.softmax_cross_entropy(logits[:1], labels[:1])
        l1, g1 = nn.softmax_cross_entropy(logits[1:], labels[1:])
        assert losses.mean() == pytest.approx((l0.mean() + l1.mean()) / 2)
        np.testing.assert_allclose(grad, np.concatenate([g0, g1]) / 2, rtol=1e-12)

    def test_per_sample_losses_independent_of_batch(self):
        # Rows of very different scale share a float32 batch; each row's
        # float64 loss must not depend on its neighbours.
        rng = np.random.default_rng(31)
        scale = np.array([1e-3, 1.0, 30.0, 1.0, 80.0, 5.0])[:, None]
        logits = (rng.normal(size=(6, 5)) * scale).astype(F32)
        labels = rng.integers(0, 5, size=6)
        losses, grad = nn.softmax_cross_entropy(logits, labels)
        assert losses.dtype == F64 and grad.dtype == F32
        for i in range(len(logits)):
            alone, _ = nn.softmax_cross_entropy(logits[i : i + 1], labels[i : i + 1])
            assert alone[0] == losses[i]

    def test_per_sample_losses_match_float64_oracle(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            batch, c = int(rng.integers(1, 9)), int(rng.integers(2, 9))
            logits = (rng.normal(size=(batch, c)) * rng.uniform(0.1, 40)).astype(F32)
            labels = rng.integers(0, c, size=batch)
            losses, _ = nn.softmax_cross_entropy(logits, labels)
            np.testing.assert_allclose(losses, helpers.cross_entropy_oracle(logits, labels),
                                       rtol=1e-12, atol=1e-12)


# --------------------------------------------------------------------------
# Dropout
# --------------------------------------------------------------------------

class TestDropout:
    def test_eval_mode_identity(self):
        x = np.arange(12, dtype=F32).reshape(3, 4)
        y, mask = nn.dropout(x, 0.5, None)
        assert np.array_equal(y, x)
        assert np.array_equal(mask, np.ones_like(x))

    def test_rate_zero(self):
        x = np.ones((4, 4), F32)
        y, mask = nn.dropout(x, 0.0, np.random.default_rng(0))
        assert np.array_equal(y, x)
        assert np.array_equal(mask, np.ones_like(x))

    def test_statistical_keep_rate_and_scaling(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0.5, 1.5, size=1_000_000).astype(F32)
        y, mask = nn.dropout(x, 0.5, np.random.default_rng(12))
        keep_fraction = float((mask > 0).mean())
        assert abs(keep_fraction - 0.5) < 0.002
        assert abs(float(y.mean()) - float(x.mean())) / float(x.mean()) < 0.01

    def test_mask_is_exact_multiplier(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(50, 50)).astype(F32)
        y, mask = nn.dropout(x, 0.3, np.random.default_rng(14))
        assert np.array_equal(y, x * mask)
        assert set(np.unique(mask)).issubset({F32(0.0), F32(1.0 / 0.7)})


# --------------------------------------------------------------------------
# Adam
# --------------------------------------------------------------------------

class TestAdam:
    def test_zero_gradient_no_movement(self):
        p = np.array([1.0, -2.0], F64)
        state = nn.AdamState.for_params([p])
        nn.adam_step([p], [np.zeros_like(p)], state)
        assert p.tolist() == [1.0, -2.0]

    def test_single_step_hand_value(self):
        # Fresh state, theta=0, g=1: mhat = vhat = 1, so the step is exactly
        # -lr / (1 + eps) = -0.000999999990... (evaluated independently here).
        p = np.zeros(1, F64)
        state = nn.AdamState.for_params([p])
        nn.adam_step([p], [np.ones(1, F64)], state)
        expected = -(0.001 * 1.0 / (1.0 + 1e-8))
        assert p[0] == pytest.approx(expected, abs=1e-18)
        assert p[0] == pytest.approx(-0.000999999990, abs=1e-12)

    def test_two_runs_bit_identical(self):
        def run():
            rng = np.random.default_rng(15)
            p = rng.normal(size=(4, 3)).astype(F32)
            state = nn.AdamState.for_params([p])
            for step in range(25):
                g = np.random.default_rng(100 + step).normal(size=p.shape).astype(F32)
                nn.adam_step([p], [g], state)
            return p

        assert np.array_equal(run(), run())

    def test_moment_invariants(self):
        rng = np.random.default_rng(16)
        p = rng.normal(size=10).astype(F64)
        state = nn.AdamState.for_params([p])
        for step in range(10):
            nn.adam_step([p], [rng.normal(size=10)], state)
            assert (state.v[0] >= 0).all()
            assert state.t == step + 1


# --------------------------------------------------------------------------
# grad_check harness self-tests
# --------------------------------------------------------------------------

class TestGradCheckHarness:
    def test_linear_map_is_exact(self):
        rng = np.random.default_rng(17)
        coef = rng.normal(size=6)
        params = {"w": rng.normal(size=6)}

        def loss():
            return float(params["w"] @ coef)

        res = grad_check(loss, params, {"w": coef.copy()}, epsilon=1e-5)
        assert res.max_rel_error < 1e-8

    def test_sign_flip_reports_error_near_two(self):
        rng = np.random.default_rng(18)
        coef = rng.normal(size=6)
        params = {"w": rng.normal(size=6)}

        def loss():
            return float(params["w"] @ coef)

        res = grad_check(loss, params, {"w": -coef}, epsilon=1e-5)
        assert 1.9 < res.max_rel_error < 2.1
        assert res.block == "w"

    def test_result_json_roundtrip(self):
        params = {"w": np.zeros(2)}
        res = grad_check(lambda: 0.0, params, {"w": np.zeros(2)}, epsilon=1e-5)
        import json

        payload = json.loads(res.to_json())
        assert payload["max_rel_error"] == 0.0
        assert payload["coords_checked"] == 2
