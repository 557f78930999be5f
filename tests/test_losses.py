"""Hand-computed loss values, gradient checks, and balance properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fd_grad
from tomopick.losses import loss_balanced_mse, loss_weighted_mse


def test_weighted_perfect_prediction():
    y = np.random.default_rng(0).random((4, 4, 4))
    loss, grad = loss_weighted_mse(y, y)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_weighted_hand_cases():
    n = (3, 4, 5)
    loss, _ = loss_weighted_mse(np.ones(n), np.zeros(n), alpha=0.1)
    assert loss == pytest.approx(0.1, abs=1e-12)
    loss, _ = loss_weighted_mse(np.zeros(n), np.ones(n), alpha=0.1)
    assert loss == pytest.approx(1.1, abs=1e-12)


def test_balanced_perfect_prediction():
    y = np.random.default_rng(1).random((4, 4, 4))
    loss, grad = loss_balanced_mse(y, y)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_balanced_hand_cases():
    # y = 0, p = c over N elements: L_neg = c^2 N / (N + eps)
    n, c = 100, 0.5
    loss, _ = loss_balanced_mse(np.full(n, c), np.zeros(n), epsilon=1e-6)
    assert loss == pytest.approx(0.2499999975, abs=1e-12)
    # y = 1, p = 0: L_pos ~ 1, L_neg = 0
    loss, _ = loss_balanced_mse(np.zeros(n), np.ones(n), epsilon=1e-6)
    assert loss == pytest.approx(1.0, rel=1e-7)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        loss_weighted_mse(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        loss_balanced_mse(np.zeros(3), np.zeros(4))


@pytest.mark.parametrize("loss_fn", [loss_weighted_mse, loss_balanced_mse])
def test_gradient_matches_finite_differences(loss_fn):
    rng = np.random.default_rng(123)
    for _ in range(20):
        p = rng.random((4, 4, 4))
        y = rng.random((4, 4, 4))
        _, grad = loss_fn(p, y)
        fd = fd_grad(lambda q: loss_fn(q, y)[0], p, h=1e-4)
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)
        assert rel.max() < 1e-5


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_weighted_is_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    p = rng.random(60)
    y = rng.random(60)
    perm = rng.permutation(60)
    l1, _ = loss_weighted_mse(p, y)
    l2, _ = loss_weighted_mse(p[perm], y[perm])
    assert l1 == pytest.approx(l2, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_losses_nonnegative_and_zero_iff_equal(seed):
    rng = np.random.default_rng(seed)
    p = rng.random(50)
    y = rng.random(50)
    for fn in (loss_weighted_mse, loss_balanced_mse):
        loss, _ = fn(p, y)
        assert loss >= 0.0
        if not np.array_equal(p, y):
            assert loss > 0.0


@pytest.mark.parametrize("k", [1, 4, 16, 64])
def test_balanced_negative_term_is_scale_free(k):
    # Scaling the number of pure-negative elements by k leaves L_neg ~ c^2.
    c = 0.3
    n = 50 * k
    loss, _ = loss_balanced_mse(np.full(n, c), np.zeros(n), epsilon=1e-6)
    assert loss == pytest.approx(c * c, abs=1e-6)


def test_weighted_grows_with_negative_count():
    # Contrast with the balanced loss: mean weighting keeps the weighted loss
    # constant here too, but mixing in positives dilutes it.
    y = np.concatenate([np.ones(10), np.zeros(990)])
    p = y + 0.5
    loss_small, _ = loss_weighted_mse(p[:20], y[:20])
    loss_large, _ = loss_weighted_mse(p, y)
    assert loss_large < loss_small  # positives diluted by the negative sea
