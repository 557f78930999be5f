"""Greedy matching, F-beta conventions, and the weighted score."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomopick.coords import ParticleClassSpec, PickRecord, PickSet
from tomopick.metric import evaluate, fbeta, match_class, weighted_score

from helpers import brute_match_class, optimal_match_tp


def test_fbeta_half_precision_full_recall():
    # tp=8, fp=8, fn=0: precision 0.5, recall 1 -> 17*0.5/9
    assert fbeta(8, 8, 0) == pytest.approx(8.5 / 9, abs=1e-12)


def test_fbeta_full_precision_half_recall():
    # tp=8, fp=0, fn=8: precision 1, recall 0.5 -> 8.5/16.5
    assert fbeta(8, 0, 8) == pytest.approx(8.5 / 16.5, abs=1e-12)


def test_fbeta_conventions():
    assert fbeta(0, 0, 0) == 1.0
    assert fbeta(0, 3, 0) == 0.0
    assert fbeta(0, 0, 3) == 0.0
    assert fbeta(5, 0, 0) == 1.0


def test_fbeta_negative_counts_rejected():
    with pytest.raises(ValueError):
        fbeta(-1, 0, 0)


def test_fbeta_recall_dominates_at_beta4():
    # beta=4 weighs recall 16x precision: losing recall hurts far more
    assert fbeta(8, 0, 8) < fbeta(8, 8, 0)


@given(tp=st.integers(1, 50), fp=st.integers(0, 50), fn=st.integers(0, 50))
def test_fbeta_scale_invariant(tp, fp, fn):
    assert fbeta(tp, fp, fn) == pytest.approx(fbeta(4 * tp, 4 * fp, 4 * fn), abs=1e-12)


@given(tp=st.integers(1, 50), fp=st.integers(0, 50), fn=st.integers(0, 50))
def test_fbeta_monotone(tp, fp, fn):
    f = fbeta(tp, fp, fn)
    assert 0.0 < f <= 1.0
    assert fbeta(tp, fp + 1, fn) <= f
    assert fbeta(tp, fp, fn + 1) <= f
    assert fbeta(tp + 1, fp, fn) >= f


def test_match_simple_pairing():
    preds = [(0.0, 0.0, 0.0), (100.0, 0.0, 0.0)]
    gts = [(1.0, 0.0, 0.0), (98.0, 0.0, 0.0)]
    m = match_class(preds, gts, tau=10.0)
    assert (m.tp, m.fp, m.fn) == (2, 0, 0)
    assert {(pi, gi) for pi, gi, _ in m.pairs} == {(0, 0), (1, 1)}


def test_match_beyond_tau_rejected():
    m = match_class([(0.0, 0.0, 0.0)], [(5.0, 0.0, 0.0)], tau=4.9)
    assert (m.tp, m.fp, m.fn) == (0, 1, 1)


def test_match_each_endpoint_once():
    # two preds near one gt: only the closer one matches
    preds = [(1.0, 0.0, 0.0), (2.0, 0.0, 0.0)]
    gts = [(0.0, 0.0, 0.0)]
    m = match_class(preds, gts, tau=10.0)
    assert (m.tp, m.fp, m.fn) == (1, 1, 0)
    assert m.pairs[0][:2] == (0, 0)


def test_match_distance_ties_break_by_pred_then_gt_index():
    preds = [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)]
    gts = [(0.0, 0.0, 0.0)]
    m = match_class(preds, gts, tau=2.0)
    assert m.pairs[0][:2] == (0, 0)


def test_match_empty_inputs():
    m = match_class([], [], tau=1.0)
    assert (m.tp, m.fp, m.fn) == (0, 0, 0)
    m = match_class([(0.0, 0.0, 0.0)], [], tau=1.0)
    assert (m.tp, m.fp, m.fn) == (0, 1, 0)
    m = match_class([], [(0.0, 0.0, 0.0)], tau=1.0)
    assert (m.tp, m.fp, m.fn) == (0, 0, 1)


def test_match_bad_tau():
    with pytest.raises(ValueError):
        match_class([], [], tau=0.0)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    np_=st.integers(0, 8),
    ng=st.integers(0, 8),
)
def test_greedy_matches_optimal_when_candidates_unique(seed, np_, ng):
    # greedy equals the optimal matcher whenever each prediction has at most
    # one ground truth within tau; guarantee that with gt separation > 2*tau
    import numpy as np

    rng = np.random.default_rng(seed)
    tau = float(rng.uniform(0.5, 2.0))
    cells = rng.choice(6 * 6 * 6, size=ng, replace=False)
    step = 2.0 * tau + 0.5
    gts = [
        tuple(float(c * step + rng.uniform(-0.2, 0.2)) for c in np.unravel_index(cell, (6, 6, 6)))
        for cell in cells
    ]
    preds = []
    for _ in range(np_):
        if gts and rng.random() < 0.7:
            base = gts[rng.integers(len(gts))]
            preds.append(tuple(float(b + rng.uniform(-1.5 * tau, 1.5 * tau)) for b in base))
        else:
            preds.append(tuple(map(float, rng.uniform(0, 6 * step, 3))))
    m = match_class(preds, gts, tau)
    assert m.tp == optimal_match_tp(preds, gts, tau)


def _points(draw, n, tau, scale):
    """n points of coordinates in [-scale, scale] as multiples of tau / 4,
    some repeated and some moved exactly tau along one axis, so pairs at
    distance tau, ties and duplicates are common."""
    coord = st.integers(-round(scale * 4 / tau), round(scale * 4 / tau)).map(lambda k: k * tau / 4)
    points = draw(st.lists(st.tuples(coord, coord, coord), max_size=n))
    for i in range(len(points)):
        kind = draw(st.sampled_from(("keep", "repeat", "axis")))
        if kind != "keep" and i:
            base = list(points[draw(st.integers(0, i - 1))])
            if kind == "axis":
                axis = draw(st.integers(0, 2))
                base[axis] += draw(st.sampled_from((-tau, tau)))
            points[i] = tuple(base)
    return points


@settings(max_examples=200, deadline=None)
@given(data=st.data(), tau=st.floats(1e-3, 1e4), scale=st.sampled_from((1.0, 3.0, 1e3)))
def test_grid_matching_equals_the_pairwise_loop(data, tau, scale):
    """Duplicates, pairs exactly tau apart along an axis (which float rounding
    puts on either side of tau), negative coordinates and tau from 1e-3 to 1e4:
    the same MatchResult, distances and order included, as the loop over all
    pairs."""
    scale *= tau
    preds = _points(data.draw, 12, tau, scale)
    gts = _points(data.draw, 12, tau, scale)
    if gts and data.draw(st.booleans()):  # predictions near the truths
        preds += [tuple(c + data.draw(st.sampled_from((-tau, 0.0, tau / 2, tau))) for c in g) for g in gts]
    assert match_class(preds, gts, tau) == brute_match_class(preds, gts, tau)


def test_weighted_score_example():
    assert weighted_score([1.0, 0.5], [3.0, 1.0]) == pytest.approx(0.875, abs=1e-12)


def test_weighted_score_validation():
    with pytest.raises(ValueError):
        weighted_score([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        weighted_score([1.0], [-1.0])
    with pytest.raises(ValueError):
        weighted_score([1.0, 1.0], [0.0, 0.0])


def test_weighted_score_zero_weight_class_ignored():
    assert weighted_score([0.0, 1.0], [0.0, 2.0]) == 1.0


def _spec(name, tau=50.0, weight=1.0):
    return ParticleClassSpec(name, radius=30.0, sigma_vox=2.0,
                             match_radius_tau=tau, metric_weight=weight)


def test_evaluate_perfect_and_missing_class():
    classes = [_spec("a"), _spec("b", weight=2.0)]
    gts = PickSet((
        PickRecord(0, 10.0, 10.0, 10.0),
        PickRecord(1, 50.0, 50.0, 50.0),
        PickRecord(1, 90.0, 90.0, 90.0),
    ))
    preds = PickSet((
        PickRecord(0, 12.0, 10.0, 10.0),
        PickRecord(1, 50.0, 52.0, 50.0),
    ))
    ev = evaluate(preds, gts, classes)
    assert ev.per_class[0].fbeta == 1.0
    assert ev.per_class[1].fbeta == pytest.approx(fbeta(1, 0, 1), abs=1e-12)
    want = weighted_score([1.0, fbeta(1, 0, 1)], [1.0, 2.0])
    assert ev.weighted == pytest.approx(want, abs=1e-12)


def test_evaluate_no_picks_anywhere_scores_one():
    classes = [_spec("a")]
    ev = evaluate(PickSet(()), PickSet(()), classes)
    assert ev.weighted == 1.0
