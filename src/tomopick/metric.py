"""Distance-threshold matching and the weighted F-beta (beta=4) score.

Matching is greedy over candidate pairs sorted by ascending distance (ties by
prediction index, then ground-truth index); each endpoint matches at most once.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .coords import ParticleClassSpec, PickSet

DEFAULT_BETA = 4.0
_NEIGHBOURS = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)]


@dataclass(frozen=True)
class MatchResult:
    tp: int
    fp: int
    fn: int
    pairs: tuple[tuple[int, int, float], ...]  # (pred index, gt index, distance)


def match_class(
    preds: list[tuple[float, float, float]],
    gts: list[tuple[float, float, float]],
    tau: float,
) -> MatchResult:
    """Greedy matching (see above). The larger side is put in a grid of
    cells, and each point of the smaller side is measured only against the
    points in its cell's 3x3x3 block. Cells are a little wider than tau, and
    float floor division is exact, so a pair whose rounded distance is tau
    still lies in one cell or two adjacent ones."""
    if tau <= 0:
        raise ValueError("tau must be > 0")
    side = tau * (1 + 1e-9)
    swap = len(preds) > len(gts)
    cells = defaultdict(list)
    for i, point in enumerate(preds if swap else gts):
        cells[tuple(c // side for c in point)].append(i)
    candidates = []
    for j, point in enumerate(gts if swap else preds):
        cx, cy, cz = (c // side for c in point)
        for dx, dy, dz in _NEIGHBOURS:
            for i in cells.get((cx + dx, cy + dy, cz + dz), ()):
                pi, gi = (i, j) if swap else (j, i)
                d = math.dist(preds[pi], gts[gi])
                if d <= tau:
                    candidates.append((d, pi, gi))
    candidates.sort()
    pred_used = [False] * len(preds)
    gt_used = [False] * len(gts)
    pairs = []
    for d, pi, gi in candidates:
        if not pred_used[pi] and not gt_used[gi]:
            pred_used[pi] = True
            gt_used[gi] = True
            pairs.append((pi, gi, d))
    tp = len(pairs)
    return MatchResult(tp, len(preds) - tp, len(gts) - tp, tuple(pairs))


def fbeta(tp: int, fp: int, fn: int, beta: float = DEFAULT_BETA) -> float:
    """F-beta from counts. Conventions: no support at all scores 1; zero true
    positives with any error scores 0."""
    if min(tp, fp, fn) < 0:
        raise ValueError("counts must be >= 0")
    if tp == 0:
        return 1.0 if fp == 0 and fn == 0 else 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    b2 = beta * beta
    return (1.0 + b2) * precision * recall / (b2 * precision + recall)


def weighted_score(scores: list[float], weights: list[float]) -> float:
    if len(scores) != len(weights):
        raise ValueError("scores and weights must align")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be >= 0")
    total = sum(weights)
    if total == 0:
        raise ValueError("weights must not all be zero")
    return sum(w * s for w, s in zip(weights, scores)) / total


@dataclass(frozen=True)
class ClassScore:
    name: str
    match: MatchResult
    precision: float
    recall: float
    fbeta: float


@dataclass(frozen=True)
class Evaluation:
    per_class: tuple[ClassScore, ...]
    weighted: float


def evaluate(
    preds: PickSet,
    gts: PickSet,
    classes: list[ParticleClassSpec],
    beta: float = DEFAULT_BETA,
) -> Evaluation:
    per_class = []
    scores = []
    points = [defaultdict(list), defaultdict(list)]  # preds, gts: class id -> [(x, y, z)]
    for group, picks in zip(points, (preds, gts)):
        for r in picks.records:
            group[r.class_id].append((r.x, r.y, r.z))
    for class_id, cls in enumerate(classes):
        m = match_class(points[0][class_id], points[1][class_id], cls.match_radius_tau)
        precision = m.tp / (m.tp + m.fp) if m.tp + m.fp else 1.0
        recall = m.tp / (m.tp + m.fn) if m.tp + m.fn else 1.0
        f = fbeta(m.tp, m.fp, m.fn, beta)
        per_class.append(ClassScore(cls.name, m, precision, recall, f))
        scores.append(f)
    return Evaluation(
        tuple(per_class),
        weighted_score(scores, [c.metric_weight for c in classes]),
    )
