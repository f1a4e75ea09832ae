"""Support-recovery metrics, ROC/PR curves, and the small-p
irrepresentability diagnostic."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .covariance import CovariancePair
from .linalg import check_square
from .model_selection import RegPath

CURVE_CSV_COLUMNS = ("lambda", "tp", "fp", "precision")

# The p^2 x p^2 edge-covariance operator is built explicitly, so the
# diagnostic is restricted to small dimensions.
MAX_DIAGNOSTIC_P = 40


def check_diagnostic_p(p: int) -> None:
    """Refuse a dimension above the irrepresentability diagnostic's limit."""
    if p > MAX_DIAGNOSTIC_P:
        raise ValueError(
            f"p={p} exceeds the diagnostic limit of {MAX_DIAGNOSTIC_P}: the check "
            f"builds an explicit p^2 x p^2 operator, an O(p^4) cost"
        )


@dataclass(frozen=True)
class MetricsReport:
    """Entrywise support-recovery rates of an estimate against the truth."""

    tp_rate: float
    tn_rate: float
    td_rate: float
    sign_consistent: bool
    nnz_est: int
    nnz_true: int


@dataclass(frozen=True)
class CurvePoint:
    """One tuning value on an ROC / precision-recall sweep."""

    lam: float
    tp_rate: float
    fp_rate: float
    precision: float


def support_metrics(est, truth) -> MetricsReport:
    """Rates over all p^2 entries.

    TP is the fraction of true nonzeros detected, TN the fraction of true
    zeros left at zero, and TD the fraction of detections that are true
    (defined as 1 when nothing is detected). ``sign_consistent`` says the
    entrywise sign patterns agree everywhere. Both must be square and finite.
    """
    est = check_square(est, "estimate")
    truth = check_square(truth, "truth")
    if est.shape != truth.shape:
        raise ValueError(f"dimension mismatch: estimate {est.shape}, truth {truth.shape}")
    detected = est != 0
    actual = truth != 0
    nnz_est = int(detected.sum())
    nnz_true = int(actual.sum())
    hits = int((detected & actual).sum())
    true_zeros = actual.size - nnz_true
    tp = hits / nnz_true if nnz_true else 1.0
    tn = int((~detected & ~actual).sum()) / true_zeros if true_zeros else 1.0
    td = hits / nnz_est if nnz_est else 1.0
    signs_match = bool(np.array_equal(np.sign(est), np.sign(truth)))
    return MetricsReport(tp, tn, td, signs_match, nnz_est, nnz_true)


def _roc_auc(points: Sequence[CurvePoint]) -> float:
    """Trapezoid area under the (fp, tp) points with (0,0) and (1,1) appended."""
    fps = np.array([0.0] + [pt.fp_rate for pt in points] + [1.0])
    tps = np.array([0.0] + [pt.tp_rate for pt in points] + [1.0])
    order = np.lexsort((tps, fps))
    return float(np.trapezoid(tps[order], fps[order]))


def curve_from_path(path: RegPath, truth) -> Tuple[List[CurvePoint], float]:
    """ROC / precision points along a solved path, plus the ROC area."""
    if len(path) == 0:
        raise ValueError("empty path")
    points = []
    for lam, est in zip(path.lambdas, path.estimates):
        report = support_metrics(est.delta, truth)
        points.append(
            CurvePoint(float(lam), report.tp_rate, 1.0 - report.tn_rate, report.td_rate)
        )
    return points, _roc_auc(points)


def naive_baseline(pair: CovariancePair, ridge: float = 1e-3) -> np.ndarray:
    """Difference of ridge-regularized covariance inverses.

    The regularization keeps the inversions defined when n < p makes the
    sample covariances singular.
    """
    eye = np.eye(pair.p)
    inv_y = np.linalg.inv(pair.sigma_y + ridge * eye)
    inv_x = np.linalg.inv(pair.sigma_x + ridge * eye)
    diff = inv_y - inv_x
    return (diff + diff.T) / 2.0


def threshold_curve(delta, truth) -> Tuple[List[CurvePoint], float]:
    """ROC / precision sweep of a dense score matrix under hard thresholding.

    Every distinct absolute entry value is used as a threshold, which is the
    finest possible grid; the ``lam`` field of each point carries the
    threshold.
    """
    delta = np.asarray(delta, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if delta.shape != truth.shape:
        raise ValueError(f"dimension mismatch: scores {delta.shape}, truth {truth.shape}")
    scores = np.abs(delta).ravel()
    actual = (truth != 0).ravel()
    nnz_true = int(actual.sum())
    true_zeros = actual.size - nnz_true
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    hits = np.cumsum(actual[order])
    detections = np.arange(1, scores.size + 1)
    # last index of each distinct score = detection set for threshold just below it
    distinct = np.nonzero(np.diff(sorted_scores))[0]
    cut_points = np.append(distinct, scores.size - 1)
    points = []
    for idx in cut_points:
        k = detections[idx]
        h = int(hits[idx])
        tp = h / nnz_true if nnz_true else 1.0
        fp = (k - h) / true_zeros if true_zeros else 0.0
        points.append(CurvePoint(float(sorted_scores[idx]), tp, fp, h / k))
    return points, _roc_auc(points)


def write_curve_csv(points: Sequence[CurvePoint], fileobj) -> None:
    """Export a sweep, one row per tuning value."""
    writer = csv.writer(fileobj)
    writer.writerow(CURVE_CSV_COLUMNS)
    for pt in points:
        writer.writerow(
            [repr(pt.lam), repr(pt.tp_rate), repr(pt.fp_rate), repr(pt.precision)]
        )


def irrepresentability_alpha(
    sigma_x, sigma_y, support: Iterable[Tuple[int, int]]
) -> Tuple[float, float]:
    """Slack of the support-recovery condition, and the on-support
    inverse's max absolute row sum.

    Builds the p^2 x p^2 operator (sigma_x (x) sigma_y
    + sigma_y (x) sigma_x) / 2, indexes rows and columns by entry pairs
    (j, k) <-> j * p + k, and returns

        alpha = 1 - max over off-support rows e of || G[e, S] G[S, S]^-1 ||_1,
        kappa = max absolute row sum of G[S, S]^-1.

    alpha > 0 is the recoverability condition; support positions are
    0-based (i, j) pairs.
    """
    sigma_x = np.asarray(sigma_x, dtype=float)
    sigma_y = np.asarray(sigma_y, dtype=float)
    if sigma_x.shape != sigma_y.shape:
        raise ValueError("covariance shapes differ")
    p = sigma_x.shape[0]
    check_diagnostic_p(p)
    support_idx = sorted({int(i) * p + int(j) for i, j in support})
    if not support_idx:
        raise ValueError("support must be nonempty")
    if support_idx[0] < 0 or support_idx[-1] >= p * p:
        raise ValueError("support indices out of range")
    gamma = (np.kron(sigma_x, sigma_y) + np.kron(sigma_y, sigma_x)) / 2.0
    s = np.asarray(support_idx)
    mask = np.zeros(p * p, dtype=bool)
    mask[s] = True
    comp = np.nonzero(~mask)[0]
    gamma_ss = gamma[np.ix_(s, s)]
    try:
        inv_ss = np.linalg.inv(gamma_ss)
    except np.linalg.LinAlgError as err:
        raise ValueError("on-support operator block is singular") from err
    kappa = float(np.abs(inv_ss).sum(axis=1).max())
    if comp.size:
        projection = gamma[np.ix_(comp, s)] @ inv_ss
        alpha = 1.0 - float(np.abs(projection).sum(axis=1).max())
    else:
        alpha = 1.0
    return alpha, kappa
