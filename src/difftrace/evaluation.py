"""Support-recovery metrics, ROC/PR curves, and the irrepresentability
diagnostic, which builds only the on-support block of its operator."""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .covariance import CovariancePair
from .linalg import as_symmetric, check_square
from .model_selection import RegPath
from .solver import _hessian

CURVE_CSV_COLUMNS = ("lambda", "tp", "fp", "precision")

MAX_SUPPORT = 1600  # G[S, S] is inverted densely; 40^2 admits any 40 x 40 support


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
    points = []
    for est in path.estimates:
        report = support_metrics(est.delta, truth)
        points.append(
            CurvePoint(float(est.lam), report.tp_rate, 1.0 - report.tn_rate, report.td_rate)
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
    # last index of each distinct score = detection set for threshold just below it
    distinct = np.nonzero(np.diff(sorted_scores))[0]
    cut_points = np.append(distinct, scores.size - 1).tolist()
    points = []
    for idx in cut_points:
        detected, h = idx + 1, int(hits[idx])
        tp = h / nnz_true if nnz_true else 1.0
        fp = (detected - h) / true_zeros if true_zeros else 0.0
        points.append(CurvePoint(float(sorted_scores[idx]), tp, fp, h / detected))
    return points, _roc_auc(points)


def write_curve_csv(points: Sequence[CurvePoint], fileobj) -> None:
    """Export a sweep, one row of a point's fields per tuning value. Points
    hold Python floats, which csv writes as their ``repr``."""
    writer = csv.writer(fileobj)
    writer.writerow(CURVE_CSV_COLUMNS)
    writer.writerows(map(astuple, points))


def irrepresentability_alpha(
    sigma_x, sigma_y, support: Iterable[Tuple[int, int]]
) -> Tuple[float, float]:
    """Slack of the support-recovery condition, and the on-support
    inverse's max absolute row sum.

    The operator is the loss's Hessian G = (sigma_x (x) sigma_y
    + sigma_y (x) sigma_x) / 2 on entry pairs (i, j), each covariance
    symmetrized as ``pair_from_covariances`` does; the function returns

        alpha = 1 - max over off-support rows e of || G[e, S] G[S, S]^-1 ||_1,
        kappa = max absolute row sum of G[S, S]^-1.

    Only G[S, S] is built, entry by entry; column c of G[., S] G[S, S]^-1
    is the Hessian product of column c of the inverse placed on S. That
    takes O(|S|^3 + |S| p^3) time and O(p^2 + |S|^2) memory, and |S| is
    bounded by ``MAX_SUPPORT``. alpha > 0 is the recoverability condition;
    support positions are 0-based (i, j) pairs.
    """
    sigma_x = as_symmetric(sigma_x, "sigma_x")
    sigma_y = as_symmetric(sigma_y, "sigma_y")
    if sigma_x.shape != sigma_y.shape:
        raise ValueError("covariance shapes differ")
    p = sigma_x.shape[0]
    entries = sorted({(i, j) for i, j in support})
    if not entries:
        raise ValueError("support must be nonempty")
    for i, j in entries:
        if not (float(i).is_integer() and float(j).is_integer()):
            raise ValueError(f"support entry ({i}, {j}) is not a pair of integer indices")
        if not (0 <= i < p and 0 <= j < p):
            raise ValueError(f"support entry ({i}, {j}) lies outside a {p} x {p} matrix")
    if len(entries) > MAX_SUPPORT:
        raise ValueError(f"support has {len(entries)} entries, above the diagnostic limit of "
                         f"{MAX_SUPPORT}: the check inverts a dense |S| x |S| block")
    rows, cols = np.array(entries, dtype=int).T
    ik, jl = np.ix_(rows, rows), np.ix_(cols, cols)
    gamma_ss = (sigma_x[ik] * sigma_y[jl] + sigma_y[ik] * sigma_x[jl]) / 2.0
    try:
        inv_ss = np.linalg.inv(gamma_ss)
    except np.linalg.LinAlgError as err:
        raise ValueError("on-support operator block is singular") from err
    kappa = float(np.abs(inv_ss).sum(axis=1).max())
    row_sums = np.zeros((p, p))
    column = np.zeros((p, p))
    for c in range(len(entries)):
        column[rows, cols] = inv_ss[:, c]
        row_sums += np.abs(_hessian(column, sigma_x, sigma_y))
    row_sums[rows, cols] = 0.0
    return 1.0 - float(row_sums.max()), kappa
