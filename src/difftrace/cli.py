"""Command-line front end: estimate from data files over a BIC-tuned
penalty path (a fixed penalty is a one-point path), run simulation
benchmarks, score estimates, and emit plot-ready CSVs.

Exit codes: 0 on success with all solves converged, 1 on a failed or
unconverged solve (``SolverError``), 2 on bad input (any ``ValueError``, a
penalty certified to have no minimizer included).
"""

from __future__ import annotations

import argparse
import codecs
import csv
import gc
import io
import itertools
import json
import os
import pickle
import signal
import sys
import time
from pathlib import Path
from typing import BinaryIO, List, Optional, Sequence, Tuple

import numpy as np

from .covariance import CovariancePair, build_pair
from .evaluation import (
    MAX_SUPPORT,
    curve_from_path,
    irrepresentability_alpha,
    support_metrics,
    write_curve_csv,
)
from .linalg import SolverError, as_symmetric, pd_cholesky
from .model_selection import (
    BIC_NORMS,
    GRID_COUNT,
    GRID_RATIO,
    bic_score,  # noqa: F401  unused here, but perfbench/traced.py rebinds it
    check_grid,
    lambda_grid,
    select_by_bic,
    solve_path,
    write_path_csv,
)
from .simulation import SCENARIOS, GroundTruth, SimulationSpec, generate, sample_gaussian
from .solver import SolverConfig
from .solver import admm_solve  # noqa: F401  unused here, but perfbench/traced.py rebinds it


# BLAS thread-count variables; the first set to a positive integer is
# taken as the thread count.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The BIC norms that simulate scores, each with its column-name suffix.
_NORM_TAGS = (("frobenius", "f"), ("max", "inf"))

# Columns of simulate's replicates.csv, one row per replicate.
REPLICATE_COLUMNS = (
    "replicate",
    "lambda_f", "tp_f", "tn_f", "td_f", "nnz_f",
    "lambda_inf", "tp_inf", "tn_inf", "td_inf", "nnz_inf",
    "auc",
)


class InputError(ValueError):
    """Bad user input: malformed file, inconsistent shapes, invalid flags."""


def _parse_numeric_line(line: str):
    """(delimiter, values) of a numeric line, or None.

    The delimiter is the first of comma, tab and whitespace (``None``) that
    splits the line into floats; comma and tab must give at least two.
    """
    for delim in (",", "\t", None):
        parts = [item.strip() for item in line.split(delim) if item.strip() != ""]
        if len(parts) > 1 or delim is None:
            try:
                return delim, [float(item) for item in parts]
            except ValueError:
                pass
    return None


def _trimmed_lines(lines, delim):
    # Blank lines and trailing delimiters are ignored by the line-by-line
    # reader but read as empty fields by np.loadtxt. A line of delimiters
    # alone is kept whole, so that it is still refused.
    for line in lines:
        if not line.strip():
            continue
        trimmed = line.rstrip().rstrip(delim)
        yield trimmed if trimmed else line


def _load_numeric(fh, allow_header: bool) -> np.ndarray:
    """Parse a well-formed file in one ``np.loadtxt`` call.

    Skips blank lines (and, when allowed, non-numeric lines) up to the first
    numeric line, takes the delimiter from it, and parses it together with
    the rest of the handle, less blank lines and trailing delimiters. Raises
    ValueError on anything this one call does not cover, a width mismatch
    included.
    """
    for line in fh:
        if not line.strip():
            continue
        parsed = _parse_numeric_line(line)
        if parsed is None:
            if allow_header:
                continue
            raise ValueError("non-numeric line")
        return np.loadtxt(
            _trimmed_lines(itertools.chain([line], fh), parsed[0]),
            dtype=float,
            delimiter=parsed[0],
            comments=None,
            ndmin=2,
        )
    raise ValueError("no numeric line")


def _read_lines(path: Path) -> List[Tuple[int, str]]:
    """Numbered non-blank lines of a UTF-8 file, less one leading byte-order
    mark, split at LF, CRLF and CR as a text-mode read splits them;
    InputError names the file and its first bad line."""
    try:
        data = path.read_bytes()
        lines = io.StringIO(data.decode("utf-8-sig"), newline=None)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    except UnicodeDecodeError as err:
        # The error's offset does not count the mark. The sentinel counts a
        # bad byte at the start of a line.
        text = data.removeprefix(codecs.BOM_UTF8)[: err.start].decode("utf-8")
        lineno = len(io.StringIO(text + "x", newline=None).readlines())
        raise InputError(f"{path}: line {lineno} is not UTF-8 text") from err
    return [(lineno, line) for lineno, line in enumerate(lines, start=1) if line.strip()]


def _read_rows(path: Path, allow_header: bool) -> np.ndarray:
    # Line-by-line parse: accepts ragged spacing, mixed delimiters, empty
    # fields and "1_0" literals, and names the first bad line.
    rows: List[List[float]] = []
    width: Optional[int] = None
    for lineno, raw in _read_lines(path):
        parsed = _parse_numeric_line(raw)
        if parsed is None:
            if allow_header and not rows:
                continue
            raise InputError(f"{path}: line {lineno} is not numeric")
        values = parsed[1]
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise InputError(
                f"{path}: line {lineno} has {len(values)} fields, expected {width}"
            )
        rows.append(values)
    if not rows:
        raise InputError(f"{path}: no numeric rows found")
    return np.asarray(rows, dtype=float)


def read_matrix_csv(path, allow_header: bool = False) -> np.ndarray:
    """Parse a numeric CSV/TSV file into a 2-d array.

    Matrices are headerless; observation files may carry a header row, which
    is detected by a non-numeric first line when ``allow_header`` is set.
    Raises InputError naming the offending line on ragged or non-numeric
    input.

    A well-formed file streams through numpy's parser; any file it rejects
    is re-read line by line, which gives the same array for every file it
    accepts and the error message for every file it rejects.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return _load_numeric(fh, allow_header)
    except (OSError, ValueError):
        pass
    return _read_rows(path, allow_header)


def read_support_csv(path, p: int) -> set:
    """Parse a support list of 1-based "i,j[,value]" rows into 0-based pairs.
    The first non-blank line may be a header."""
    path = Path(path)
    support = set()
    lines = _read_lines(path)
    for lineno, raw in lines:
        parts = [item.strip() for item in raw.split(",")]
        try:
            i, j = float(parts[0]), float(parts[1])
        except (ValueError, IndexError):
            if lineno == lines[0][0]:
                continue
            raise InputError(f"{path}: line {lineno} is not an 'i,j[,value]' row")
        if not (i.is_integer() and j.is_integer()):
            raise InputError(f"{path}: line {lineno} has a non-integer index")
        i, j = int(i), int(j)
        if not (1 <= i <= p and 1 <= j <= p):
            raise InputError(f"{path}: line {lineno} index out of range for p={p}")
        support.add((i - 1, j - 1))
    if not support:
        raise InputError(f"{path}: no support entries found")
    return support


def write_matrix_csv(matrix: np.ndarray, path) -> None:
    np.savetxt(path, matrix, delimiter=",")


def _write_table(path, header: Sequence[str], rows) -> None:
    """Write a CSV table. Rows hold ints, strings and Python floats; csv
    writes a float as its ``repr``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_support_csv(delta: np.ndarray, path) -> None:
    """Write the nonzero entries as 1-based "i,j,value" rows."""
    _write_table(path, ("i", "j", "value"),
                 ((i + 1, j + 1, float(delta[i, j])) for i, j in np.argwhere(delta != 0)))


def write_ground_truth(truth: GroundTruth, out: Path) -> None:
    """Export the true matrices as headerless CSV plus a 1-based support list."""
    write_matrix_csv(truth.omega_x, out / "truth_omega_x.csv")
    write_matrix_csv(truth.omega_y, out / "truth_omega_y.csv")
    write_matrix_csv(truth.delta_star, out / "truth_delta.csv")
    write_support_csv(truth.delta_star, out / "truth_support.csv")


def _solver_config(args) -> SolverConfig:
    return SolverConfig(tol=args.tol, max_iter=args.max_iter)


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise InputError(f"cannot create output directory {out}: {err.strerror}") from err
    return out


def fork(fn, *args) -> Tuple[int, BinaryIO]:
    """Run ``fn(*args)`` in a forked child process.

    Returns the child's pid and the read end of a pipe that carries back the
    pickled pair (result, None), or (None, exception) when the call raised;
    an exception that does not survive pickling is sent as a RuntimeError
    with its type name and message.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, open(read_fd, "rb")
    # The child: os._exit skips the parent's exit handlers and buffered
    # output, which the fork copied.
    try:
        os.close(read_fd)
        with open(write_fd, "wb") as pipe:
            try:
                result = (fn(*args), None)
            except BaseException as err:
                result = (None, _portable(err))
            pickle.dump(result, pipe, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        os._exit(0)


def _portable(err: BaseException) -> BaseException:
    """``err``, or a RuntimeError with its type name and message where
    ``err`` does not come back whole from pickling."""
    try:
        pickle.loads(pickle.dumps(err, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return RuntimeError(f"{type(err).__name__}: {err}")
    return err


def receive(child: Tuple[int, BinaryIO], work: str):
    """The result the forked ``child`` sent, or raise the error it sent.

    Closes the child's pipe. ``work`` names the child's task in the
    RuntimeError raised when nothing readable arrives.
    """
    _, pipe = child
    with pipe:
        try:
            result, err = pickle.load(pipe)
        except Exception as exc:
            raise RuntimeError(f"the process {work} ended without a result") from exc
    if err is not None:
        raise err
    return result


def reap(children: Sequence[Tuple[int, BinaryIO]]) -> None:
    """Wait for every child to end. A child whose result was not received
    is no longer wanted: its pipe is closed and it is killed."""
    for pid, pipe in children:
        if not pipe.closed:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _run_share(run, items):
    """(results, None) for ``items`` in order, or (results so far, error)
    at the first that raises. The error passes through ``_portable`` in
    every process, so that an item fails the same way whichever process
    ran it."""
    results = []
    for item in items:
        try:
            results.append(run(item))
        except Exception as err:
            return results, _portable(err)
    return results, None


def _run_split(run, items: list, workers: int, task) -> list:
    """``[run(item) for item in items]``, split over ``workers`` processes:
    this one runs items 0, W, 2W, ..., forked worker k runs items k, k+W,
    ..., and the results come back in item order. The error raised is that
    of the lowest-indexed failing item, as in the serial loop; a worker
    that ends without a result raises a RuntimeError naming ``task`` of its
    items. Every worker is reaped on every path."""
    shares = [items[k::workers] for k in range(workers)]
    children = []
    try:
        for share in shares[1:]:
            children.append(fork(_run_share, run, share))
        done = [_run_share(run, shares[0])]
        for child, share in zip(children, shares[1:]):
            done.append(receive(child, task(share)))
    finally:
        reap(children)
    # Worker k's share stops at its first failure: item k + W * len(its results).
    failures = [(k + workers * len(results), err)
                for k, (results, err) in enumerate(done) if err is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * len(items)
    for k, (share_results, _) in enumerate(done):
        results[k::workers] = share_results
    return results


def _load_pair(args) -> Tuple[CovariancePair, SolverConfig]:
    """Covariance pair of the --x/--y files and the flags' solver settings.

    Where the platform has ``os.fork``, this process parses --x while a
    forked child parses --y, on a second core (``_run_split``). Either way,
    --x's error is raised before --y's. A group's constant columns, which
    make its covariance singular, are named on stderr; they are found on the
    raw data, since rounding in the mean can leave their variance positive.
    """
    x, y = _run_split(lambda path: read_matrix_csv(path, allow_header=True), [args.x, args.y],
                      2 if hasattr(os, "fork") else 1, lambda paths: "reading " + ", ".join(paths))
    pair = build_pair(x, y)
    for group, data in (("X", x), ("Y", y)):
        constant = np.flatnonzero((data == data[0]).all(axis=0)) + 1
        if constant.size:
            print(f"warning: group {group} is constant in columns {', '.join(map(str, constant))}"
                  f" (1-based), so its covariance is singular", file=sys.stderr)
    return pair, _solver_config(args)


def cmd_estimate(args) -> int:
    pair, cfg = _load_pair(args)
    if args.lam is None:
        grid = lambda_grid(pair, count=args.grid_count, ratio=args.grid_ratio)
    else:
        grid = [args.lam]  # a one-point path
    start = time.perf_counter()
    path = solve_path(pair, grid, cfg)
    best, estimate = select_by_bic(path, args.bic)
    wallclock_ms = int(1000 * (time.perf_counter() - start))

    # After the solve, so that a refused penalty leaves no --out behind.
    out = _out_dir(args)
    with open(out / "path.csv", "w", newline="") as fh:
        write_path_csv(path, fh)
    write_matrix_csv(estimate.delta, out / "delta.csv")
    write_support_csv(estimate.delta, out / "support.csv")
    record = {
        "lambda": estimate.lam,
        "tol": cfg.tol,
        "iterations": estimate.iterations,
        "converged": estimate.converged,
        "objective": estimate.objective,
        "bic_f": float(path.bic_f[best]),
        "bic_inf": float(path.bic_inf[best]),
        "nnz": estimate.nnz,
        "wallclock_ms": wallclock_ms,
        "no_minimizer_at": path.no_minimizer_at,
        **_environment(),
    }
    (out / "run.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0 if all(est.converged for est in path.estimates) else 1


def _replicate_data(spec: SimulationSpec, truth, rep: int):
    """Samples (x, y) of replicate ``rep``: X uses seed+1+2r, Y uses seed+2+2r."""
    x = sample_gaussian(truth.omega_x, spec.n_x, spec.seed + 1 + 2 * rep)
    y = sample_gaussian(truth.omega_y, spec.n_y, spec.seed + 2 + 2 * rep)
    return x, y


def _simulate_replicate(spec: SimulationSpec, truth, rep: int, cfg: SolverConfig, args):
    pair = build_pair(*_replicate_data(spec, truth, rep))
    grid = lambda_grid(pair, count=args.grid_count, ratio=args.grid_ratio)
    path = solve_path(pair, grid, cfg)
    points, auc = curve_from_path(path, truth.delta_star)
    row = {"replicate": rep, "auc": auc, "points": points}
    for norm, tag in _NORM_TAGS:
        _, est = select_by_bic(path, norm)
        report = support_metrics(est.delta, truth.delta_star)
        row[f"lambda_{tag}"] = est.lam
        row[f"tp_{tag}"] = report.tp_rate
        row[f"tn_{tag}"] = report.tn_rate
        row[f"td_{tag}"] = report.td_rate
        row[f"nnz_{tag}"] = report.nnz_est
    row["converged"] = all(est.converged for est in path.estimates)
    return row


def _blas_threads() -> Optional[int]:
    """The pinned BLAS thread count (``_BLAS_THREAD_VARS``), None when unpinned."""
    for var in _BLAS_THREAD_VARS:
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return None


def _environment() -> dict:
    """What a run's last bits depend on: the numpy version, the BLAS numpy
    was built against, and the pinned BLAS thread count."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy_version": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": _blas_threads()}


def _workers(reps: int) -> int:
    """Processes for ``reps`` replicates: as many as the usable CPUs hold
    at the pinned BLAS thread count, and no more than ``reps``. Without
    ``os.fork``, or with BLAS threads not pinned, one."""
    if not hasattr(os, "fork"):
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else (os.cpu_count() or 1)
    return max(1, min(reps, cpus // (_blas_threads() or cpus)))


def _format_mean_sd(values: Sequence[float]) -> Tuple[str, str, str]:
    """Mean and replicate SD in percent, then "mean(sd)"; the SD is empty
    and the last text is the mean alone for a single replicate."""
    mean = f"{100.0 * float(np.mean(values)):.1f}"
    if len(values) < 2:
        return mean, "", mean
    sd = f"{100.0 * float(np.std(values, ddof=1)):.1f}"
    return mean, sd, f"{mean}({sd})"


def cmd_simulate(args) -> int:
    spec = SimulationSpec(args.scenario, args.p, args.n, args.n, args.seed)
    cfg = _solver_config(args)
    if args.reps < 1:
        raise InputError(f"--reps must be at least 1, got {args.reps}")
    check_grid(args.grid_count, args.grid_ratio)
    truth = generate(spec)
    out = _out_dir(args)
    write_ground_truth(truth, out)

    rows = _run_split(lambda rep: _simulate_replicate(spec, truth, rep, cfg, args),
                      list(range(args.reps)), _workers(args.reps),
                      lambda reps: f"running replicates {reps}")

    if args.save_data:
        # The first replicate's data, re-drawn from its seeds: replicates
        # keep no samples once their path is scored.
        for name, data in zip(("x.csv", "y.csv"), _replicate_data(spec, truth, 0)):
            write_matrix_csv(data, out / name)

    _write_table(out / "replicates.csv", REPLICATE_COLUMNS,
                 ([row[column] for column in REPLICATE_COLUMNS] for row in rows))
    _write_table(out / "summary.csv", ("norm", "metric", "mean_pct", "sd_pct", "formatted"),
                 ((norm, metric, *_format_mean_sd([row[f"{metric}_{tag}"] for row in rows]))
                  for norm, tag in _NORM_TAGS for metric in ("tp", "tn", "td")))

    for row in rows:
        with open(out / f"curve_{row['replicate']:03d}.csv", "w", newline="") as fh:
            write_curve_csv(row["points"], fh)

    # Curves averaged pointwise across replicates at matched grid positions.
    index = range(min(len(row["points"]) for row in rows))
    fp, tp, precision = ([float(np.mean([getattr(row["points"][i], field) for row in rows]))
                          for i in index]
                         for field in ("fp_rate", "tp_rate", "precision"))
    _write_table(out / "roc.csv", ("index", "mean_fp", "mean_tp"), zip(index, fp, tp))
    _write_table(out / "pr.csv", ("index", "mean_recall", "mean_precision"),
                 zip(index, tp, precision))

    return 0 if all(row["converged"] for row in rows) else 1


def cmd_evaluate(args) -> int:
    est = read_matrix_csv(args.delta)
    truth = read_matrix_csv(args.truth)
    report = support_metrics(est, truth)
    out = _out_dir(args)
    record = {
        "tp_rate": report.tp_rate,
        "tn_rate": report.tn_rate,
        "td_rate": report.td_rate,
        "sign_consistent": report.sign_consistent,
        "nnz_est": report.nnz_est,
        "nnz_true": report.nnz_true,
    }
    (out / "metrics.json").write_text(json.dumps(record, indent=2) + "\n")
    print(
        f"TP={100 * report.tp_rate:.1f}% TN={100 * report.tn_rate:.1f}% "
        f"TD={100 * report.td_rate:.1f}% sign_consistent={report.sign_consistent}"
    )
    return 0


def cmd_diagnose(args) -> int:
    # Precision matrices are symmetrized as in sample_gaussian.
    omega_x = as_symmetric(read_matrix_csv(args.x), "--x")
    omega_y = as_symmetric(read_matrix_csv(args.y), "--y")
    pd_cholesky(omega_x, "--x")
    pd_cholesky(omega_y, "--y")
    if omega_x.shape != omega_y.shape:
        raise InputError("precision matrices must share one square shape")
    p = omega_x.shape[0]
    sigma_x = np.linalg.inv(omega_x)
    sigma_y = np.linalg.inv(omega_y)
    if args.support:
        support = read_support_csv(args.support, p)
    else:
        support = {tuple(idx) for idx in np.argwhere(omega_y - omega_x != 0)}
        if not support:
            raise InputError("precision matrices are identical; supply --support")
    alpha, kappa = irrepresentability_alpha(sigma_x, sigma_y, support)
    out = _out_dir(args)
    holds = "holds" if alpha > 0 else "fails"
    print(f"alpha={alpha:.6f} kappa={kappa:.6f} condition {holds}")
    record = {"alpha": alpha, "kappa": kappa, "condition_holds": alpha > 0}
    (out / "diagnose.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="difftrace",
        description="Direct estimation of the difference of two precision matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_flags(sp):
        sp.add_argument("--tol", type=float, default=SolverConfig.tol,
                        help="each estimate is certified at KKT residual <= tol * lambda")
        sp.add_argument("--max-iter", type=int, default=SolverConfig.max_iter, dest="max_iter",
                        help="iteration cap of each stage of a penalty's solve")
        sp.add_argument("--grid-count", type=int, default=GRID_COUNT, dest="grid_count")
        sp.add_argument("--grid-ratio", type=float, default=GRID_RATIO, dest="grid_ratio")
        sp.add_argument("--out", default=".", help="output directory")

    sp = sub.add_parser("estimate", help="estimate the difference from two data files")
    sp.add_argument("--x", required=True, help="group X observations (n x p CSV)")
    sp.add_argument("--y", required=True, help="group Y observations (n x p CSV)")
    sp.add_argument("--lambda", type=float, default=None, dest="lam", help="fixed penalty")
    sp.add_argument("--bic", choices=BIC_NORMS, default="frobenius",
                    help="BIC norm for tuning when no --lambda is given")
    add_solver_flags(sp)
    sp.set_defaults(func=cmd_estimate)

    sp = sub.add_parser("simulate", help="run a benchmark scenario")
    sp.add_argument("--scenario", choices=SCENARIOS, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True, help="per-group sample size")
    sp.add_argument("--reps", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--save-data", action="store_true", dest="save_data",
                    help="also write the first replicate's x.csv / y.csv")
    add_solver_flags(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("evaluate", help="score an estimate against a ground truth")
    sp.add_argument("--delta", required=True, help="estimated difference (p x p CSV)")
    sp.add_argument("--truth", required=True, help="true difference (p x p CSV)")
    sp.add_argument("--out", default=".")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("diagnose", help=f"irrepresentability diagnostic, |S| <= {MAX_SUPPORT}")
    sp.add_argument("--x", required=True, help="group X precision matrix (p x p CSV)")
    sp.add_argument("--y", required=True, help="group Y precision matrix (p x p CSV)")
    sp.add_argument("--support", default=None, help="support list CSV (1-based i,j rows)")
    sp.add_argument("--out", default=".")
    sp.set_defaults(func=cmd_diagnose)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SolverError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    """The console script: exit with ``main()``'s code. Freezing the heap
    first spares the exit a collection of objects it frees anyway."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
