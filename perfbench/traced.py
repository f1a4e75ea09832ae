"""Run the difftrace CLI in-process with a span around every call into a
module's public functions, and audit every ADMM solve it makes.

Usage (PYTHONPATH must point at the package source):

    python perfbench/traced.py --trace-out T.jsonl --capture-out C.json \
        [--deltas-out D.npy] [--run-id ID] -- <difftrace CLI arguments>

Spans are recorded by rebinding each function name in the namespace where
its caller looks it up (``difftrace.model_selection.admm_solve``,
``difftrace.solver.solve_axb_plus_gx``, ...), so the package itself is
unchanged. Spans are kept in memory and written as JSON lines once the CLI
has returned. After the traced call, the KKT residual of every solve is
evaluated outside the timed region and written to the capture file.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from difftrace import cli, evaluation, model_selection, solver

# Call sites to rebind: (namespace the caller looks the name up in, name).
# A function called from two modules is wrapped at both sites.
CALL_SITES = (
    (cli, "read_matrix_csv"),
    (cli, "write_matrix_csv"),
    (cli, "write_support_csv"),
    (cli, "build_pair"),
    (cli, "admm_solve"),
    (cli, "lambda_grid"),
    (cli, "solve_path"),
    (cli, "select_by_bic"),
    (cli, "bic_score"),
    (cli, "write_path_csv"),
    (cli, "generate"),
    (cli, "sample_gaussian"),
    (cli, "write_ground_truth"),
    (cli, "curve_from_path"),
    (cli, "support_metrics"),
    (cli, "write_curve_csv"),
    (model_selection, "admm_solve"),
    (model_selection, "bic_score"),
    (solver, "psd_eig"),
    (solver, "solve_axb_plus_gx"),
    (solver, "soft_threshold"),
    (evaluation, "support_metrics"),
)


class Tracer:
    """In-memory span recorder. A span is [id, name, start_ns, end_ns, parent]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = [None]

    def span(self, name: str, fn, on_return=None):
        """Wrap ``fn`` so that each call records one span named ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [len(spans), name, 0, 0, stack[-1]]
            spans.append(record)
            stack.append(record[0])
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def write_jsonl(self, path) -> None:
        origin = self.spans[0][2] if self.spans else 0
        with open(path, "w") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": (start - origin) / 1e9,
                            "end": (end - origin) / 1e9,
                            "parent": parent,
                            "run": self.run_id,
                        }
                    )
                    + "\n"
                )


def install(tracer: Tracer, solves: list) -> None:
    """Rebind every call site; ``admm_solve`` also records its result."""

    def record_solve(args, result):
        pair, lam = args[0], args[1]
        solves.append((pair, float(lam), result[0]))

    for namespace, attr in CALL_SITES:
        fn = getattr(namespace, attr)
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        hook = record_solve if attr == "admm_solve" else None
        setattr(namespace, attr, tracer.span(name, fn, hook))


def audit(solves: list) -> list:
    """[lambda, sweeps, converged, KKT/lambda, nnz] for every solve."""
    rows = []
    for pair, lam, est in solves:
        kkt = solver.kkt_check(est.delta, pair, lam)
        rows.append([lam, est.iterations, bool(est.converged), kkt / lam, est.nnz])
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--capture-out", required=True)
    parser.add_argument("--deltas-out", default=None,
                        help="also save every solve's estimate as one .npy stack")
    parser.add_argument("--run-id", default="traced")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer(args.run_id)
    solves = []
    install(tracer, solves)
    root = tracer.span("cli.main", cli.main)
    start = time.perf_counter()
    rc = root(cli_args)
    wall = time.perf_counter() - start

    tracer.write_jsonl(args.trace_out)
    rows = audit(solves)
    if args.deltas_out:
        np.save(args.deltas_out, np.stack([est.delta for _, _, est in solves]))
    # post_s lets the caller subtract the audit from this process's wall time.
    post = time.perf_counter() - start - wall
    with open(args.capture_out, "w") as fh:
        json.dump({"rc": rc, "wall_s": wall, "post_s": post, "solves": rows}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
