import argparse
import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from difftrace import cli, model_selection, solver
from difftrace.covariance import build_pair
from difftrace.simulation import gen_sim1, sample_gaussian

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACED = PERFBENCH / "traced.py"


def test_every_traced_call_site_resolves():
    # The benchmark's traced run rebinds each (namespace, name) in
    # CALL_SITES and crashes on a name the package no longer defines.
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    assert traced.CALL_SITES
    for namespace, name in traced.CALL_SITES:
        assert callable(getattr(namespace, name, None)), f"{namespace.__name__}.{name}"


def test_every_benchmark_import_resolves():
    # Parsed rather than imported: importing run.py sets the BLAS thread
    # variables in os.environ for the rest of the session.
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    names = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("difftrace.")
        for alias in node.names
    ]
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def subcommand_options(command):
    """Option strings of one CLI subcommand."""
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return set(sub.choices[command]._option_string_actions)


def test_cli_import_loads_no_process_pool():
    # The benchmark's setup_s times a fresh interpreter importing
    # difftrace.cli; the concurrent read forks with os alone, and importing
    # concurrent.futures.process costs tens of milliseconds.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    code = ("import sys, difftrace.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_every_benchmark_flag_is_a_cli_option():
    # A flag the CLI no longer accepts would fail every benchmark call.
    # make_inputs builds the simulate arguments under its
    # ``wl.command == "simulate"`` branch and the estimate arguments after
    # it; run_timed appends the flags every command shares.
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def flags(nodes):
        return {
            node.value
            for root in nodes
            for node in ast.walk(root)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.startswith("--")
        }

    body = funcs["make_inputs"].body
    (branch,) = [
        node for node in body
        if isinstance(node, ast.If)
        and any(getattr(c, "value", None) == "simulate" for c in ast.walk(node.test))
    ]
    shared = flags([funcs["run_timed"]])
    assert "--out" in shared
    expected = {
        "simulate": flags([branch]),
        "estimate": flags([node for node in body if node is not branch]),
    }
    for command, used in expected.items():
        assert used, command
        missing = (used | shared) - subcommand_options(command)
        assert not missing, f"{command}: {sorted(missing)}"


def count_calls(monkeypatch, namespace, name):
    """Record the arguments of every call to ``namespace.name``."""
    calls = []
    fn = getattr(namespace, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(namespace, name, counted)
    return calls


# The benchmark's KKT audit sees only the solves made through these two
# names; a solve made elsewhere would be timed but not audited.
def test_path_solves_each_penalty_through_model_selection(monkeypatch):
    calls = count_calls(monkeypatch, model_selection, "admm_solve")
    truth = gen_sim1(10)
    pair = build_pair(sample_gaussian(truth.omega_x, 60, 1),
                      sample_gaussian(truth.omega_y, 60, 2))
    grid = model_selection.lambda_grid(pair, count=6, ratio=0.1)
    model_selection.solve_path(pair, grid)
    assert [args[1] for args in calls] == list(grid)


def test_fixed_penalty_estimate_solves_once_through_cli(monkeypatch, tmp_path):
    cli_calls = count_calls(monkeypatch, cli, "admm_solve")
    calls = count_calls(monkeypatch, model_selection, "admm_solve")
    truth = gen_sim1(10)
    for name, omega, seed in (("x", truth.omega_x, 1), ("y", truth.omega_y, 2)):
        np.savetxt(tmp_path / f"{name}.csv", sample_gaussian(omega, 60, seed), delimiter=",")
    code = cli.main(["estimate", "--x", str(tmp_path / "x.csv"), "--y",
                     str(tmp_path / "y.csv"), "--lambda", "0.05", "--out", str(tmp_path)])
    assert code == 0
    assert len(calls) == 1 and not cli_calls


@pytest.mark.parametrize(
    "mode", [["--grid-count", "5"], ["--lambda", "0.05"]], ids=["path", "fixed-penalty"]
)
def test_every_eigendecomposition_goes_through_psd_eig(monkeypatch, tmp_path, mode):
    # The benchmark counts and times eigendecompositions (linalg.eig_calls,
    # linalg.eig_s) at ``solver.psd_eig``; one made elsewhere escapes both.
    truth = gen_sim1(10)
    for name, omega, seed in (("x", truth.omega_x, 1), ("y", truth.omega_y, 2)):
        np.savetxt(tmp_path / f"{name}.csv", sample_gaussian(omega, 60, seed), delimiter=",")
    psd_calls = count_calls(monkeypatch, solver, "psd_eig")
    eig_calls = [count_calls(monkeypatch, np.linalg, name) for name in ("eigh", "eigvalsh")]
    code = cli.main(["estimate", "--x", str(tmp_path / "x.csv"), "--y",
                     str(tmp_path / "y.csv"), "--out", str(tmp_path / "out")] + mode)
    assert code == 0
    assert sum(map(len, eig_calls)) == len(psd_calls) == 2


def test_path_csv_leads_with_the_columns_the_benchmark_reads():
    # perfbench/run.py's check_estimate reads path.csv's lambda, nnz and
    # bic_f by position.
    assert model_selection.PATH_CSV_COLUMNS[:3] == ("lambda", "nnz", "bic_f")
