import csv
import dataclasses
import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from difftrace import cli, model_selection
from difftrace.cli import InputError, _read_rows, main, read_matrix_csv, read_support_csv
from difftrace.evaluation import irrepresentability_alpha
from difftrace.linalg import SolverError
from difftrace.covariance import build_pair
from difftrace.model_selection import bic_score, lambda_grid, lambda_max
from difftrace.simulation import SimulationSpec, gen_sim1, generate, sample_gaussian
from difftrace.solver import NoMinimizerError, SolverConfig, kkt_check


@pytest.fixture
def sim_data(tmp_path):
    truth = gen_sim1(12)
    x = sample_gaussian(truth.omega_x, 80, 31)
    y = sample_gaussian(truth.omega_y, 80, 32)
    x_path = tmp_path / "x.csv"
    y_path = tmp_path / "y.csv"
    np.savetxt(x_path, x, delimiter=",")
    np.savetxt(y_path, y, delimiter=",")
    return truth, x_path, y_path


class TestReadMatrixCsv:
    def test_plain_csv(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("1,2\n3,4\n")
        np.testing.assert_array_equal(read_matrix_csv(f), [[1.0, 2.0], [3.0, 4.0]])

    def test_tab_separated(self, tmp_path):
        f = tmp_path / "m.tsv"
        f.write_text("1\t2\n3\t4\n")
        np.testing.assert_array_equal(read_matrix_csv(f), [[1.0, 2.0], [3.0, 4.0]])

    def test_header_detected(self, tmp_path):
        f = tmp_path / "obs.csv"
        f.write_text("gene1,gene2\n1,2\n3,4\n")
        data = read_matrix_csv(f, allow_header=True)
        assert data.shape == (2, 2)

    def test_ragged_line_is_named(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("1,2\n3,4,5\n")
        with pytest.raises(InputError, match="line 2"):
            read_matrix_csv(f)

    def test_support_round_trip(self, tmp_path):
        f = tmp_path / "support.csv"
        # The header is the first non-blank line, wherever that is.
        for text in ("i,j,value\n1,2,0.5\n2,1,0.5\n", "\ni,j,value\n1,2,0.5\n2,1,0.5\n"):
            f.write_text(text)
            assert read_support_csv(f, p=4) == {(0, 1), (1, 0)}

    def test_support_header_only_on_first_line(self, tmp_path):
        f = tmp_path / "support.csv"
        f.write_text("1,2\nfoo\n")
        with pytest.raises(InputError) as err:
            read_support_csv(f, p=4)
        assert str(err.value) == f"{f}: line 2 is not an 'i,j[,value]' row"

    def test_support_ignores_byte_order_mark(self, tmp_path):
        f = tmp_path / "support.csv"
        f.write_text("\ufeff1,2\n2,1\n", encoding="utf-8")
        assert read_support_csv(f, p=4) == {(0, 1), (1, 0)}

    def test_support_accepts_integral_floats(self, tmp_path):
        f = tmp_path / "support.csv"
        f.write_text("1.0,2.0\n")
        assert read_support_csv(f, p=4) == {(0, 1)}

    def test_support_rejects_fractional_index(self, tmp_path):
        f = tmp_path / "support.csv"
        f.write_text("i,j\n1,2\n1.7,2.9\n")
        with pytest.raises(InputError, match="line 3 has a non-integer index"):
            read_support_csv(f, p=4)

    @pytest.mark.parametrize(
        "text, allow_header, expected",
        [
            ("1,2\n3,4\n", False, [[1.0, 2.0], [3.0, 4.0]]),
            ("1\t2\n3\t4\n", False, [[1.0, 2.0], [3.0, 4.0]]),
            ("1 2\n 3   4 \n", False, [[1.0, 2.0], [3.0, 4.0]]),
            ("g1,g2\n\n  \n1,2\n3,4\n", True, [[1.0, 2.0], [3.0, 4.0]]),
            ("1,2\r\n3,4\r\n", False, [[1.0, 2.0], [3.0, 4.0]]),
            ("1.5,-2e-3,7\n", False, [[1.5, -0.002, 7.0]]),
            ("1\n2\n3\n", False, [[1.0], [2.0], [3.0]]),
            ("1,2,\n3,4,\n", False, [[1.0, 2.0], [3.0, 4.0]]),
            ("1,2\n3\t4\n5 6\n", False, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
            ("1_0,2\n3,4\n", False, [[10.0, 2.0], [3.0, 4.0]]),
            ("# comment\n1,2\n", True, [[1.0, 2.0]]),
            ("1 2\x0c3 4\n", False, [[1.0, 2.0, 3.0, 4.0]]),
            ("\u00b5g,ng\n1,2\n", True, [[1.0, 2.0]]),
            ("1,2\n# note\n3,4\n", True, "line 2 is not numeric"),
            ("g1,g2\n\n1,2\n3,4,5\n", True, "line 4 has 3 fields, expected 2"),
            ("g1,g2\n\n1,2\nfoo,bar\n", True, "line 4 is not numeric"),
            ("g1,g2\n1,2\n", False, "line 1 is not numeric"),
            ("", False, "no numeric rows found"),
            ("1,2\n,\n3,4\n", False, "line 2 is not numeric"),
            ("\ufeff1,2\n3,5\n4,1\n", True, [[1.0, 2.0], [3.0, 5.0], [4.0, 1.0]]),
            ("\ufeff1,2\n3,5\n4,1\n", False, [[1.0, 2.0], [3.0, 5.0], [4.0, 1.0]]),
            ("\ufeffg1,g2\n1,2\n", True, [[1.0, 2.0]]),
            ("\ufeff\ufeff1,2\n", False, "line 1 is not numeric"),
        ],
        ids=[
            "comma", "tab", "whitespace", "header-then-blank-lines", "crlf",
            "single-row", "single-column", "trailing-delimiter", "mixed-delimiters",
            "underscore-literal", "hash-line-as-header", "form-feed-inside-line",
            "non-ascii-header", "hash-line-after-data",
            "ragged-after-header", "non-numeric-after-header", "header-refused",
            "empty", "delimiter-only-line", "byte-order-mark-observations",
            "byte-order-mark-matrix", "byte-order-mark-header", "second-byte-order-mark",
        ],
    )
    def test_reader_table(self, tmp_path, text, allow_header, expected):
        f = tmp_path / "m.csv"
        f.write_text(text, encoding="utf-8", newline="")
        if isinstance(expected, str):
            with pytest.raises(InputError) as err:
                read_matrix_csv(f, allow_header=allow_header)
            assert str(err.value) == f"{f}: {expected}"
        else:
            data = read_matrix_csv(f, allow_header=allow_header)
            assert data.dtype == np.float64
            np.testing.assert_array_equal(data, expected)
            assert data.shape == np.shape(expected)

    @pytest.mark.parametrize(
        "data, line",
        [(b"\xff1,2\n", 1), (b"1,2\n\xff", 2), (b"1,2\r\n3,4\r\n5,\xe9\n", 3),
         (b"1,2\r3,4\n\n5,6\xff\n", 4), (b"\xef\xbb\xbf1,2\n3,4\n5,\xff\n", 3),
         (b"1 2\x0c\xff\n", 1), (b"1,2\x0c\n3,4\n\xff", 3)],
        ids=["first-byte", "line-start", "crlf", "cr-and-blank-line", "after-byte-order-mark",
             "after-form-feed", "line-after-form-feed"],
    )
    def test_non_utf8_byte_is_named(self, tmp_path, data, line):
        f = tmp_path / "m.csv"
        f.write_bytes(data)
        for read in (read_matrix_csv, lambda f: read_support_csv(f, p=2)):
            with pytest.raises(InputError) as err:
                read(f)
            assert str(err.value) == f"{f}: line {line} is not UTF-8 text"

    def test_savetxt_round_trip_is_bitwise(self, tmp_path):
        matrix = np.random.default_rng(3).standard_normal((200, 7))
        f = tmp_path / "m.csv"
        np.savetxt(f, matrix, delimiter=",")
        assert read_matrix_csv(f).tobytes() == matrix.tobytes()
        # The line-by-line reader stays the reference for the streamed parse.
        assert _read_rows(f, allow_header=False).tobytes() == matrix.tobytes()

    @pytest.mark.parametrize(
        "text",
        ["1,2\n   \n3,4\n", "1,2,\n", "1\t2\t\n\n3\t4\t\n"],
        ids=["whitespace-only-line", "trailing-comma", "trailing-tab"],
    )
    def test_blank_lines_and_trailing_delimiters_stay_streamed(
        self, tmp_path, monkeypatch, text
    ):
        f = tmp_path / "m.csv"
        f.write_text(text, encoding="utf-8", newline="")
        expected = _read_rows(f, allow_header=False)

        def refuse(*args, **kwargs):
            raise AssertionError("fell back to the line-by-line reader")

        monkeypatch.setattr(cli, "_read_rows", refuse)
        data = read_matrix_csv(f)
        assert data.tobytes() == expected.tobytes()
        assert data.shape == expected.shape

    def test_streamed_parse_matches_line_reader(self, tmp_path):
        # Random near-well-formed files: same array, or same error, as the
        # line-by-line reader.
        rng = np.random.default_rng(0)
        fields = ["1", "-2.5e3", "0", "-0", "nan", "1_0", "x", "#", "\uff11"]
        seps = [",", "\t", " ", ", ", "\x0c", "\xa0", "\x85", "\u2028", ",,"]
        ends = ["\n", "\r\n", "\r", ",\n", "\n  \n", "\x0b"]
        f = tmp_path / "m.csv"

        def outcome(read, allow_header):
            try:
                data = read(f, allow_header=allow_header)
            except InputError as err:
                return str(err)
            return data.shape, data.tobytes()

        for _ in range(400):
            width = rng.integers(1, 4)
            sep = seps[rng.integers(0, 4)]
            lines = ["g1,g2\n"] if rng.random() < 0.3 else []
            if rng.random() < 0.2:
                lines.insert(0, "\ufeff")
            for _ in range(rng.integers(0, 5)):
                row = [fields[rng.integers(0, 4 if rng.random() < 0.9 else 9)]
                       for _ in range(width + (rng.random() < 0.1))]
                line = (sep if rng.random() < 0.9 else seps[rng.integers(0, 9)]).join(row)
                lines.append(line + ("\n" if rng.random() < 0.8 else ends[rng.integers(0, 6)]))
            f.write_text("".join(lines), encoding="utf-8", newline="")
            for allow_header in (False, True):
                assert outcome(read_matrix_csv, allow_header) == outcome(_read_rows, allow_header)


# The characters that str.splitlines() breaks a line at and a text-mode
# file read keeps inside one.
INLINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineModel:
    """A line ends at LF, CRLF or CR only, in every reader."""

    @pytest.mark.parametrize("char", INLINE_BREAKS, ids=lambda char: f"U+{ord(char):04X}")
    @pytest.mark.parametrize(
        "line, expected",
        [("4 5{}6\n", [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
         ("4,5{}6\n", "line 2 is not numeric")],
        ids=["whitespace", "comma"],
    )
    def test_character_stays_inside_its_line(self, tmp_path, char, line, expected):
        f = tmp_path / "m.csv"
        f.write_text("1 2 3\n" + line.format(char), encoding="utf-8", newline="")
        for read in (read_matrix_csv, _read_rows):
            if isinstance(expected, str):
                with pytest.raises(InputError) as err:
                    read(f, allow_header=False)
                assert str(err.value) == f"{f}: {expected}"
            else:
                data = read(f, allow_header=False)
                assert data.tobytes() == np.array(expected).tobytes()
                assert data.shape == (2, 3)

    @pytest.mark.parametrize("char", INLINE_BREAKS, ids=lambda char: f"U+{ord(char):04X}")
    def test_support_line_keeps_its_number(self, tmp_path, char):
        f = tmp_path / "support.csv"
        f.write_text(f"i,j\n1,{char}2{char}\n2,1\n", encoding="utf-8", newline="")
        assert read_support_csv(f, p=4) == {(0, 1), (1, 0)}
        f.write_text(f"i,j\n1,2{char}\n3,9\n", encoding="utf-8", newline="")
        with pytest.raises(InputError) as err:
            read_support_csv(f, p=4)
        assert str(err.value) == f"{f}: line 3 index out of range for p=4"


class TestEstimate:
    def test_identical_files_give_zero(self, tmp_path, sim_data):
        _, x_path, _ = sim_data
        out = tmp_path / "out"
        code = main(
            ["estimate", "--x", str(x_path), "--y", str(x_path),
             "--lambda", "0.1", "--out", str(out)]
        )
        assert code == 0
        delta = np.loadtxt(out / "delta.csv", delimiter=",")
        assert np.count_nonzero(delta) == 0
        record = json.loads((out / "run.json").read_text())
        assert record["converged"] is True
        assert record["nnz"] == 0

    def test_bic_tuned_run_writes_outputs(self, tmp_path, sim_data):
        _, x_path, y_path = sim_data
        out = tmp_path / "out"
        code = main(
            ["estimate", "--x", str(x_path), "--y", str(y_path),
             "--bic", "frobenius", "--grid-count", "8", "--out", str(out)]
        )
        assert code == 0
        record = json.loads((out / "run.json").read_text())
        for key in ("lambda", "tol", "iterations", "converged",
                    "objective", "bic_f", "bic_inf", "nnz", "wallclock_ms",
                    "no_minimizer_at", "numpy_version", "blas", "blas_version",
                    "blas_threads"):
            assert key in record
        assert record["no_minimizer_at"] is None
        assert record["numpy_version"] == np.__version__
        assert record["blas_threads"] == cli._blas_threads()
        assert (out / "delta.csv").exists()
        assert (out / "support.csv").exists()
        assert (out / "path.csv").exists()
        support_lines = (out / "support.csv").read_text().strip().splitlines()
        assert len(support_lines) - 1 == record["nnz"]

    def test_ragged_csv_exit_code_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,4,5\n")
        good = tmp_path / "good.csv"
        good.write_text("1,2\n3,4\n5,6\n")
        code = main(["estimate", "--x", str(bad), "--y", str(good), "--lambda", "0.1"])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_nonconverged_solve_exit_code_1(self, tmp_path, sim_data):
        _, x_path, y_path = sim_data
        out = tmp_path / "out"
        code = main(
            ["estimate", "--x", str(x_path), "--y", str(y_path),
             "--lambda", "0.0001", "--max-iter", "2", "--out", str(out)]
        )
        assert code == 1
        record = json.loads((out / "run.json").read_text())
        assert record["converged"] is False

    def test_unconverged_path_exit_code_1(self, tmp_path, sim_data):
        # BIC selects lambda_max, which converges without an iteration;
        # every other penalty stops after one predictor and one float64
        # continuation iteration.
        _, x_path, y_path = sim_data
        out = tmp_path / "out"
        code = main(
            ["estimate", "--x", str(x_path), "--y", str(y_path),
             "--grid-count", "8", "--max-iter", "1", "--out", str(out)]
        )
        assert code == 1
        record = json.loads((out / "run.json").read_text())
        assert record["converged"] is True
        with open(out / "path.csv", newline="") as fh:
            converged = [row["converged"] for row in csv.DictReader(fh)]
        assert converged[0] == "True" and "False" in converged

    def test_module_run_exits_with_main_code(self, tmp_path, sim_data):
        _, x_path, y_path = sim_data
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "difftrace.cli", "estimate", "--x", str(x_path),
             "--y", str(y_path), "--grid-count", "8", "--max-iter", "1",
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        assert (tmp_path / "out" / "run.json").exists()

    def test_entry_freezes_the_heap_before_exit(self, monkeypatch):
        monkeypatch.setattr(cli, "main", lambda: 3)
        try:
            with pytest.raises(SystemExit) as stop:
                cli.entry()
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
        assert stop.value.code == 3

    def test_run_scored_once(self, tmp_path, sim_data, monkeypatch):
        _, x_path, y_path = sim_data
        calls = []

        def counting(delta, pair, grad=None):
            calls.append((delta, pair))
            return bic_score(delta, pair, grad)

        monkeypatch.setattr(model_selection, "bic_score", counting)
        out = tmp_path / "out"
        code = main(
            ["estimate", "--x", str(x_path), "--y", str(y_path),
             "--lambda", "0.05", "--out", str(out)]
        )
        assert code == 0
        assert len(calls) == 1
        record = json.loads((out / "run.json").read_text())
        assert (record["bic_f"], record["bic_inf"]) == bic_score(*calls[0])

    @pytest.mark.parametrize(
        "data, ratio",
        [("smoke-fixed", 0.2), ("sim_data", 0.5), ("sim_data", 0.2), ("sim_data", 0.05)],
    )
    def test_fixed_penalty_is_certified(self, tmp_path, sim_data, data, ratio):
        # converged means certified by the KKT residual at tol * lambda. The
        # first instance is the benchmark's smoke fixed-penalty instance,
        # where a cold ADMM solve stopped on its step test at 9.9e-3 lambda.
        if data == "smoke-fixed":
            truth = generate(SimulationSpec("sim3", 100, 200, 200, 7))
            seeds = np.random.SeedSequence(7).generate_state(2)
            x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
            for f, omega, seed in zip((x_path, y_path), (truth.omega_x, truth.omega_y), seeds):
                np.savetxt(f, sample_gaussian(omega, 200, int(seed)), delimiter=",")
        else:
            _, x_path, y_path = sim_data
        pair = build_pair(read_matrix_csv(x_path), read_matrix_csv(y_path))
        lam = ratio * lambda_max(pair)
        out = tmp_path / "out"
        code = main(["estimate", "--x", str(x_path), "--y", str(y_path),
                     "--lambda", repr(lam), "--out", str(out)])
        assert code == 0
        record = json.loads((out / "run.json").read_text())
        assert record["converged"] is True
        delta = read_matrix_csv(out / "delta.csv")
        assert kkt_check(delta, pair, lam) <= SolverConfig().tol * lam
        # One output layout: path.csv holds the one-point path.
        assert record["no_minimizer_at"] is None
        with open(out / "path.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert float(row["lambda"]) == record["lambda"] == lam
        assert int(row["nnz"]) == record["nnz"]
        assert float(row["bic_f"]) == record["bic_f"]
        assert int(row["predict_iterations"]) > 0

    @pytest.mark.parametrize("env, threads", [({}, None), ({"OMP_NUM_THREADS": "2"}, 2)],
                             ids=["unpinned", "pinned"])
    def test_run_records_blas_threads(self, tmp_path, sim_data, monkeypatch, env, threads):
        # Read as _workers reads it: the first variable set to a positive count.
        for var in cli._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        _, x_path, y_path = sim_data
        out = tmp_path / "out"
        assert main(["estimate", "--x", str(x_path), "--y", str(y_path),
                     "--lambda", "0.1", "--out", str(out)]) == 0
        assert json.loads((out / "run.json").read_text())["blas_threads"] == threads

    def test_zero_penalty_is_the_inverse_difference(self, tmp_path, sim_data):
        # The closed form, certified without an iteration.
        _, x_path, y_path = sim_data
        out = tmp_path / "out"
        assert main(["estimate", "--x", str(x_path), "--y", str(y_path),
                     "--lambda", "0", "--out", str(out)]) == 0
        pair = build_pair(read_matrix_csv(x_path), read_matrix_csv(y_path))
        inverse = np.linalg.inv(pair.sigma_y) - np.linalg.inv(pair.sigma_x)
        delta = read_matrix_csv(out / "delta.csv")
        assert np.linalg.norm(delta - inverse) <= 1e-12 * np.linalg.norm(inverse)
        record = json.loads((out / "run.json").read_text())
        assert record["iterations"] == 0 and record["converged"] is True

    @pytest.mark.parametrize("lam, code", [(None, 0), ("0.05", 2)], ids=["path", "fixed"])
    def test_constant_column_is_named(self, tmp_path, capsys, lam, code):
        # A column constant in one group makes its covariance singular: the
        # path stops at its first penalty below lambda_max, and 0.05 has no
        # minimizer. Both calls name the column before they solve, and
        # exit and write as any singular pair does.
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((200, 30)), rng.standard_normal((200, 30))
        x[:, 29] = 5.0
        for name, data in (("x", x), ("y", y)):
            np.savetxt(tmp_path / f"{name}.csv", data, delimiter=",")
        out = tmp_path / "out"
        argv = ["estimate", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                "--out", str(out)]
        assert main(argv + ([] if lam is None else ["--lambda", lam])) == code
        err = capsys.readouterr().err.splitlines()
        assert err[0] == ("warning: group X is constant in columns 30 (1-based), "
                          "so its covariance is singular")
        if code:
            assert err[1].startswith("error: penalty 0.05 has no minimizer") and len(err) == 2
            assert not out.exists()
        else:
            assert len(err) == 1
            with open(out / "path.csv", newline="") as fh:
                (row,) = list(csv.DictReader(fh))
            assert float(row["lambda"]) == lambda_max(build_pair(x, y))
            assert json.loads((out / "run.json").read_text())["no_minimizer_at"] is not None

    def test_constant_columns_of_each_group_are_named(self, tmp_path, capsys):
        _, y = np.random.default_rng(4).standard_normal((2, 40, 6))
        x = np.tile(np.arange(6.0), (40, 1))
        x[:, [1, 4]] += np.random.default_rng(5).standard_normal((40, 2))
        y[:, 5] = -1.0
        for name, data in (("x", x), ("y", y)):
            np.savetxt(tmp_path / f"{name}.csv", data, delimiter=",")
        main(["estimate", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
              "--out", str(tmp_path / "out")])
        assert capsys.readouterr().err.splitlines()[:2] == [
            "warning: group X is constant in columns 1, 3, 4, 6 (1-based), "
            "so its covariance is singular",
            "warning: group Y is constant in columns 6 (1-based), so its covariance is singular",
        ]

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--tol", "nan", "tol must be positive and finite, got nan"),
            ("--tol", "inf", "tol must be positive and finite, got inf"),
            ("--lambda", "nan", "penalty must be nonnegative, got nan"),
        ],
    )
    def test_nonfinite_flag_exit_code_2(self, tmp_path, sim_data, capsys, flag, value, message):
        _, x_path, y_path = sim_data
        out = tmp_path / "out"
        args = ["estimate", "--x", str(x_path), "--y", str(y_path), "--out", str(out)]
        if flag != "--lambda":
            args += ["--lambda", "0.05"]
        code = main(args + [flag, value])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (out / "run.json").exists()


    @pytest.mark.parametrize(
        "scale", [2.0**-20, 1e-6, 2.0**20, 1e6], ids=["2^-20", "1e-6", "2^20", "1e6"]
    )
    def test_fixed_penalty_is_scale_free(self, tmp_path, scale):
        # Samples times c with the penalty times c^2 give the same
        # iterations and the same support.
        truth = gen_sim1(20)
        x = sample_gaussian(truth.omega_x, 200, 40)
        y = sample_gaussian(truth.omega_y, 200, 41)
        lam = 0.3 * lambda_max(build_pair(x, y))
        runs = []
        for c in (1.0, scale):
            files = [tmp_path / f"{name}{c}.csv" for name in ("x", "y")]
            for f, data in zip(files, (x, y)):
                np.savetxt(f, c * data, delimiter=",")
            out = tmp_path / f"out{c}"
            code = main(["estimate", "--x", str(files[0]), "--y", str(files[1]),
                         "--lambda", repr(c * c * lam), "--out", str(out)])
            assert code == 0
            record = json.loads((out / "run.json").read_text())
            rows = (out / "support.csv").read_text().splitlines()[1:]
            runs.append((record["nnz"], record["iterations"], [r.split(",")[:2] for r in rows]))
        assert runs[1] == runs[0]
        assert runs[0][0] > 0


class TestPath:
    """``estimate`` without ``--lambda``: the penalty path and path.csv."""

    def test_path_csv_columns(self, tmp_path, sim_data):
        _, x_path, y_path = sim_data
        out = tmp_path / "out"
        code = main(
            ["estimate", "--x", str(x_path), "--y", str(y_path),
             "--grid-count", "5", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "path.csv").read_text().strip().splitlines()
        assert lines[0] == "lambda,nnz,bic_f,bic_inf,converged,iterations,kkt,predict_iterations"
        assert len(lines) == 6

    def test_singular_pair_path_stops_at_first_penalty_without_minimizer(
        self, tmp_path, monkeypatch
    ):
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal((6, 12)), rng.standard_normal((6, 12))
        for name, data in (("x", x), ("y", y)):
            np.savetxt(tmp_path / f"{name}.csv", data, delimiter=",")
        calls = []
        monkeypatch.setattr(cli, "bic_score", lambda *args: calls.append(args))
        out = tmp_path / "out"
        code = main(["estimate", "--x", str(tmp_path / "x.csv"), "--y",
                     str(tmp_path / "y.csv"), "--out", str(out)])
        assert code == 0
        with open(out / "path.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        grid = lambda_grid(build_pair(x, y))
        assert 1 < len(rows) < len(grid)
        assert [float(row[0]) for row in rows] == list(grid[: len(rows)])
        record = json.loads((out / "run.json").read_text())
        assert record["no_minimizer_at"] == grid[len(rows)]
        # The selected row's scores, from the path's one scoring per penalty.
        (row,) = [row for row in rows if float(row[0]) == record["lambda"]]
        assert (record["bic_f"], record["bic_inf"]) == (float(row[2]), float(row[3]))
        assert not calls

    def test_nan_tol_exit_code_2(self, tmp_path, sim_data, capsys):
        _, x_path, y_path = sim_data
        out = tmp_path / "out"
        code = main(["estimate", "--x", str(x_path), "--y", str(y_path), "--tol", "nan",
                     "--out", str(out)])
        assert code == 2
        assert "tol must be positive and finite, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_solver_error_exit_code_1(self, tmp_path, sim_data, capsys, monkeypatch):
        def failing(pair, grid, cfg):
            raise SolverError("path solve failed at lambda=0.1: iterates diverged")

        monkeypatch.setattr(cli, "solve_path", failing)
        _, x_path, y_path = sim_data
        code = main(["estimate", "--x", str(x_path), "--y", str(y_path),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: path solve failed at lambda=0.1: iterates diverged\n"
        )

    def test_ragged_csv_exit_code_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,4\n5,6,7\n")
        code = main(["estimate", "--x", str(bad), "--y", str(bad)])
        assert code == 2
        assert "line 3 has 3 fields, expected 2" in capsys.readouterr().err


class TestSimulate:
    def test_invalid_scenario_dimension_exit_code_2(self, tmp_path, capsys):
        code = main(
            ["simulate", "--scenario", "sim2", "--p", "60", "--n", "50",
             "--reps", "1", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "multiple of 50" in capsys.readouterr().err

    @pytest.mark.parametrize("reps", ["0", "-2"])
    def test_nonpositive_reps_exit_code_2_before_writing(self, tmp_path, capsys, reps):
        out = tmp_path / "sim"
        code = main(
            ["simulate", "--scenario", "sim1", "--p", "12", "--n", "60",
             "--reps", reps, "--out", str(out)]
        )
        assert code == 2
        assert f"--reps must be at least 1, got {reps}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--grid-count", "1"], "grid needs at least 2 points, got 1"),
            (["--grid-ratio", "1.5"], "grid ratio must lie in (0, 1), got 1.5"),
        ],
        ids=["count", "ratio"],
    )
    def test_bad_grid_exit_code_2_before_writing(self, tmp_path, capsys, flags, message):
        out = tmp_path / "sim"
        code = main(
            ["simulate", "--scenario", "sim1", "--p", "12", "--n", "60",
             "--reps", "1", "--out", str(out)] + flags
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_summary_rows(self, tmp_path):
        out = tmp_path / "sim"
        code = main(
            ["simulate", "--scenario", "sim1", "--p", "12", "--n", "60",
             "--reps", "3", "--seed", "5", "--grid-count", "5", "--out", str(out)]
        )
        assert code == 0
        with open(out / "replicates.csv", newline="") as fh:
            reps = list(csv.DictReader(fh))
        with open(out / "summary.csv", newline="") as fh:
            summary = list(csv.reader(fh))
        assert summary[0] == ["norm", "metric", "mean_pct", "sd_pct", "formatted"]
        rows = iter(summary[1:])
        for norm, tag in (("frobenius", "f"), ("max", "inf")):
            for metric in ("tp", "tn", "td"):
                values = [float(rep[f"{metric}_{tag}"]) for rep in reps]
                mean = f"{100.0 * float(np.mean(values)):.1f}"
                sd = f"{100.0 * float(np.std(values, ddof=1)):.1f}"
                assert next(rows) == [norm, metric, mean, sd, f"{mean}({sd})"]
        assert next(rows, None) is None

    def test_negative_lambda_exit_code_2(self, tmp_path, capsys):
        f = tmp_path / "d.csv"
        f.write_text("1,0\n0,1\n2,1\n")
        code = main(["estimate", "--x", str(f), "--y", str(f), "--lambda", "-1"])
        assert code == 2

    def test_sim2_scenario_end_to_end(self, tmp_path):
        out = tmp_path / "sim2"
        code = main(
            ["simulate", "--scenario", "sim2", "--p", "50", "--n", "80",
             "--reps", "1", "--seed", "3", "--grid-count", "4", "--out", str(out)]
        )
        assert code == 0
        support = (out / "truth_support.csv").read_text().strip().splitlines()
        assert len(support) > 1

    def test_smoke_and_outputs(self, tmp_path):
        out = tmp_path / "sim"
        code = main(
            ["simulate", "--scenario", "sim1", "--p", "12", "--n", "60",
             "--reps", "2", "--seed", "5", "--grid-count", "6",
             "--save-data", "--out", str(out)]
        )
        assert code == 0
        for name in ("replicates.csv", "summary.csv", "roc.csv", "pr.csv",
                     "truth_delta.csv", "truth_support.csv", "x.csv", "y.csv"):
            assert (out / name).exists(), name
        reps = (out / "replicates.csv").read_text().strip().splitlines()
        assert len(reps) == 3
        curve = (out / "curve_000.csv").read_text().strip().splitlines()
        assert curve[0] == "lambda,tp,fp,precision"
        assert len(curve) == 7

    def test_saved_data_reproduce_replicate_0(self, tmp_path):
        # estimate on the --save-data files selects what replicate 0 reported.
        sim, est = tmp_path / "sim", tmp_path / "est"
        code = main(
            ["simulate", "--scenario", "sim1", "--p", "12", "--n", "60",
             "--reps", "2", "--seed", "5", "--save-data", "--out", str(sim)]
        )
        assert code == 0
        code = main(["estimate", "--x", str(sim / "x.csv"), "--y", str(sim / "y.csv"),
                     "--out", str(est)])
        assert code == 0
        with open(sim / "replicates.csv", newline="") as fh:
            rep0 = next(csv.DictReader(fh))
        record = json.loads((est / "run.json").read_text())
        assert repr(record["lambda"]) == rep0["lambda_f"]
        assert record["nnz"] == int(rep0["nnz_f"])

    def test_single_replicate_has_empty_sd(self, tmp_path):
        out = tmp_path / "sim"
        code = main(
            ["simulate", "--scenario", "sim1", "--p", "12", "--n", "60",
             "--reps", "1", "--seed", "5", "--grid-count", "5", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        sd_col = header.index("sd_pct")
        fmt_col = header.index("formatted")
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[sd_col] == ""
            assert "(" not in fields[fmt_col]

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--scenario", "sim1", "--p", "12", "--n", "50",
                "--reps", "2", "--seed", "9", "--grid-count", "5"]
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("replicates.csv", "summary.csv", "roc.csv", "pr.csv", "curve_000.csv",
                     "truth_omega_x.csv", "truth_omega_y.csv", "truth_delta.csv",
                     "truth_support.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_tables_read_back(self, tmp_path):
        out = tmp_path / "sim"
        code = main(
            ["simulate", "--scenario", "sim1", "--p", "12", "--n", "60",
             "--reps", "3", "--seed", "5", "--grid-count", "6", "--out", str(out)]
        )
        assert code == 0
        with open(out / "replicates.csv", newline="") as fh:
            assert next(csv.reader(fh)) == list(cli.REPLICATE_COLUMNS)
        assert cli.REPLICATE_COLUMNS == (
            "replicate", "lambda_f", "tp_f", "tn_f", "td_f", "nnz_f",
            "lambda_inf", "tp_inf", "tn_inf", "td_inf", "nnz_inf", "auc",
        )
        # roc.csv and pr.csv are the pointwise means of the replicate curves.
        curves = []
        for rep in range(3):
            with open(out / f"curve_{rep:03d}.csv", newline="") as fh:
                curves.append([{key: float(value) for key, value in row.items()}
                               for row in csv.DictReader(fh)])
        n_points = min(len(curve) for curve in curves)
        assert n_points == 6
        for name, columns in (("roc.csv", ("fp", "tp")), ("pr.csv", ("tp", "precision"))):
            with open(out / name, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            assert len(rows) == n_points
            for i, row in enumerate(rows):
                means = [float(np.mean([curve[i][col] for curve in curves])) for col in columns]
                assert [int(row[0])] + [float(value) for value in row[1:]] == [i] + means


class TestEvaluate:
    def test_metrics_json(self, tmp_path):
        truth = gen_sim1(10)
        t_path = tmp_path / "truth.csv"
        np.savetxt(t_path, truth.delta_star, delimiter=",")
        e_path = tmp_path / "est.csv"
        np.savetxt(e_path, truth.delta_star, delimiter=",")
        out = tmp_path / "out"
        code = main(
            ["evaluate", "--delta", str(e_path), "--truth", str(t_path), "--out", str(out)]
        )
        assert code == 0
        record = json.loads((out / "metrics.json").read_text())
        assert record["tp_rate"] == 1.0
        assert record["td_rate"] == 1.0
        assert record["sign_consistent"] is True

    @pytest.mark.parametrize(
        "flag, text, message",
        [
            ("--delta", "0,nan\n0,0\n", "estimate contains non-finite entries"),
            ("--truth", "0,1\ninf,0\n", "truth contains non-finite entries"),
            ("--delta", "0,1,0\n0,0,0\n", "estimate must be square, got shape (2, 3)"),
        ],
    )
    def test_invalid_matrix_exit_code_2(self, tmp_path, capsys, flag, text, message):
        good = tmp_path / "good.csv"
        good.write_text("0,1\n1,0\n")
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        files = {"--delta": good, "--truth": good, flag: bad}
        out = tmp_path / "out"
        code = main(
            ["evaluate", "--delta", str(files["--delta"]), "--truth", str(files["--truth"]),
             "--out", str(out)]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (out / "metrics.json").exists()


class TestDiagnose:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,nan\nnan,1\n", "--y contains non-finite entries"),
            ("1,2\n2,1\n", "--y is not positive definite"),
            ("1,0\n0,0\n", "--y is not positive definite"),
            ("1,0,0\n0,1,0\n", "--y must be square, got shape (2, 3)"),
        ],
    )
    def test_invalid_precision_exit_code_2(self, tmp_path, capsys, text, message):
        x_path = tmp_path / "ox.csv"
        np.savetxt(x_path, np.eye(2), delimiter=",")
        y_path = tmp_path / "oy.csv"
        y_path.write_text(text)
        out = tmp_path / "out"
        code = main(["diagnose", "--x", str(x_path), "--y", str(y_path), "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (out / "diagnose.json").exists()

    def test_shape_mismatch_exit_code_2(self, tmp_path, capsys):
        x_path = tmp_path / "ox.csv"
        np.savetxt(x_path, np.eye(2), delimiter=",")
        y_path = tmp_path / "oy.csv"
        np.savetxt(y_path, np.eye(3), delimiter=",")
        code = main(["diagnose", "--x", str(x_path), "--y", str(y_path)])
        assert code == 2
        assert "share one square shape" in capsys.readouterr().err

    def test_identity_pair(self, tmp_path, capsys):
        x_path = tmp_path / "ox.csv"
        y_path = tmp_path / "oy.csv"
        np.savetxt(x_path, np.eye(4), delimiter=",")
        oy = np.eye(4)
        oy[0, 1] = oy[1, 0] = 0.2
        np.savetxt(y_path, oy, delimiter=",")
        out = tmp_path / "out"
        code = main(["diagnose", "--x", str(x_path), "--y", str(y_path), "--out", str(out)])
        assert code == 0
        record = json.loads((out / "diagnose.json").read_text())
        assert record["condition_holds"] is True

    def test_p41_identity_pair(self, tmp_path):
        x_path = tmp_path / "ox.csv"
        np.savetxt(x_path, np.eye(41), delimiter=",")
        support = tmp_path / "support.csv"
        support.write_text("1,2\n")
        out = tmp_path / "out"
        code = main(
            ["diagnose", "--x", str(x_path), "--y", str(x_path),
             "--support", str(support), "--out", str(out)]
        )
        assert code == 0
        record = json.loads((out / "diagnose.json").read_text())
        assert (record["alpha"], record["kappa"]) == (1.0, 1.0)

    def test_sim1_p100_truth(self, tmp_path):
        # Criterion 6's population pair: the condition holds, so the support
        # is recoverable there.
        truth = gen_sim1(100)
        x_path = tmp_path / "ox.csv"
        y_path = tmp_path / "oy.csv"
        np.savetxt(x_path, truth.omega_x, delimiter=",", fmt="%.17g")
        np.savetxt(y_path, truth.omega_y, delimiter=",", fmt="%.17g")
        out = tmp_path / "out"
        assert main(["diagnose", "--x", str(x_path), "--y", str(y_path), "--out", str(out)]) == 0
        record = json.loads((out / "diagnose.json").read_text())
        assert record["alpha"] == pytest.approx(0.290397, abs=1e-6)
        assert record["kappa"] == pytest.approx(8.154590, abs=1e-6)

    def test_support_limit_has_one_text(self, tmp_path, capsys):
        # Every entry of the difference is nonzero: the default support is
        # all 41^2 = 1681 entries.
        p = 41
        with pytest.raises(ValueError) as err:
            irrepresentability_alpha(
                np.eye(p), np.eye(p), {(i, j) for i in range(p) for j in range(p)}
            )
        x_path = tmp_path / "ox.csv"
        y_path = tmp_path / "oy.csv"
        np.savetxt(x_path, np.eye(p), delimiter=",")
        np.savetxt(y_path, np.eye(p) + 0.01, delimiter=",")
        assert main(["diagnose", "--x", str(x_path), "--y", str(y_path)]) == 2
        assert capsys.readouterr().err == f"error: {err.value}\n"

    def test_explicit_support_file(self, tmp_path):
        truth = gen_sim1(8)
        x_path = tmp_path / "ox.csv"
        y_path = tmp_path / "oy.csv"
        np.savetxt(x_path, truth.omega_x, delimiter=",")
        np.savetxt(y_path, truth.omega_y, delimiter=",")
        support = tmp_path / "support.csv"
        rows = ["i,j,value"] + [
            f"{i + 1},{j + 1},{truth.delta_star[i, j]}" for i, j in sorted(truth.support)
        ]
        support.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        code = main(
            ["diagnose", "--x", str(x_path), "--y", str(y_path),
             "--support", str(support), "--out", str(out)]
        )
        assert code == 0


class ReaderFailure(Exception):
    """Raised by a monkeypatched reader; module level, so that it pickles."""


def _no_child_left():
    # waitpid(-1) raises once this process has no child, running or zombie.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestConcurrentRead:
    """estimate parses --y in a forked child while it parses --x."""

    def test_pair_is_bitwise_the_serial_pair(self, sim_data, monkeypatch):
        _, x_path, y_path = sim_data
        forks, reads = [], []
        fork, read = os.fork, cli.read_matrix_csv

        def counting_fork():
            forks.append(os.getpid())
            return fork()

        def recording_read(path, allow_header=False):
            reads.append(path)  # the child's calls stay in the child's memory
            return read(path, allow_header)

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(cli, "read_matrix_csv", recording_read)
        args = cli.build_parser().parse_args(["estimate", "--x", str(x_path), "--y", str(y_path)])
        pair, _ = cli._load_pair(args)
        assert forks == [os.getpid()]
        assert reads == [str(x_path)]
        expected = build_pair(read(x_path, allow_header=True), read(y_path, allow_header=True))
        for field in dataclasses.fields(pair):
            got, want = getattr(pair, field.name), getattr(expected, field.name)
            if isinstance(want, np.ndarray):
                assert (got.dtype, got.shape, got.tobytes()) == (
                    want.dtype, want.shape, want.tobytes())
            else:
                assert got == want
        _no_child_left()

    @pytest.mark.parametrize("case", ["ok", "x-bad", "y-bad", "both-bad", "solve-refused"])
    def test_no_child_left_after_main(self, tmp_path, sim_data, case):
        _, x_path, y_path = sim_data
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3\n")
        x = bad if case in ("x-bad", "both-bad") else x_path
        y = bad if case in ("y-bad", "both-bad") else y_path
        lam = "nan" if case == "solve-refused" else "0.05"
        code = main(["estimate", "--x", str(x), "--y", str(y), "--lambda", lam,
                     "--out", str(tmp_path / "out")])
        assert code == (0 if case == "ok" else 2)
        _no_child_left()

    @pytest.mark.parametrize("failure", ["raises", "dies"])
    def test_child_failure_surfaces_in_parent(self, tmp_path, sim_data, monkeypatch, failure):
        _, x_path, y_path = sim_data
        parent, read = os.getpid(), cli.read_matrix_csv

        def failing_in_child(path, allow_header=False):
            if os.getpid() != parent:
                if failure == "dies":
                    os._exit(1)
                raise ReaderFailure(f"child cannot read {path}")
            return read(path, allow_header)

        monkeypatch.setattr(cli, "read_matrix_csv", failing_in_child)
        with pytest.raises(Exception) as err:
            main(["estimate", "--x", str(x_path), "--y", str(y_path), "--lambda", "0.05",
                  "--out", str(tmp_path / "out")])
        if failure == "raises":
            assert type(err.value) is ReaderFailure
            assert str(err.value) == f"child cannot read {y_path}"
        else:
            assert type(err.value) is RuntimeError
            assert str(err.value) == f"the process reading {y_path} ended without a result"
        _no_child_left()

    def test_interrupted_parent_reaps_child(self, tmp_path, sim_data, monkeypatch):
        _, x_path, y_path = sim_data
        parent, read = os.getpid(), cli.read_matrix_csv

        def interrupted_in_parent(path, allow_header=False):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return read(path, allow_header)

        monkeypatch.setattr(cli, "read_matrix_csv", interrupted_in_parent)
        with pytest.raises(KeyboardInterrupt):
            main(["estimate", "--x", str(x_path), "--y", str(y_path), "--lambda", "0.05",
                  "--out", str(tmp_path / "out")])
        _no_child_left()

    def test_serial_read_without_fork(self, tmp_path, sim_data, monkeypatch):
        _, x_path, y_path = sim_data
        runs = []
        for has_fork in (True, False):
            if not has_fork:
                monkeypatch.delattr(os, "fork")
            out = tmp_path / f"out-{has_fork}"
            code = main(["estimate", "--x", str(x_path), "--y", str(y_path),
                         "--grid-count", "8", "--out", str(out)])
            assert code == 0
            record = json.loads((out / "run.json").read_text())
            del record["wallclock_ms"]
            files = [(out / name).read_bytes() for name in ("delta.csv", "support.csv", "path.csv")]
            runs.append((files, record))
        assert runs[1] == runs[0]


def _tree(root):
    """Every path below root, with the bytes of each file."""
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


def _refuse_to_load():
    raise TypeError("this result cannot be loaded")


class Unloadable:
    """Pickles, but raises when unpickled."""

    def __reduce__(self):
        return _refuse_to_load, ()


class TestForkHelper:
    def test_error_that_does_not_pickle_arrives_as_runtime_error(self):
        class LocalError(Exception):
            """Local to this test, so pickle cannot find it by name."""

        def raising():
            raise LocalError("no way back")

        child = cli.fork(raising)
        try:
            with pytest.raises(RuntimeError) as err:
                cli.receive(child, "raising")
        finally:
            cli.reap([child])
        assert str(err.value) == "LocalError: no way back"
        _no_child_left()

    def test_result_that_does_not_unpickle_names_the_work(self):
        child = cli.fork(Unloadable)
        try:
            with pytest.raises(RuntimeError) as err:
                cli.receive(child, "loading")
        finally:
            cli.reap([child])
        assert str(err.value) == "the process loading ended without a result"
        assert isinstance(err.value.__cause__, TypeError)
        _no_child_left()


class TestRunSplit:
    """_run_split: the one process map behind estimate's two reads and
    simulate's replicates."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_come_back_in_item_order(self, workers):
        parent = os.getpid()
        got = cli._run_split(lambda item: (item, os.getpid() == parent), list(range(5)),
                             workers, str)
        # This process runs items 0, W, 2W, ...; the forked workers the rest.
        assert got == [(item, item % workers == 0) for item in range(5)]
        _no_child_left()

    @pytest.mark.parametrize(
        "workers, failing, lowest",
        [(2, {1, 2}, 1), (2, {2, 3}, 2), (3, {2, 4}, 2), (3, {3, 4}, 3), (1, {3, 1}, 1)],
        ids=["child-first", "parent-first", "two-children", "parent-and-child", "serial"],
    )
    def test_lowest_indexed_error_wins(self, workers, failing, lowest):
        def run(item):
            if item in failing:
                raise ReaderFailure(f"item {item}")
            return item

        with pytest.raises(ReaderFailure) as err:
            cli._run_split(run, list(range(5)), workers, str)
        assert str(err.value) == f"item {lowest}"
        _no_child_left()

    def test_dead_worker_is_named_by_its_items(self):
        parent = os.getpid()

        def dying_in_child(item):
            if os.getpid() != parent:
                os._exit(1)
            return item

        with pytest.raises(RuntimeError) as err:
            cli._run_split(dying_in_child, list(range(5)), 3, lambda share: f"running {share}")
        # Worker 1, the first received, runs items 1 and 4.
        assert str(err.value) == "the process running [1, 4] ended without a result"
        _no_child_left()

    @pytest.mark.parametrize("has_fork", [True, False])
    def test_both_files_bad_names_x(self, tmp_path, capsys, monkeypatch, has_fork):
        if not has_fork:
            monkeypatch.delattr(os, "fork")
        bad_x, bad_y = tmp_path / "bad_x.csv", tmp_path / "bad_y.csv"
        bad_x.write_text("1,2\n3\n")
        bad_y.write_text("1,2\nz,4\n")
        code = main(["estimate", "--x", str(bad_x), "--y", str(bad_y), "--lambda", "0.05",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {bad_x}: line 2 has 1 fields, expected 2\n"
        _no_child_left()


def _sim(reps, out, *extra):
    return ["simulate", "--scenario", "sim1", "--p", "12", "--n", "60", "--reps", str(reps),
            "--seed", "5", "--grid-count", "5", "--out", str(out), *extra]


@pytest.fixture
def cpus(monkeypatch):
    """A function that sets the usable CPUs to ``n``, with BLAS pinned to
    one thread, and returns the list of the pids that call os.fork."""
    for var in cli._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    forks, fork = [], os.fork

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        return forks

    return set_cpus


class TestReplicateSplit:
    """simulate splits its replicates over forked worker processes."""

    @pytest.mark.parametrize("n_cpus", [1, 2, 4])
    @pytest.mark.parametrize("reps", [1, 2, 3, 5])
    def test_outputs_are_those_of_the_serial_loop(self, tmp_path, monkeypatch, cpus,
                                                  reps, n_cpus):
        forks = cpus(n_cpus)
        assert main(_sim(reps, tmp_path / "split", "--save-data")) == 0
        assert forks == [os.getpid()] * (min(reps, n_cpus) - 1)
        _no_child_left()
        monkeypatch.delattr(os, "fork")
        assert main(_sim(reps, tmp_path / "serial", "--save-data")) == 0
        split, serial = _tree(tmp_path / "split"), _tree(tmp_path / "serial")
        assert {path.name: data for path, data in split.items()} == {
            path.name: data for path, data in serial.items()}

    @pytest.mark.parametrize(
        "env, n_cpus, workers",
        [
            ({}, 4, 1),
            ({"OPENBLAS_NUM_THREADS": "2"}, 4, 2),
            ({"OPENBLAS_NUM_THREADS": "3"}, 8, 2),
            ({"OPENBLAS_NUM_THREADS": "8"}, 4, 1),
            ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 4, 4),
            ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "4,2",
              "MKL_NUM_THREADS": "2"}, 4, 2),
            ({"OMP_NUM_THREADS": "-1"}, 4, 1),
            ({"MKL_NUM_THREADS": "1"}, 16, 5),
        ],
        ids=["unpinned", "openblas-2", "remainder", "more-threads-than-cpus",
             "zero-skipped", "invalid-skipped", "negative", "capped-at-reps"],
    )
    def test_worker_count(self, monkeypatch, cpus, env, n_cpus, workers):
        cpus(n_cpus)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert cli._workers(5) == workers

    def test_cpu_count_without_affinity(self, monkeypatch, cpus):
        cpus(1)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cli._workers(5) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._workers(5) == 1

    def test_no_fork_when_blas_threads_unpinned(self, tmp_path, monkeypatch, cpus):
        forks = cpus(4)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        assert main(_sim(3, tmp_path / "out")) == 0
        assert forks == []

    @pytest.mark.parametrize(
        "env, n_cpus", [({}, 2), ({"OPENBLAS_NUM_THREADS": "2"}, 4)],
        ids=["blas-unset", "blas-two-threads"],
    )
    def test_fresh_interpreter_completes(self, tmp_path, env, n_cpus):
        # Guards against a hang of a BLAS thread pool after fork: the CLI
        # runs in a new process whose BLAS reads the variables at start.
        src = Path(cli.__file__).resolve().parents[1]
        child_env = {k: v for k, v in os.environ.items() if k not in cli._BLAS_THREAD_VARS}
        child_env.update(env, PYTHONPATH=str(src))
        code = ("import os, sys; from difftrace import cli; "
                f"os.sched_getaffinity = lambda pid: set(range({n_cpus})); "
                "sys.exit(cli.main(sys.argv[1:]))")
        proc = subprocess.run([sys.executable, "-c", code, *_sim(3, tmp_path / "out")],
                              env=child_env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert len((tmp_path / "out" / "replicates.csv").read_text().splitlines()) == 4


class TestReplicateFailure:
    """A failing replicate ends simulate as it ends the serial loop."""

    @pytest.mark.parametrize(
        "failing, error, code",
        [
            ({1}, "solver", 1),
            ({2}, "solver", 1),
            ({1, 2}, "solver", 1),
            ({2, 3}, "solver", 1),
            ({3}, "no-minimizer", 2),
        ],
        ids=["child", "parent", "both-child-first", "both-parent-first",
             "no-minimizer-in-child"],
    )
    def test_lowest_failing_replicate_is_reported(self, tmp_path, monkeypatch, capsys, cpus,
                                                  failing, error, code):
        forks = cpus(2)  # the parent runs replicates 0 and 2, the child 1 and 3
        run = cli._simulate_replicate

        def refusal(rep):
            if error == "solver":
                return SolverError(f"replicate {rep} failed")
            return NoMinimizerError(0.5 + rep, 0.75, np.eye(2), rep)

        def failing_replicate(spec, truth, rep, cfg, args):
            if rep in failing:
                raise refusal(rep)
            return run(spec, truth, rep, cfg, args)

        monkeypatch.setattr(cli, "_simulate_replicate", failing_replicate)
        outcomes = []
        for has_fork in (True, False):
            if not has_fork:
                monkeypatch.delattr(os, "fork")
            got = main(_sim(4, tmp_path / f"out-{has_fork}"))
            outcomes.append((got, capsys.readouterr().err))
        assert forks == [os.getpid()]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] == (code, f"error: {refusal(min(failing))}\n")
        _no_child_left()

    def test_child_that_dies_is_a_runtime_error(self, tmp_path, monkeypatch, cpus):
        cpus(2)
        parent, run = os.getpid(), cli._simulate_replicate

        def dying_in_child(spec, truth, rep, cfg, args):
            if os.getpid() != parent:
                os._exit(1)
            return run(spec, truth, rep, cfg, args)

        monkeypatch.setattr(cli, "_simulate_replicate", dying_in_child)
        with pytest.raises(RuntimeError) as err:
            main(_sim(4, tmp_path / "out"))
        assert str(err.value) == "the process running replicates [1, 3] ended without a result"
        _no_child_left()

    def test_error_that_does_not_pickle_is_named(self, tmp_path, monkeypatch, cpus):
        cpus(2)

        class LocalError(Exception):
            """Local to this test, so pickle cannot find it by name."""

        def failing_replicate(spec, truth, rep, cfg, args):
            raise LocalError(f"replicate {rep} failed")

        monkeypatch.setattr(cli, "_simulate_replicate", failing_replicate)
        with pytest.raises(RuntimeError) as err:
            main(_sim(2, tmp_path / "out"))
        assert str(err.value) == "LocalError: replicate 0 failed"
        _no_child_left()

    def test_interrupted_parent_reaps_every_child(self, tmp_path, monkeypatch, cpus):
        forks = cpus(4)
        parent = os.getpid()

        def interrupted_in_parent(spec, truth, rep, cfg, args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(30)  # a result the parent no longer waits for

        monkeypatch.setattr(cli, "_simulate_replicate", interrupted_in_parent)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main(_sim(5, tmp_path / "out"))
        assert time.monotonic() - start < 15
        assert forks == [os.getpid()] * 3
        _no_child_left()


SIM1 = ["simulate", "--scenario", "sim1", "--p", "12", "--n", "60", "--reps", "1"]


class TestRefusedInput:
    # Placeholders in braces name the files the test writes before the run.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (SIM1 + ["--seed", "-1", "--out", "{out}"], "seed must be nonnegative, got -1"),
            (["simulate", "--scenario", "sim2", "--p", "50", "--n", "60", "--reps", "1",
              "--seed", "-5", "--out", "{out}"],
             "seed must be nonnegative, got -5"),
            (["simulate", "--scenario", "sim2", "--p", "0", "--n", "60", "--out", "{out}"],
             "sim2 needs p to be a positive multiple of 50, got 0"),
            (["simulate", "--scenario", "sim1", "--p", "4", "--n", "60", "--out", "{out}"],
             "sim1 needs p >= 8, got 4"),
            (["diagnose", "--x", "{eye41}", "--y", "{dense41}", "--out", "{out}"],
             "support has 1681 entries, above the diagnostic limit of 1600: the check "
             "inverts a dense |S| x |S| block"),
            (["estimate", "--x", "{x}", "--y", "{y}", "--lambda", "inf", "--out", "{out}"],
             "penalty must be finite, got inf"),
            (["estimate", "--x", "{x}", "--y", "{y}", "--lambda", "0.05", "--out", "{file}"],
             "cannot create output directory {file}: File exists"),
            (["estimate", "--x", "{x}", "--y", "{y}", "--out", "{file}/sub"],
             "cannot create output directory {file}/sub: Not a directory"),
            (SIM1 + ["--out", "{file}"], "cannot create output directory {file}: File exists"),
            (SIM1 + ["--out", "{file}/sub"],
             "cannot create output directory {file}/sub: Not a directory"),
            (["evaluate", "--delta", "{eye41}", "--truth", "{eye41}", "--out", "{file}"],
             "cannot create output directory {file}: File exists"),
            (["diagnose", "--x", "{eye4}", "--y", "{band4}", "--out", "{file}"],
             "cannot create output directory {file}: File exists"),
            (["estimate", "--x", "{x}", "--y", "{x}", "--out", "{out}"],
             "groups indistinguishable: lambda_max is zero"),
            (["estimate", "--x", "{x}", "--y", "{y}", "--grid-count", "1", "--out", "{out}"],
             "grid needs at least 2 points, got 1"),
            (["estimate", "--x", "{wide_x}", "--y", "{wide_y}", "--lambda", "0",
              "--out", "{out}"],
             "penalty 0 needs nonsingular sigma_x, sigma_y: ranks (5, 5), p=12"),
            (["estimate", "--x", "{wide_x}", "--y", "{wide_y}", "--lambda", "0.3",
              "--out", "{out}"],
             "penalty 0.3 has no minimizer: the loss falls by 0.610569 per unit l1 "
             "along a direction its quadratic term does not see"),
            (["estimate", "--x", "{latin1}", "--y", "{y}", "--lambda", "0.05",
              "--out", "{out}"],
             "{latin1}: line 2 is not UTF-8 text"),
            (["diagnose", "--x", "{eye4}", "--y", "{band4}", "--support", "{latin1}",
              "--out", "{out}"],
             "{latin1}: line 2 is not UTF-8 text"),
            (["estimate", "--x", "{latin1}", "--y", "{ragged}", "--lambda", "0.05",
              "--out", "{out}"],
             "{latin1}: line 2 is not UTF-8 text"),
            (["estimate", "--x", "{ragged}", "--y", "{latin1}", "--lambda", "0.05",
              "--out", "{out}"],
             "{ragged}: line 2 has 1 fields, expected 2"),
            (["estimate", "--x", "{x}", "--y", "{ragged}", "--lambda", "0.05",
              "--out", "{out}"],
             "{ragged}: line 2 has 1 fields, expected 2"),
        ],
        ids=[
            "sim1-negative-seed", "sim2-negative-seed", "sim2-dimension", "sim1-dimension",
            "diagnose-support-limit", "estimate-infinite-penalty", "estimate-out-file",
            "estimate-out-below-file",
            "simulate-out-file", "simulate-out-below-file", "evaluate-out-file",
            "diagnose-out-file", "estimate-same-file-twice", "estimate-grid-count",
            "estimate-zero-penalty-singular", "estimate-penalty-without-minimizer",
            "estimate-not-utf8", "diagnose-support-not-utf8", "estimate-both-bad",
            "estimate-both-bad-swapped", "estimate-y-bad",
        ],
    )
    def test_exit_code_2_without_output(self, tmp_path, sim_data, capsys, argv, message):
        _, x_path, y_path = sim_data
        names = {name: tmp_path / f"{name}.csv" for name in ("eye41", "eye4", "band4")}
        np.savetxt(names["eye41"], np.eye(41), delimiter=",")
        np.savetxt(names["eye4"], np.eye(4), delimiter=",")
        names["dense41"] = tmp_path / "dense41.csv"
        np.savetxt(names["dense41"], np.eye(41) + 0.01, delimiter=",")
        np.savetxt(names["band4"], np.eye(4) + 0.2 * np.eye(4, k=1) + 0.2 * np.eye(4, k=-1),
                   delimiter=",")
        rng = np.random.default_rng(8)
        for name in ("wide_x", "wide_y"):
            names[name] = tmp_path / f"{name}.csv"
            np.savetxt(names[name], rng.standard_normal((6, 12)), delimiter=",")
        names.update(out=tmp_path / "out", file=tmp_path / "file.txt", x=x_path, y=y_path,
                     latin1=tmp_path / "latin1.csv", ragged=tmp_path / "ragged.csv")
        names["file"].write_text("kept\n")
        names["latin1"].write_bytes(b"1,2\n3,\xff4\n")
        names["ragged"].write_text("1,2\n3\n")
        before = _tree(tmp_path)
        code = main([arg.format(**names) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {message.format(**names)}\n"
        assert captured.out == ""
        assert _tree(tmp_path) == before


class TestDataScale:
    """Data in units whose squares float64 cannot hold are refused, and the
    float32 predictor warns of nothing."""

    @staticmethod
    def _files(tmp_path, c):
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((40, 10)), 1.3 * rng.standard_normal((40, 10))
        files = [tmp_path / f"{name}.csv" for name in ("x", "y")]
        for f, data in zip(files, (x, y)):
            np.savetxt(f, c * data, delimiter=",", fmt="%.17g")
        return ["--x", str(files[0]), "--y", str(files[1])]

    @pytest.mark.parametrize("fixed", [False, True], ids=["path", "fixed-penalty"])
    @pytest.mark.parametrize("c, top", [(1e-100, "1.81e-200"), (1e100, "1.81e+200")],
                             ids=["1e-100", "1e100"])
    def test_extreme_scale_exit_code_2(self, tmp_path, capsys, c, top, fixed):
        out = tmp_path / "out"
        penalty = ["--lambda", repr(0.1 * c * c)] if fixed else []
        code = main(["estimate", *self._files(tmp_path, c), *penalty, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: sigma_x has largest eigenvalue {top}, outside the solvable scale "
            "[1e-50, 1e+50]: rescale the data\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--scenario", "sim2", "--p", "50", "--n", "25", "--reps", "2"],
        ["estimate"],
    ], ids=["simulate-n-below-p", "estimate"])
    def test_no_runtime_warning(self, tmp_path, argv):
        # Under -W error an overflow, an invalid value or a division by zero
        # raises, and the run fails.
        if argv == ["estimate"]:
            argv = argv + self._files(tmp_path, 1.0)
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "difftrace.cli", *argv,
             "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
