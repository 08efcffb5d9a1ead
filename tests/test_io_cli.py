import json
import struct

import numpy as np
import pytest

from hjacobi._accel import NUMBA_ENABLED
from hjacobi.bench import BenchGrid
from hjacobi.cli import main
from hjacobi.matio import (
    MatrixFormatError,
    read_matrix,
    read_signs,
    write_matrix,
    write_signs,
)
from hjacobi.solve import SolveOptions


# -- matrix I/O -------------------------------------------------------------

def test_roundtrip_complex_bitwise(tmp_path, rng):
    M = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    path = tmp_path / "m.bin"
    write_matrix(path, M)
    back = read_matrix(path)
    assert back.dtype == np.complex128 and np.array_equal(back, M)


def test_roundtrip_real(tmp_path, rng):
    M = rng.standard_normal((4, 9))
    path = tmp_path / "m.bin"
    write_matrix(path, M)
    back = read_matrix(path)
    assert back.dtype == np.float64 and np.array_equal(back, M)


def test_roundtrip_empty(tmp_path):
    path = tmp_path / "empty.bin"
    write_matrix(path, np.zeros((0, 0)))
    back = read_matrix(path)
    assert back.shape == (0, 0)


def test_wrong_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(MatrixFormatError):
        read_matrix(path)


def test_truncated_payload(tmp_path, rng):
    path = tmp_path / "m.bin"
    write_matrix(path, rng.standard_normal((6, 6)))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(MatrixFormatError):
        read_matrix(path)


def test_trailing_bytes(tmp_path, rng):
    path = tmp_path / "m.bin"
    write_matrix(path, rng.standard_normal((6, 6)))
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(MatrixFormatError, match="trailing bytes"):
        read_matrix(path)


def test_unknown_version(tmp_path, rng):
    path = tmp_path / "m.bin"
    write_matrix(path, rng.standard_normal((2, 2)))
    data = bytearray(path.read_bytes())
    data[4] = 9
    path.write_bytes(bytes(data))
    with pytest.raises(MatrixFormatError):
        read_matrix(path)


@pytest.mark.parametrize("dim", [2**25, 2**31])  # an 8 PB payload; one whose size overflows
def test_oversized_header_is_input_error(tmp_path, capsys, dim):
    """A header claiming more payload than the file holds is rejected before
    anything is read or allocated: exit 3 with a MatrixFormatError record."""
    path = tmp_path / "huge.bin"
    path.write_bytes(struct.pack("<4sIIQQ", b"HJAC", 1, 0, dim, dim) + bytes(64))
    with pytest.raises(MatrixFormatError, match="truncated payload"):
        read_matrix(path)
    assert main(["solve", "--in", str(path)]) == 3
    rec = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert (rec["error"], rec["exit_code"]) == ("MatrixFormatError", 3)


def test_text_roundtrip(tmp_path, rng):
    M = rng.standard_normal((3, 4))
    path = tmp_path / "m.txt"
    write_matrix(path, M, text=True)
    back = read_matrix(path)
    assert np.array_equal(back, M)


def test_text_complex_roundtrip(tmp_path, rng):
    M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    path = tmp_path / "m.txt"
    write_matrix(path, M, text=True)
    assert np.array_equal(read_matrix(path), M)


def test_signs_roundtrip(tmp_path):
    path = tmp_path / "j.txt"
    write_signs(path, np.array([1, -1, 1], np.int8))
    assert np.array_equal(read_signs(path), [1, -1, 1])


# -- CLI --------------------------------------------------------------------

def test_gen_and_solve_roundtrip(tmp_path, capsys):
    h = tmp_path / "h.bin"
    assert main(["gen", "--n", "24", "--eigs", "log:0.01:1", "--neg", "0.4",
                 "--seed", "11", "--out", str(h)]) == 0
    ev = tmp_path / "ev.txt"
    summ = tmp_path / "s.jsonl"
    code = main(["solve", "--in", str(h), "--variant", "seqF",
                 "--eval-out", str(ev), "--summary", str(summ)])
    assert code == 0
    lam = np.loadtxt(ev)
    H = read_matrix(h)
    ref = np.sort(np.linalg.eigvalsh(H))[::-1]
    assert np.all(np.abs(lam - ref) <= 1e-10 * np.abs(ref))
    rec = json.loads(summ.read_text().strip())
    assert rec["converged"] and "residual" in rec and "orthogonality" in rec
    assert "scaled_condition" in rec and rec["sweeps"] >= 1
    assert rec["kernel"] == ("numba" if NUMBA_ENABLED else "interpreted")


def test_solve_explicit_spectrum(tmp_path):
    vals = ",".join(str(v) for v in range(1, 65))
    h = tmp_path / "h.bin"
    main(["gen", "--n", "64", "--eigs", vals, "--out", str(h)])
    ev = tmp_path / "ev.txt"
    assert main(["solve", "--in", str(h), "--variant", "2F", "--p", "2",
                 "--eval-out", str(ev), "--summary", str(tmp_path / "s")]) == 0
    lam = np.sort(np.loadtxt(ev))
    ref = np.arange(1.0, 65.0)
    assert np.max(np.abs(lam - ref) / ref) <= 1e-10


def test_solve_diagonal_trivial(tmp_path):
    h = tmp_path / "h.txt"
    write_matrix(h, np.diag([4.0, -9.0]), text=True)
    ev = tmp_path / "ev.txt"
    uv = tmp_path / "u.bin"
    assert main(["solve", "--in", str(h), "--variant", "seq",
                 "--eval-out", str(ev), "--evec-out", str(uv),
                 "--summary", str(tmp_path / "s")]) == 0
    lam = np.loadtxt(ev)
    assert np.allclose(lam, [4.0, -9.0])
    U = read_matrix(uv)
    assert np.allclose(np.abs(U), np.eye(2))


def test_solve_factor_input(tmp_path, rng):
    G = rng.standard_normal((5, 5))
    while np.linalg.matrix_rank(G) < 5:
        G = rng.standard_normal((5, 5))
    J = np.array([1, 1, -1, 1, -1], np.int8)
    gp, jp = tmp_path / "g.bin", tmp_path / "j.txt"
    write_matrix(gp, G)
    write_signs(jp, J)
    ev = tmp_path / "ev.txt"
    assert main(["solve", "--factor-in", str(gp), str(jp),
                 "--eval-out", str(ev), "--summary", str(tmp_path / "s")]) == 0
    lam = np.sort(np.loadtxt(ev))
    ref = np.sort(np.linalg.eigvalsh(G @ np.diag(J.astype(float)) @ G.T))
    assert np.all(np.abs(lam - ref) <= 1e-10 * np.abs(ref))


@pytest.mark.parametrize("case", ["nan_factor", "sign_two", "sign_wide", "sign_length"])
def test_solve_bad_factor_is_input_error(tmp_path, capsys, rng, case):
    G = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    J = [1, -1, 1, -1]
    if case == "nan_factor":
        G[2, 1] = np.nan
    elif case == "sign_two":
        J[1] = 2
    elif case == "sign_wide":
        J[1] = 300  # outside int8
    else:
        J = J[:3]
    gp, jp = tmp_path / "g.bin", tmp_path / "j.txt"
    write_matrix(gp, G)
    jp.write_text(" ".join(str(v) for v in J) + "\n")
    code = main(["solve", "--factor-in", str(gp), str(jp),
                 "--summary", str(tmp_path / "s")])
    assert code == 3
    rec = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert rec["error"] == "ValueError" and rec["exit_code"] == 3


def test_solve_usage_error(tmp_path):
    assert main(["solve", "--summary", str(tmp_path / "s")]) == 2


def test_solve_missing_file(tmp_path):
    assert main(["solve", "--in", str(tmp_path / "nope.bin"),
                 "--summary", str(tmp_path / "s")]) == 3


def test_solve_numerical_error(tmp_path):
    h = tmp_path / "h.txt"
    write_matrix(h, np.zeros((3, 3)), text=True)  # singular
    assert main(["solve", "--in", str(h),
                 "--summary", str(tmp_path / "s")]) == 4


@pytest.mark.parametrize("option,value", [("--max-sweeps", "0"), ("--tol", "-1"),
                                          ("--tol", "nan"), ("--tol", "inf"),
                                          ("--tol", "1"), ("--p", "0"),
                                          ("--inner-nt", "0"), ("--nt-outer", "0")])
def test_solve_out_of_range_option(tmp_path, capsys, option, value):
    h = tmp_path / "h.txt"
    write_matrix(h, np.diag([4.0, -9.0]), text=True)
    code = main(["solve", "--in", str(h), option, value,
                 "--summary", str(tmp_path / "s")])
    assert code == 3
    rec = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert rec["error"] == "ValueError" and rec["exit_code"] == 3


@pytest.mark.parametrize("variant", ["seq", "seqF", "seqB"])
def test_solve_empty_matrix(tmp_path, capsys, variant):
    h = tmp_path / "e.txt"
    h.write_text("0 0\n")
    summ = tmp_path / "s.jsonl"
    assert main(["solve", "--in", str(h), "--variant", variant, "--summary", str(summ)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == ""
    rec = json.loads(summ.read_text())
    assert rec["n"] == 0 and rec["converged"] and rec["scaled_condition"] == 1.0
    assert rec["sweeps"] == 1 and rec["rotations"] == 0


def test_solve_nonconvergence_exit(tmp_path):
    h = tmp_path / "h.bin"
    main(["gen", "--n", "32", "--eigs", "log:0.01:1", "--seed", "5",
          "--out", str(h)])
    ev = tmp_path / "ev.txt"
    code = main(["solve", "--in", str(h), "--max-sweeps", "1",
                 "--eval-out", str(ev), "--summary", str(tmp_path / "s")])
    assert code == 5
    assert ev.exists()  # data still written


def test_solve_determinism(tmp_path):
    h = tmp_path / "h.bin"
    main(["gen", "--n", "32", "--eigs", "log:0.01:1", "--seed", "42",
          "--out", str(h)])
    paths = []
    for k in range(2):
        ev = tmp_path / f"ev{k}.txt"
        assert main(["solve", "--in", str(h), "--variant", "3B", "--p", "4",
                     "--eval-out", str(ev),
                     "--summary", str(tmp_path / f"s{k}")]) == 0
        paths.append(ev)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_solve_index_order(tmp_path):
    h = tmp_path / "h.bin"
    main(["gen", "--n", "16", "--eigs", "log:0.1:1", "--seed", "2",
          "--out", str(h)])
    ev_desc = tmp_path / "d.txt"
    ev_idx = tmp_path / "i.txt"
    main(["solve", "--in", str(h), "--order", "desc", "--eval-out",
          str(ev_desc), "--summary", str(tmp_path / "s1")])
    main(["solve", "--in", str(h), "--order", "index", "--eval-out",
          str(ev_idx), "--summary", str(tmp_path / "s2")])
    d = np.loadtxt(ev_desc)
    i = np.loadtxt(ev_idx)
    assert np.array_equal(np.sort(d), np.sort(i))
    assert np.array_equal(d, np.sort(d)[::-1])


def test_schedule_command(capsys):
    assert main(["schedule", "--strategy", "modulus", "--p", "2"]) == 0
    out = capsys.readouterr().out
    assert "steps_per_sweep=4" in out
    assert out.count("step ") == 4


def test_bench_command(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"sizes": [16], "workers": [1, 2],
                                "variants": ["seq", "2B"], "reps": 1}))
    out = tmp_path / "bench.csv"
    assert main(["bench", "--grid", str(grid), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ("variant,strategy,scalar,n,p,nt_outer,nt_inner,kernel,"
                        "sweeps,rotations,time_s,c,status")
    assert len(lines) == 5
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[-1] == "ok"
        assert float(fields[-2]) > 0  # c
        assert fields[7] == ("numba" if NUMBA_ENABLED else "interpreted")
    # a grid that names only its sizes runs with the library's default options
    only = BenchGrid(sizes=[16])
    assert only.options("3F", *only.strategies, 1, *only.inner_nt) == SolveOptions(variant="3F")

def test_bench_bad_grid(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"sizes": [8], "bogus": 1}))
    assert main(["bench", "--grid", str(grid), "--out",
                 str(tmp_path / "o.csv")]) == 3


def test_bench_rejects_zero_reps(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"sizes": [8], "variants": ["seq"], "reps": 0}))
    out = tmp_path / "o.csv"
    assert main(["bench", "--grid", str(grid), "--out", str(out)]) == 3
    rec = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert rec["error"] == "ValueError" and "reps" in rec["message"]
    assert not out.exists()


@pytest.mark.parametrize("config", [{"sizes": 5},
                                    {"sizes": [8], "variants": "3F"},
                                    {"sizes": [8], "workers": ["2"]},
                                    {"sizes": [8], "strategies": ["zigzag"]},
                                    {"sizes": [8], "complex_scalars": "no"},
                                    5])
def test_bench_malformed_grid_fails_before_running(tmp_path, capsys, config):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(config))
    out = tmp_path / "o.csv"
    assert main(["bench", "--grid", str(grid), "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1  # no progress rows: no cell ran
    assert json.loads(err[0])["error"] == "ValueError"
    assert not out.exists()


def test_bench_numerical_cell_failure_is_a_row(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"sizes": [8], "workers": [8], "variants": ["2B"],
                                "reps": 1}))
    out = tmp_path / "o.csv"
    assert main(["bench", "--grid", str(grid), "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 2 and rows[1].split(",")[-1].startswith("error: ValueError")


@pytest.mark.parametrize("command,code,error", [
    ("gen", 3, "ValueError"),
    ("solve-input", 3, "MatrixFormatError"),
    ("solve-numerical", 4, "SingularMatrixError"),
    ("bench", 3, "ValueError"),
    ("schedule", 3, "ValueError"),
])
def test_error_exit_boundary(tmp_path, capsys, command, code, error):
    """One malformed input per subcommand: its exit code and exactly one JSON
    error record on stderr."""
    truncated, singular = tmp_path / "t.bin", tmp_path / "z.txt"
    write_matrix(truncated, np.eye(4))
    truncated.write_bytes(truncated.read_bytes()[:-8])
    write_matrix(singular, np.zeros((3, 3)), text=True)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"sizes": [8], "variants": ["seq"], "reps": "3"}))
    argv = {
        "gen": ["gen", "--n", "4", "--eigs", "log:1", "--out", str(tmp_path / "h.bin")],
        "solve-input": ["solve", "--in", str(truncated)],
        "solve-numerical": ["solve", "--in", str(singular)],
        "bench": ["bench", "--grid", str(grid), "--out", str(tmp_path / "o.csv")],
        "schedule": ["schedule", "--strategy", "modulus", "--p", "0"],
    }[command]
    assert main(argv) == code
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    rec = json.loads(err[0])
    assert (rec["error"], rec["exit_code"]) == (error, code) and rec["message"]


@pytest.mark.parametrize("eigs", ["log:1e-3:inf", "1,nan,2,3"])
def test_gen_non_finite_spectrum_is_input_error(tmp_path, capsys, eigs):
    """A spectrum with a NaN or infinite value or range endpoint exits 3 with
    one JSON error record and writes no matrix."""
    out = tmp_path / "h.bin"
    assert main(["gen", "--n", "4", "--eigs", eigs, "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    rec = json.loads(err[0])
    assert (rec["error"], rec["exit_code"]) == ("ValueError", 3) and "finite" in rec["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "eval-out", "evec-out", "summary", "bench"])
def test_unwritable_output_is_input_error(tmp_path, capsys, command):
    """An output path in a missing directory exits 3 with one JSON error
    record; bench finds out before it runs its grid."""
    bad = str(tmp_path / "missing" / "out")
    h = tmp_path / "h.txt"
    write_matrix(h, np.diag([4.0, -9.0]), text=True)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"sizes": [8], "variants": ["seq"], "reps": 1}))
    solve = ["solve", "--in", str(h), "--summary", str(tmp_path / "s")]
    argv = {
        "gen": ["gen", "--n", "4", "--eigs", "1,2,3,4", "--out", bad],
        "eval-out": solve + ["--eval-out", bad],
        "evec-out": solve + ["--eval-out", str(tmp_path / "ev"), "--evec-out", bad],
        "summary": ["solve", "--in", str(h), "--eval-out", str(tmp_path / "ev"),
                    "--summary", bad],
        "bench": ["bench", "--grid", str(grid), "--out", bad],
    }[command]
    assert main(argv) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1  # no bench progress rows: the grid never ran
    rec = json.loads(err[0])
    assert rec["error"] == "FileNotFoundError" and rec["exit_code"] == 3
