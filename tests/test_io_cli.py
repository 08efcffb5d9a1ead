import json

import numpy as np
import pytest

from hjacobi.cli import main
from hjacobi.matio import (
    MatrixFormatError,
    read_matrix,
    read_signs,
    write_matrix,
    write_signs,
)


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


def test_unknown_version(tmp_path, rng):
    path = tmp_path / "m.bin"
    write_matrix(path, rng.standard_normal((2, 2)))
    data = bytearray(path.read_bytes())
    data[4] = 9
    path.write_bytes(bytes(data))
    with pytest.raises(MatrixFormatError):
        read_matrix(path)


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
                                          ("--p", "0"), ("--inner-nt", "0")])
def test_solve_out_of_range_option(tmp_path, capsys, option, value):
    h = tmp_path / "h.txt"
    write_matrix(h, np.diag([4.0, -9.0]), text=True)
    code = main(["solve", "--in", str(h), option, value,
                 "--summary", str(tmp_path / "s")])
    assert code == 3
    rec = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert rec["error"] == "ValueError" and rec["exit_code"] == 3


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
                     "--seed", "42", "--eval-out", str(ev),
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
    assert lines[0] == ("variant,strategy,scalar,n,p,nt_outer,nt_inner,"
                        "sweeps,rotations,time_s,c,status")
    assert len(lines) == 5
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[-1] == "ok"
        assert float(fields[-2]) > 0  # c

def test_bench_bad_grid(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"sizes": [8], "bogus": 1}))
    assert main(["bench", "--grid", str(grid), "--out",
                 str(tmp_path / "o.csv")]) == 3
