import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def equivalence():
    spec = importlib.util.spec_from_file_location("equivalence",
                                                  ROOT / "benchmarks" / "equivalence.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fingerprint(seed, variant="seq", values=(-0.5, 0.25, 1.0)):
    """One solve's record as ``equivalence.py`` writes it."""
    return {"n": 3, "complex": False, "seed": seed, "variant": variant,
            "strategy": "modulus", "p": 1, "sweeps": 4, "rotations": 9, "converged": True,
            "eigenvalues": f"ev{seed}", "eigenvectors": f"vec{seed}", "values": list(values)}


def test_compare_of_identical_records_finds_nothing(equivalence):
    records = [fingerprint(0), fingerprint(1, "seqB")]
    saved = [dict(r) for r in reversed(records)]
    assert equivalence.compare(records, saved) == ([], 0, None)


def test_compare_names_and_counts_a_changed_field(equivalence):
    """A solve whose rotations and eigenvalues moved is one differing solve:
    each changed field is named with its old and new value, and its largest
    relative eigenvalue change is reported for the solve and the grid."""
    saved = [fingerprint(0), fingerprint(1)]
    new = dict(fingerprint(1), rotations=10, eigenvalues="moved",
               values=[-0.5, 0.25 * (1 + 1e-15), 1.0 + 4e-15])
    lines, differing, worst = equivalence.compare([fingerprint(0), new], saved)
    assert differing == 1
    name = "n=3 complex=False seed=1 variant=seq strategy=modulus p=1"
    assert lines[:2] == [f"{name}: rotations 9 -> 10", f"{name}: eigenvalues ev1 -> moved"]
    assert len(lines) == 3 and lines[2].startswith(f"{name}: eigenvalues moved by at most")
    assert worst == pytest.approx(4e-15)
    assert f"{worst:.2e}" in lines[2]


def test_compare_counts_a_solve_found_on_one_side_only(equivalence):
    lines, differing, worst = equivalence.compare([fingerprint(0), fingerprint(2)],
                                                  [fingerprint(0), fingerprint(1)])
    assert differing == 2 and worst is None
    assert sorted(lines) == [
        "n=3 complex=False seed=1 variant=seq strategy=modulus p=1: only in the saved file",
        "n=3 complex=False seed=2 variant=seq strategy=modulus p=1: only in this tree",
    ]


def test_compare_reads_a_saved_file_without_values_by_its_hashes(equivalence):
    """Without saved ``values`` equal hashes are identical whatever the new
    values hold, and a changed hash is a difference with no eigenvalue
    change measured."""
    saved = [{k: v for k, v in fingerprint(s).items() if k != "values"} for s in (0, 1)]
    new = dict(fingerprint(1), eigenvectors="moved")
    lines, differing, worst = equivalence.compare([fingerprint(0, values=(9.0,)), new], saved)
    assert differing == 1 and worst is None
    assert lines == ["n=3 complex=False seed=1 variant=seq strategy=modulus p=1:"
                     " eigenvectors vec1 -> moved"]


def test_compare_keys_solves_by_input(equivalence):
    """Solves of the same n, seed and configuration on different inputs are
    different solves, a record without ``input`` is a ``dense`` one, and
    only a solve on another input names it."""
    dense = dict(fingerprint(0), input="dense")
    graded = dict(fingerprint(0), input="graded", rotations=10)
    lines, differing, _ = equivalence.compare([dense, graded], [fingerprint(0)])
    assert differing == 1
    assert lines == ["input=graded n=3 complex=False seed=0 variant=seq strategy=modulus p=1:"
                     " only in this tree"]
