import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "benchmarks" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_git_sha_of_a_plain_tree_hashes_its_sources(ab, tmp_path):
    """A tree outside git (an exported revision) is named by the hash of its
    src/hjacobi/*.py: equal for equal sources, different when one byte
    differs, and None when it has no sources."""
    trees = [tmp_path / "a", tmp_path / "b"]
    for tree in trees:
        shutil.copytree(ROOT / "src" / "hjacobi", tree / "src" / "hjacobi",
                        ignore=shutil.ignore_patterns("__pycache__"))
    sha_a, sha_b = (ab.git_sha(tree) for tree in trees)
    assert sha_a == sha_b == ab.source_hash(trees[0])
    assert sha_a.startswith("src-") and len(sha_a) == 4 + 16
    with open(trees[1] / "src" / "hjacobi" / "core.py", "a") as fh:
        fh.write("\n")
    assert ab.git_sha(trees[1]) != sha_a
    assert ab.git_sha(tmp_path / "empty") is None


def test_git_sha_of_a_checkout_is_its_head(ab, tmp_path):
    tree = tmp_path / "repo"
    (tree / "src" / "hjacobi").mkdir(parents=True)
    (tree / "src" / "hjacobi" / "core.py").write_text("x = 1\n")

    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        git("init", "-q")
        git("add", "-A")
        git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "x")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("git is not available")
    assert ab.git_sha(tree) == git("rev-parse", "HEAD")
    (tree / "src" / "hjacobi" / "core.py").write_text("x = 2\n")
    assert ab.git_sha(tree) == git("rev-parse", "HEAD") + "-dirty"


def fake_pass(times):
    """A child's reply to one pass: op times (wall, and CPU at half of it),
    fingerprints, page faults, references and peak RSS."""
    return {"times": times, "cpu": [t / 2 for t in times], "prints": [["x", 1, 10]] * len(times),
            "minflt": [3] * len(times), "refs": [1.0] * (len(times) + 1), "maxrss_kib": 40000}


def test_case_records_give_each_scalar_kind_its_own_verdict(ab):
    """A case's records include one per scalar kind of its inputs, each with
    its own verdict: complex ops 20% faster in head read ``faster`` while the
    unchanged real and graded ones read ``unresolved``.  No two records
    cover the same ops (the graded input's order is its own configuration)."""
    kinds = ["real", "real", "complex", "complex", "graded"]
    ops = [{"input": i, "kind": kind,
            "config": ["seq", "modulus", 1, 32 if kind == "graded" else 64]}
           for i, kind in enumerate(kinds)]
    base_times = [1.0, 1.1, 2.0, 2.2, 0.5]
    head_times = [1.0, 1.1, 1.6, 1.76, 0.5]
    pairs = [(fake_pass([t * (1 + 0.01 * k) for t in base_times]),
              fake_pass([t * (1 + 0.01 * k) for t in head_times])) for k in range(10)]
    side = SimpleNamespace(sha="sha", numba=False)
    records = ab.case_records("cyclic", 7, ops, side, side, pairs)
    assert [r["kind"] for r in records] == ["real+complex", "graded", "real+complex+graded",
                                            "real", "complex"]
    by_kind = {r["kind"]: r for r in records}
    assert {k: by_kind[k]["verdict"] for k in ("real", "complex", "graded")} == \
        {"real": "unresolved", "complex": "faster", "graded": "unresolved"}
    assert by_kind["complex"]["ratio_median"] == pytest.approx(0.8)
    assert by_kind["complex"]["head_wins"] == 10 and by_kind["real"]["head_wins"] == 0
    assert by_kind["real+complex+graded"]["n"] == "64+32"
    assert by_kind["complex"]["inputs"] == 2 and by_kind["complex"]["kernel"] == "interpreted"
    assert all(r["seed"] == 7 for r in records)


def test_factorize_case_times_the_factorization(ab, tmp_path, monkeypatch):
    """``--n N --factorize`` times ``factorize_hermitian_indefinite`` on
    both sides (here one tree against itself, on a complex input): one
    record, of the input's kind, whose fingerprints (the bytes of G, J and
    P) are equal."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the harness prepends the head's paths
    out = tmp_path / "ab.json"
    assert ab.main(["--base", str(ROOT), "--head", str(ROOT), "--n", "24", "--complex",
                    "--factorize", "--pairs", "2", "--out", str(out)]) == 0
    (rec,) = json.loads(out.read_text())
    assert (rec["case"], rec["variant"], rec["kind"], rec["n"]) == \
        ("factorize-complex-n24", "factorize", "complex", 24)
    assert rec["fingerprints_equal"] and rec["pairs"] == 2 and rec["base_rotations"] == 0


def test_workload_factorize_case_times_each_inputs_factorization(ab, tmp_path, monkeypatch):
    """``--workload W --factorize`` times ``factorize_hermitian_indefinite``
    once per input of the workload, in place of its solves: every record
    is a factorization with no sweeps, its fingerprints (the bytes of G, J
    and P) are equal, and each scalar kind of the inputs has its record."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the harness prepends the head's paths
    args = SimpleNamespace(head=str(ROOT), workload="cyclic", factorize=True, seed=1)
    name, Hs, ops = ab.make_case(args)
    assert name == "factorize-cyclic"
    assert [op["input"] for op in ops] == list(range(len(Hs)))
    assert all(op["options"] is None and op["config"][0] == "factorize" for op in ops)
    out = tmp_path / "ab.json"
    assert ab.main(["--base", str(ROOT), "--head", str(ROOT), "--workload", "cyclic",
                    "--factorize", "--pairs", "1", "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    by_kind = {r["kind"]: r for r in records}
    assert {"real", "complex", "graded"} <= set(by_kind)
    assert by_kind["real+complex+graded"]["inputs"] == len(Hs)
    assert all(r["variant"] == "factorize" and r["fingerprints_equal"]
               and r["base_sweeps"] == r["base_rotations"] == 0 for r in records)


@pytest.mark.parametrize("extra", [
    ["--workload", "cyclic", "--variant", "seq"],
    ["--workload", "cyclic", "--complex"],
    ["--workload", "ring", "--p", "4"],
    ["--workload", "ring", "--strategy", "round_robin"],
    ["--n", "64", "--factorize", "--p", "2"],
    ["--n", "64", "--factorize", "--strategy", "modulus"],
    ["--workload", "cyclic", "--pairs", "0"],
    ["--n", "64", "--variant", "seq", "--pairs", "-1"],
])
def test_workload_rejects_a_flag_it_would_ignore(ab, extra):
    """A workload fixes its inputs and configurations, so ``--variant``,
    ``--complex``, ``--strategy`` and ``--p`` with ``--workload`` are refused
    rather than ignored, as are ``--strategy`` and ``--p`` with
    ``--factorize``; a run of fewer than one pair is refused too."""
    with pytest.raises(SystemExit):
        ab.main(["--base", str(ROOT), "--head", str(ROOT), *extra])


def test_each_pair_starts_a_fresh_child_per_side(ab, monkeypatch):
    """Every pair of timed passes starts one child per tree, which runs a
    warm-up pass and then its timed one, so no child lives through two
    pairs and a speed offset particular to one process stays in one pair."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the harness prepends the head's paths
    passes = []

    class Counted(ab.Side):
        def __init__(self, *args):
            super().__init__(*args)
            self.k = len(passes)
            passes.append(0)

        def run_pass(self):
            passes[self.k] += 1
            return super().run_pass()

    monkeypatch.setattr(ab, "Side", Counted)
    assert ab.main(["--base", str(ROOT), "--head", str(ROOT), "--n", "24", "--factorize",
                    "--pairs", "3"]) == 0
    assert passes == [2] * 6


def test_records_carry_each_sides_page_faults_and_peak_rss(ab, tmp_path, monkeypatch):
    """Each child counts the minor page faults and the CPU time of every op
    of a timed pass and reads its peak RSS after it; every record carries
    both sides' medians over the pairs: the faults and CPU seconds of its
    own ops summed, and the RSS, with the quartile distance of base's CPU
    seconds."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the harness prepends the head's paths
    out = tmp_path / "ab.json"
    assert ab.main(["--base", str(ROOT), "--head", str(ROOT), "--n", "24", "--variant", "seqB",
                    "--pairs", "2", "--out", str(out)]) == 0
    (rec,) = json.loads(out.read_text())
    for side in ("base", "head"):
        assert rec[f"{side}_minflt"] >= 0 and rec[f"{side}_maxrss_kib"] > 1000
        assert rec[f"{side}_median_cpu_s"] > 0
    assert rec["base_iqr_cpu_s"] >= 0
    ops = [{"input": 0, "kind": "real", "config": ["seq", "modulus", 1, 8]},
           {"input": 1, "kind": "complex", "config": ["seq", "modulus", 1, 8]}]
    base, head = fake_pass([1.0, 1.0]), fake_pass([1.0, 1.0])
    head["minflt"], head["maxrss_kib"], head["cpu"] = [5, 7], 50000, [0.25, 1.5]
    side = SimpleNamespace(sha="sha", numba=False)
    by_kind = {r["kind"]: r for r in ab.case_records("x", 1, ops, side, side, [(base, head)])}
    assert [by_kind[k]["head_median_cpu_s"] for k in ("real", "complex", "real+complex")] == \
        [0.25, 1.5, 1.75]
    assert by_kind["real"]["base_median_cpu_s"] == 0.5 and by_kind["real"]["base_iqr_cpu_s"] == 0
    assert [by_kind[k]["head_minflt"] for k in ("real", "complex", "real+complex")] == [5, 7, 12]
    assert by_kind["real"]["base_minflt"] == 3
    assert by_kind["real"]["base_maxrss_kib"] == 40000
    assert by_kind["real"]["head_maxrss_kib"] == 50000
