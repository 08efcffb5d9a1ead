import importlib.util
import shutil
import subprocess
from pathlib import Path

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
