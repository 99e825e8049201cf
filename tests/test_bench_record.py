import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def test_src_clean_is_none_outside_a_git_work_tree(tmp_path, monkeypatch):
    # a tree exported with `git archive` has no .git: git status exits 128
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    assert bench_record.src_clean() is None


def test_src_clean_sees_a_change_under_src(tmp_path, monkeypatch):
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    assert bench_record.src_clean() is True
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "new.py").write_text("", encoding="ascii")
    assert bench_record.src_clean() is False


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A git repository whose two commits write ``marker`` as "parent" and
    then "change", with a one-workload manifest; it is ``ROOT``."""
    root = tmp_path / "repo"
    root.mkdir()
    for var in ("GIT_AUTHOR_NAME", "GIT_COMMITTER_NAME"):
        monkeypatch.setenv(var, "bench")
    for var in ("GIT_AUTHOR_EMAIL", "GIT_COMMITTER_EMAIL"):
        monkeypatch.setenv(var, "bench@example.com")
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"command": ["python3", "perfbench/run.py"], "run_seconds": 1,
         "workloads": [{"name": "w"}]}), encoding="ascii")
    subprocess.run(["git", "init", "-q"], cwd=root, check=True)
    for marker in ("parent", "change"):
        (root / "marker").write_text(marker, encoding="ascii")
        subprocess.run(["git", "add", "-A"], cwd=root, check=True)
        subprocess.run(["git", "commit", "-qm", marker], cwd=root, check=True)
    monkeypatch.setattr(bench_record, "ROOT", root)
    return root


def stub_runs(monkeypatch, fail_at=None) -> list[Path]:
    """Replace the perfbench run with one that notes its working directory
    and raises on call number ``fail_at``."""
    cwds = []

    def run(command, workload, seconds, trace, cwd):
        cwds.append(Path(cwd))
        if len(cwds) == fail_at:
            raise RuntimeError("run failed")
        return {"machine": "stub"}, {"trace": trace}
    monkeypatch.setattr(bench_record, "run", run)
    return cwds


def worktrees(root: Path) -> list[str]:
    listing = subprocess.run(["git", "worktree", "list", "--porcelain"],
                             cwd=root, capture_output=True, text=True,
                             check=True).stdout
    return [line for line in listing.splitlines() if line.startswith("worktree ")]


@pytest.mark.parametrize("pairs", [3, 10])
def test_pairs_alternate_and_sort_parent_first(repo, monkeypatch, pairs):
    cwds = stub_runs(monkeypatch)
    assert bench_record.main(["t", "--parent", "HEAD~1", "--pairs",
                              str(pairs)]) == 0
    # two runs (untraced, traced) per record, the parent first in odd pairs
    assert cwds[1::2] == cwds[::2]
    order = []
    for i in range(1, pairs + 1):
        order += ["parent", "change"] if i % 2 else ["change", "parent"]
    assert ["change" if cwd == repo else "parent" for cwd in cwds[::2]] == order
    # the parent's tree sits outside the repository and is gone afterwards
    (parent,) = {cwd for cwd in cwds if cwd != repo}
    assert repo not in parent.parents and not parent.exists()
    assert worktrees(repo) == [f"worktree {repo}"]
    width = len(str(pairs))
    names = sorted(p.name for p in repo.glob("BENCH_t_*.json"))
    assert names == (
        [f"BENCH_t_a_parent{i:0{width}}.json" for i in range(1, pairs + 1)]
        + [f"BENCH_t_b_change{i:0{width}}.json" for i in range(1, pairs + 1)])
    for name in names:
        rec = json.loads((repo / name).read_text(encoding="utf-8"))
        assert rec["tag"] == name[len("BENCH_"):-len(".json")]
        assert rec["src_clean"] is True


def test_parent_runs_in_a_checkout_of_ref(repo, monkeypatch):
    markers = []

    def run(command, workload, seconds, trace, cwd):
        markers.append((Path(cwd) / "marker").read_text(encoding="ascii"))
        return {"machine": "stub"}, {}
    monkeypatch.setattr(bench_record, "run", run)
    assert bench_record.main(["t", "--parent", "HEAD~1", "--pairs", "2"]) == 0
    assert markers[::2] == ["parent", "change", "change", "parent"]


def test_worktree_removed_after_a_run_raises(repo, monkeypatch):
    cwds = stub_runs(monkeypatch, fail_at=3)
    with pytest.raises(RuntimeError, match="run failed"):
        bench_record.main(["t", "--parent", "HEAD~1", "--pairs", "2"])
    assert len(cwds) == 3 and not cwds[0].exists()
    assert worktrees(repo) == [f"worktree {repo}"]
    assert [p.name for p in repo.glob("BENCH_*.json")] == ["BENCH_t_a_parent1.json"]


def test_unknown_ref_exits_1_and_leaves_no_worktree(repo, monkeypatch, capsys):
    stub_runs(monkeypatch, fail_at=1)
    assert bench_record.main(["t", "--parent", "no-such-ref", "--pairs", "1"]) == 1
    assert "no-such-ref" in capsys.readouterr().err
    assert worktrees(repo) == [f"worktree {repo}"]


@pytest.mark.parametrize("argv", [
    ["t", "--parent", "HEAD"], ["t", "--pairs", "2"],
    ["t", "--parent", "HEAD", "--pairs", "0"], ["bad/tag"], []])
def test_usage_errors_exit_2(repo, monkeypatch, capsys, argv):
    stub_runs(monkeypatch, fail_at=1)
    assert bench_record.main(argv) == 2
    assert not list(repo.glob("BENCH_*.json"))


def test_one_tree_form_records_the_tree_itself(repo, monkeypatch):
    cwds = stub_runs(monkeypatch)
    assert bench_record.main(["solo"]) == 0
    assert cwds == [repo, repo]
    assert [p.name for p in repo.glob("BENCH_*.json")] == ["BENCH_solo.json"]
