import importlib.util
import subprocess
from pathlib import Path

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
