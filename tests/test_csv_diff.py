import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from ts1mc.bench import ExperimentRecord, emit_csv

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "csv_diff", ROOT / "tools" / "csv_diff.py")
csv_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(csv_diff)

RECORDS = [ExperimentRecord(
    suite="table-known-rank", solver=solver, m=40, n=40, r=3, sr=0.4,
    fr=0.4, cov=0.0, sigma_noise=0.0, trial=trial,
    rel_err=1.234567890123e-06 * (trial + 1), psnr=95.5, mse=2.5e-10,
    success=True, iterations=120 + trial, wall_time_seconds=0.25,
    rank_estimated=None)
    for trial in range(2) for solver in ("ts1-s1", "ts1-s2")]


def run(tmp_path, capsys, old, new) -> tuple[int, list[str]]:
    paths = [str(tmp_path / name) for name in ("old.csv", "new.csv")]
    for path, records in zip(paths, (old, new)):
        emit_csv(records, path)
    code = csv_diff.main(paths)
    return code, capsys.readouterr().out.splitlines()


def test_equal_files_pass(tmp_path, capsys):
    code, lines = run(tmp_path, capsys, RECORDS, RECORDS)
    assert code == 0
    assert lines == ["equal apart from wall_time_seconds"]


def test_wall_time_alone_is_ignored(tmp_path, capsys):
    slower = [replace(rec, wall_time_seconds=7.5) for rec in RECORDS]
    assert run(tmp_path, capsys, RECORDS, slower)[0] == 0


def test_one_digit_of_rel_err_fails(tmp_path, capsys):
    old_path, new_path = tmp_path / "old.csv", tmp_path / "new.csv"
    emit_csv(RECORDS, old_path)
    text = old_path.read_text(encoding="ascii")
    new_path.write_text(text.replace("2.469135780246e-06",
                                     "2.469135780247e-06", 1), encoding="ascii")
    code = csv_diff.main([str(old_path), str(new_path)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines == ["row 3: rel_err: 2.469135780246e-06 -> 2.469135780247e-06"]


def test_missing_row_fails(tmp_path, capsys):
    code, lines = run(tmp_path, capsys, RECORDS, RECORDS[:-1])
    assert code == 1
    assert lines == ["rows: 4 -> 3"]


def test_header_mismatch_fails(tmp_path, capsys):
    old_path, new_path = tmp_path / "old.csv", tmp_path / "new.csv"
    emit_csv(RECORDS, old_path)
    new_path.write_text(old_path.read_text(encoding="ascii").replace(
        "rel_err", "relerr", 1), encoding="ascii")
    code = csv_diff.main([str(old_path), str(new_path)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("header: ")


@pytest.mark.parametrize("content, reason", [
    (None, "No such file"),
    ("", "is not a bench CSV"),
    ("a,b\n1,2\n", "is not a bench CSV"),
    (b"\xff\xfe\n", "cannot read"),
], ids=["missing", "empty", "other-csv", "not-ascii"])
@pytest.mark.parametrize("side", [0, 1], ids=["old", "new"])
def test_unusable_input_exits_2_naming_it(tmp_path, capsys, content, reason,
                                          side):
    paths = [tmp_path / "old.csv", tmp_path / "new.csv"]
    emit_csv(RECORDS, paths[1 - side])
    if isinstance(content, bytes):
        paths[side].write_bytes(content)
    elif content is not None:
        paths[side].write_text(content, encoding="ascii")
    assert csv_diff.main([str(p) for p in paths]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    (line,) = out.err.splitlines()
    assert line.startswith("csv_diff.py: ") and str(paths[side]) in line
    assert reason in line
