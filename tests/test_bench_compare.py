import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_compare", ROOT / "tools" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]


def record(tag: str, **values) -> dict:
    """A BENCH record with every end-to-end metric at 10 on every workload,
    apart from ``values`` (metric name -> value on the first workload)."""
    run = {"attempted": 4, "correct": True, "failed": 0,
           "metrics": {m["name"]: {"unit": m["unit"], "value": 10.0}
                       for m in MANIFEST["end_to_end"]}}
    out = {"tag": tag, "workloads": {}}
    for name in WORKLOADS:
        out["workloads"][name] = {"untraced": copy.deepcopy(run)}
    for metric, value in values.items():
        out["workloads"][WORKLOADS[0]]["untraced"]["metrics"][metric]["value"] = value
    return out


def run_records(tmp_path, records: list[dict], capsys,
                options=()) -> tuple[int, list[str]]:
    paths = []
    for rec in records:
        path = tmp_path / f"BENCH_{rec['tag']}.json"
        path.write_text(json.dumps(rec), encoding="utf-8")
        paths.append(str(path))
    code = bench_compare.main([*options, *paths])
    return code, capsys.readouterr().out.splitlines()


def run_main(tmp_path, old: dict, new: dict, capsys) -> tuple[int, list[str]]:
    return run_records(tmp_path, [old, new], capsys)


def test_equal_records_list_every_metric_and_pass(tmp_path, capsys):
    code, lines = run_main(tmp_path, record("a"), record("b"), capsys)
    assert code == 0
    assert lines[0] == "a -> b"
    rows = lines[2:]
    assert len(rows) == len(WORKLOADS) * len(MANIFEST["end_to_end"])
    assert all(row.split()[4] == "1.000" for row in rows)
    assert not any("REGRESSION" in row for row in rows)


@pytest.mark.parametrize("metric, value, regressed", [
    ("wall_s", 12.5, True),          # 1.25 x against a 0.24 bound
    ("wall_s", 12.3, False),
    ("wall_s", 5.0, False),          # faster is never a regression
    ("psnr_db_median", 9.4, True),   # higher is better, 0.05 bound
    ("psnr_db_median", 9.6, False),
    ("iterations", 12.1, True),
])
def test_metric_worse_than_its_bound_is_marked(tmp_path, capsys, metric,
                                               value, regressed):
    code, lines = run_main(tmp_path, record("a"), record("b", **{metric: value}),
                           capsys)
    assert code == int(regressed)
    marked = [row for row in lines if "REGRESSION" in row]
    assert [row.split()[:2] for row in marked] == (
        [[WORKLOADS[0], metric]] if regressed else [])


def test_missing_metric_fails(tmp_path, capsys):
    new = record("b")
    del new["workloads"][WORKLOADS[1]]["untraced"]["metrics"]["setup_s"]
    code, lines = run_main(tmp_path, record("a"), new, capsys)
    assert code == 1
    assert f"{WORKLOADS[1]:<18} {'setup_s':<15} MISSING" in lines


def test_larger_failed_share_fails(tmp_path, capsys):
    new = record("b")
    new["workloads"][WORKLOADS[2]]["untraced"]["failed"] = 1
    code, lines = run_main(tmp_path, record("a"), new, capsys)
    assert code == 1
    assert lines[-1].startswith(WORKLOADS[2])
    assert "failed 0/4 -> 1/4  REGRESSION" in lines[-1]


def parent_and_change(parent: list[float], change: list[float]) -> list[dict]:
    """Records ``p0 .. p(N-1)`` then ``c0 .. c(N-1)`` whose first workload's
    wall_s takes the given values."""
    return ([record(f"p{i}", wall_s=v) for i, v in enumerate(parent)]
            + [record(f"c{i}", wall_s=v) for i, v in enumerate(change)])


def test_n_runs_per_side_print_medians_and_spreads(tmp_path, capsys):
    code, lines = run_records(
        tmp_path, parent_and_change([10.0, 9.0, 11.0], [10.0, 10.5, 9.5]), capsys)
    assert code == 0
    assert lines[0] == "p0, p1, p2 -> c0, c1, c2"
    row = next(row for row in lines if row.split()[:2] == [WORKLOADS[0], "wall_s"])
    assert row.split()[2:5] == ["10", "10", "1.000"]
    assert "[9, 11]" in row and "[9.5, 10.5]" in row


def test_change_inside_the_parent_spread_is_not_flagged(tmp_path, capsys):
    # the median moves by 1.3x, beyond the 0.24 bound, yet one parent run
    # was slower still: run-to-run noise, not a regression
    code, lines = run_records(
        tmp_path, parent_and_change([10.0, 10.0, 14.0], [13.0, 13.0, 13.0]), capsys)
    assert code == 0
    assert not any("REGRESSION" in row for row in lines)


def test_change_beyond_the_bound_and_every_parent_run_is_flagged(tmp_path, capsys):
    code, lines = run_records(
        tmp_path, parent_and_change([10.0, 9.0, 11.0], [13.0, 14.0, 12.0]), capsys)
    assert code == 1
    marked = [row.split()[:2] for row in lines if "REGRESSION" in row]
    assert marked == [[WORKLOADS[0], "wall_s"]]


def test_one_incorrect_change_run_is_flagged(tmp_path, capsys):
    records = parent_and_change([10.0, 10.0], [10.0, 10.0])
    records[-1]["workloads"][WORKLOADS[1]]["untraced"]["correct"] = False
    code, lines = run_records(tmp_path, records, capsys)
    assert code == 1
    assert f"{WORKLOADS[1]:<18} correct=False failed 0/8 -> 0/8  REGRESSION" in lines


@pytest.mark.parametrize("count", [0, 1, 3])
def test_odd_or_no_file_count_is_a_usage_error(tmp_path, capsys, count):
    paths = [str(tmp_path / f"BENCH_{i}.json") for i in range(count)]
    assert bench_compare.main(paths) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("usage:")


def run_claim(tmp_path, capsys, parent, change, metric="wall_s"):
    records = ([record(f"p{i}", **{metric: v}) for i, v in enumerate(parent)]
               + [record(f"c{i}", **{metric: v}) for i, v in enumerate(change)])
    code, lines = run_records(tmp_path, records, capsys,
                              ["--claim", metric, WORKLOADS[0]])
    return code, lines[-1]


PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]


def test_claim_met_by_nine_of_ten_pairs_and_a_gap_beyond_the_parent_iqr(
        tmp_path, capsys):
    # one pair is a tie, which counts for neither side: 9/10 wins
    change = [v - 8.0 for v in PARENT[:-1]] + [PARENT[-1]]
    code, line = run_claim(tmp_path, capsys, PARENT, change)
    assert code == 0
    # parent quartiles 12.25 and 16.75 (numpy.percentile's linear rule)
    assert line == (f"claim {WORKLOADS[0]} wall_s (lower is better): change "
                    "better in 9/10 pairs; old median 14.5 [12.25, 16.75], "
                    "new median 6.5 [4.25, 8.75]: met")


@pytest.mark.parametrize("parent, change, missed", [
    # PR-20-like: the medians fall, yet the change wins only 8 of 10 pairs
    (PARENT, [v - 8.0 for v in PARENT[:8]] + [25.0, 25.0], "8/10 wins < 9/10"),
    (PARENT[:9], [v - 8.0 for v in PARENT[:9]], "9 pairs < 10"),
    # every pair won, but by less than the parent's own spread
    (PARENT, [v - 1.0 for v in PARENT], "median gap 1 <= parent IQR 4.5")],
    ids=["wins", "pairs", "gap"])
def test_claim_not_met_exits_1_and_says_why(tmp_path, capsys, parent, change,
                                            missed):
    code, line = run_claim(tmp_path, capsys, parent, change)
    assert code == 1
    assert line.endswith(f": NOT MET ({missed})")


def test_claim_on_a_higher_is_better_metric(tmp_path, capsys):
    code, line = run_claim(tmp_path, capsys, PARENT, [v + 8.0 for v in PARENT],
                           metric="psnr_db_median")
    assert code == 0
    assert "(higher is better): change better in 10/10 pairs" in line
    code, line = run_claim(tmp_path, capsys, PARENT, [v - 8.0 for v in PARENT],
                           metric="psnr_db_median")
    assert code == 1
    assert "0/10 wins < 9/10; median gap -8 <= parent IQR 4.5" in line


@pytest.mark.parametrize("args", [
    ["--claim"], ["--claim", "wall_s"], ["--claim", "no_such_metric", WORKLOADS[0]],
    ["--claim", "wall_s", "no-such-workload"]])
def test_claim_needs_a_known_metric_and_workload(capsys, args):
    assert bench_compare.main([*args, "a.json", "b.json"]) == 2
    assert capsys.readouterr().err.startswith("usage:")
