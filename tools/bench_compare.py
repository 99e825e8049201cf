"""Compare BENCH_<TAG>.json records of a parent and a change, metric by metric.

Run from anywhere, with N parent records followed by N change records:

    python3 tools/bench_compare.py OLD.json NEW.json
    python3 tools/bench_compare.py OLD_1.json ... OLD_N.json NEW_1.json ... NEW_N.json
    python3 tools/bench_compare.py --claim METRIC WORKLOAD OLD_1.json ... NEW_N.json

For each workload in BENCHMARK.json and each of its end-to-end metrics this
prints the median of each side's untraced values, new/old of the medians and
the metric's bound; with N > 1 it also prints each side's [min, max].  A
metric is a regression when the change's median is worse than the parent's
by more than its bound, taken as a share of the parent's median
(``better: lower`` fails above old * (1 + bound), ``better: higher`` below
old * (1 - bound)), and is also worse than every parent run, so that a
change inside the parent's own run-to-run spread is not named.  A workload
also regresses when a change run is not correct or the change's runs failed
a larger share of their operations in total.  Regressions and metrics
missing from any record are marked, and any of them makes the exit status 1.
A file that is missing, unreadable or not a BENCH record (a JSON object
whose ``workloads`` maps names to objects) exits 2 with one line naming it.

``--claim METRIC WORKLOAD`` also tests a claimed gain in one end-to-end
metric on one workload.  The i-th parent record is paired with the i-th
change record, and the claim is met only when there are at least 10 pairs,
the change is better in at least 9 of every 10 pairs (a tie counts for
neither side), and the medians differ in the metric's better direction by
more than the distance between the parent runs' quartiles.  It prints the
wins, each side's median and quartiles and "met" or why not; a claim not
met makes the exit status 1.  Quartiles interpolate linearly between the
sorted runs, as ``numpy.percentile`` does.
"""

import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]
MIN_PAIRS = 10
USAGE = ("usage: bench_compare.py [--claim METRIC WORKLOAD] OLD.json "
         "[OLD.json ...] NEW.json [NEW.json ...]  (as many NEW as OLD)")


def worse(better: str, old: float, new: float, bound: float) -> bool:
    """True when ``new`` is worse than ``old`` by more than ``bound``."""
    if better == "lower":
        return new > old * (1.0 + bound)
    return new < old * (1.0 - bound)


def beyond_every_run(better: str, olds: list[float], new: float) -> bool:
    """True when ``new`` is worse than each of ``olds``."""
    return new > max(olds) if better == "lower" else new < min(olds)


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile of ``values``."""
    if len(values) == 1:
        return values * 3
    return quantiles(values, n=4, method="inclusive")


def claim(metric: dict, workload: str, old: list[dict], new: list[dict]
          ) -> tuple[str, bool]:
    """The report line of a claimed gain in ``metric`` on ``workload`` over
    the pairs (old[i], new[i]), and whether the claim is met."""
    values = [[record["workloads"].get(workload, {}).get("untraced", {})
               .get("metrics", {}).get(metric["name"], {}).get("value")
               for record in side] for side in (old, new)]
    head = f"claim {workload} {metric['name']} ({metric['better']} is better):"
    if any(None in side for side in values):
        return f"{head} MISSING from a record: not met", False
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * (a - b) > 0 for a, b in zip(*values))
    pairs = len(values[0])
    (q1_old, med_old, q3_old), (q1_new, med_new, q3_new) = (
        quartiles(side) for side in values)
    gap, spread = sign * (med_old - med_new), q3_old - q1_old
    missed = [why for why, fails in (
        (f"{pairs} pairs < {MIN_PAIRS}", pairs < MIN_PAIRS),
        (f"{wins}/{pairs} wins < 9/10", 10 * wins < 9 * pairs),
        (f"median gap {gap:.4g} <= parent IQR {spread:.4g}", gap <= spread))
        if fails]
    line = (f"{head} change better in {wins}/{pairs} pairs; old median "
            f"{med_old:.4g} [{q1_old:.4g}, {q3_old:.4g}], new median "
            f"{med_new:.4g} [{q1_new:.4g}, {q3_new:.4g}]: "
            + (f"NOT MET ({'; '.join(missed)})" if missed else "met"))
    return line, not missed


def load(path: str) -> dict:
    """The BENCH record in ``path``; ValueError naming ``path``."""
    try:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    workloads = record.get("workloads") if isinstance(record, dict) else None
    if not (isinstance(workloads, dict)
            and all(isinstance(w, dict) for w in workloads.values())):
        raise ValueError(f"{path} is not a BENCH record: it has no workloads")
    return record


def compare(manifest: dict, old: list[dict], new: list[dict]
            ) -> tuple[list[str], bool]:
    """Table lines for the parent records ``old`` and the change records
    ``new``, and whether any metric regressed."""
    spread = len(old) > 1
    lines = [f"{'workload':<18} {'metric':<15} {'old':>11} {'new':>11} "
             f"{'new/old':>8} {'bound':>6}"
             + (f"  {'old [min, max]':<23} new [min, max]" if spread else "")]
    failed = False
    for workload in manifest["workloads"]:
        name = workload["name"]
        runs = [[record["workloads"].get(name, {}).get("untraced")
                 for record in side] for side in (old, new)]
        if any(None in side for side in runs):
            lines.append(f"{name:<18} MISSING untraced run")
            failed = True
            continue
        for metric in manifest["end_to_end"]:
            values = [[run["metrics"].get(metric["name"], {}).get("value")
                       for run in side] for side in runs]
            row = f"{name:<18} {metric['name']:<15}"
            if any(None in side for side in values):
                lines.append(f"{row} MISSING")
                failed = True
                continue
            a, b = (median(side) for side in values)
            ratio = f"{b / a:8.3f}" if a else f"{'n/a':>8}"
            line = f"{row} {a:11.4g} {b:11.4g} {ratio} {metric['bound']:6.2f}"
            if spread:
                lo, hi = (f"[{min(side):.4g}, {max(side):.4g}]"
                          for side in values)
                line += f"  {lo:<23} {hi}"
            if (worse(metric["better"], a, b, metric["bound"])
                    and beyond_every_run(metric["better"], values[0], b)):
                line += "  REGRESSION"
                failed = True
            lines.append(line)
        (old_failed, old_tried), (new_failed, new_tried) = (
            (sum(run["failed"] for run in side),
             sum(run["attempted"] for run in side)) for side in runs)
        correct = all(run["correct"] for run in runs[1])
        if (not correct or new_failed / max(new_tried, 1)
                > old_failed / max(old_tried, 1)):
            lines.append(f"{name:<18} correct={correct} failed "
                         f"{old_failed}/{old_tried} -> "
                         f"{new_failed}/{new_tried}  REGRESSION")
            failed = True
    return lines, failed


def main(argv: list[str]) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    claimed = None
    if argv[:1] == ["--claim"]:
        metrics = {metric["name"]: metric for metric in manifest["end_to_end"]}
        workloads = [workload["name"] for workload in manifest["workloads"]]
        if len(argv) < 3 or argv[1] not in metrics or argv[2] not in workloads:
            print(f"{USAGE}\nMETRIC is one of {', '.join(metrics)}; WORKLOAD "
                  f"one of {', '.join(workloads)}", file=sys.stderr)
            return 2
        claimed, argv = (metrics[argv[1]], argv[2]), argv[3:]
    if not argv or len(argv) % 2:
        print(USAGE, file=sys.stderr)
        return 2
    try:
        records = [load(path) for path in argv]
    except ValueError as exc:
        print(f"bench_compare.py: {exc}", file=sys.stderr)
        return 2
    tags = [record.get("tag", path) for record, path in zip(records, argv)]
    n = len(argv) // 2
    lines, failed = compare(manifest, records[:n], records[n:])
    if claimed:
        line, met = claim(*claimed, records[:n], records[n:])
        lines.append(line)
        failed = failed or not met
    print(f"{', '.join(tags[:n])} -> {', '.join(tags[n:])}")
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
