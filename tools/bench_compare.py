"""Compare two BENCH_<TAG>.json records metric by metric.

Run from anywhere:

    python3 tools/bench_compare.py BENCH_OLD.json BENCH_NEW.json

For each workload in BENCHMARK.json and each of its end-to-end metrics this
prints the old and new untraced values, new/old and the metric's bound.  A
metric is a regression when it is worse than the old value by more than its
bound, taken as a share of the old value (``better: lower`` fails above
old * (1 + bound), ``better: higher`` below old * (1 - bound)).  A workload
also regresses when its run is no longer correct or a larger share of its
operations failed.  Regressions and metrics missing from either record are
marked, and any of them makes the exit status 1.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def worse(better: str, old: float, new: float, bound: float) -> bool:
    """True when ``new`` is worse than ``old`` by more than ``bound``."""
    if better == "lower":
        return new > old * (1.0 + bound)
    return new < old * (1.0 - bound)


def compare(manifest: dict, old: dict, new: dict) -> tuple[list[str], bool]:
    """Table lines for the two records and whether any metric regressed."""
    lines = [f"{'workload':<18} {'metric':<15} {'old':>11} {'new':>11} "
             f"{'new/old':>8} {'bound':>6}"]
    failed = False
    for workload in manifest["workloads"]:
        name = workload["name"]
        runs = [record["workloads"].get(name, {}).get("untraced")
                for record in (old, new)]
        if None in runs:
            lines.append(f"{name:<18} MISSING untraced run")
            failed = True
            continue
        for metric in manifest["end_to_end"]:
            values = [run["metrics"].get(metric["name"], {}).get("value")
                      for run in runs]
            row = f"{name:<18} {metric['name']:<15}"
            if None in values:
                lines.append(f"{row} MISSING")
                failed = True
                continue
            a, b = values
            ratio = f"{b / a:8.3f}" if a else f"{'n/a':>8}"
            line = f"{row} {a:11.4g} {b:11.4g} {ratio} {metric['bound']:6.2f}"
            if worse(metric["better"], a, b, metric["bound"]):
                line += "  REGRESSION"
                failed = True
            lines.append(line)
        shares = [run["failed"] / max(run["attempted"], 1) for run in runs]
        if not runs[1]["correct"] or shares[1] > shares[0]:
            lines.append(f"{name:<18} correct={runs[1]['correct']} failed "
                         f"{runs[0]['failed']}/{runs[0]['attempted']} -> "
                         f"{runs[1]['failed']}/{runs[1]['attempted']}"
                         "  REGRESSION")
            failed = True
    return lines, failed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: bench_compare.py OLD.json NEW.json", file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    lines, failed = compare(manifest, old, new)
    print(f"{old.get('tag', argv[0])} -> {new.get('tag', argv[1])}")
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
