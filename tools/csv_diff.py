"""Compare two ``ts1mc bench`` CSVs in every column but the wall time.

Run from anywhere:

    python3 tools/csv_diff.py OLD.csv NEW.csv

``emit_csv`` writes every column except ``wall_time_seconds`` as a
deterministic function of the suite's spec, so two runs of one spec, on one
code version or on two that claim identical arithmetic, must agree in those
columns to the byte.  This prints each differing cell as
``row N: column: old -> new`` (row 1 is the first record) and exits 1 on any
differing cell, a different header or a different row count; it exits 0
when the files agree.
"""

import csv
import sys

WALL_TIME = "wall_time_seconds"


def read(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def diff(old_path: str, new_path: str) -> list[str]:
    """One line per difference between the two files; empty when equal."""
    (old_header, old_rows), (new_header, new_rows) = read(old_path), read(new_path)
    if old_header != new_header:
        return [f"header: {','.join(old_header)} -> {','.join(new_header)}"]
    lines = []
    if len(old_rows) != len(new_rows):
        lines.append(f"rows: {len(old_rows)} -> {len(new_rows)}")
    for i, (old, new) in enumerate(zip(old_rows, new_rows), start=1):
        for name, a, b in zip(old_header, old, new):
            if name != WALL_TIME and a != b:
                lines.append(f"row {i}: {name}: {a} -> {b}")
        if len(old) != len(new):
            lines.append(f"row {i}: fields: {len(old)} -> {len(new)}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: csv_diff.py OLD.csv NEW.csv", file=sys.stderr)
        return 2
    lines = diff(*argv)
    print("\n".join(lines) if lines else f"equal apart from {WALL_TIME}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
