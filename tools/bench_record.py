"""Record the benchmark's results as BENCH_<TAG>.json files.

Run from anywhere:

    python3 tools/bench_record.py TAG
    python3 tools/bench_record.py TAG --parent REF --pairs N

For each workload in BENCHMARK.json this runs the manifest's command
(``python3 perfbench/run.py``) for ``run_seconds``, once untraced and once
with ``--trace 1``, at seed 0.  It writes the ``env`` line (machine,
versions, BLAS threads, source digest) and each run's final JSON line to
``BENCH_<TAG>.json`` at the repository root.  ``src_clean`` records whether
``src/`` and ``perfbench/`` match the commit that ``env.git_commit`` names.
It is null when git cannot answer, as in a tree exported with ``git
archive``.  When it is not true, only ``env.src_sha256`` identifies the
measured source.  It changes nothing under ``perfbench/``; a run that
exits non-zero stops the recording.

With ``--parent REF --pairs N`` it records N alternating pairs of the
commit REF and of this tree: REF's runs use REF's own ``src/`` and
``perfbench/``, from a ``git worktree add --detach`` of REF in a temporary
directory outside the repository, which is removed afterwards, also when a
run fails.  Pair i runs the parent first when i is odd and the change
first when i is even, and writes ``BENCH_<TAG>_a_parent<i>.json`` and
``BENCH_<TAG>_b_change<i>.json`` (i zero-padded to N's width), so that

    python3 tools/bench_compare.py BENCH_<TAG>_*.json

takes the N parent records, then the N change records, pair by pair.
"""

import argparse
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 0


def run(command: list[str], workload: str, seconds: float, trace: int,
        cwd: Path) -> tuple[dict, dict]:
    """One perfbench run in ``cwd``: its ``env`` record and final JSON line."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[len("env "):]) for line in lines
               if line.startswith("env "))
    return env, json.loads(lines[-1])


def src_clean(root: Path | None = None) -> bool | None:
    """True when git sees no change under src/ or perfbench/ of ``root``
    (this repository by default), None when git cannot answer (not a work
    tree, or git is missing)."""
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain", "--", "src", "perfbench"],
            cwd=root or ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return status.stdout == ""


def record(tag: str, root: Path) -> None:
    """Run every workload of the manifest in the tree ``root`` and write
    ``BENCH_<tag>.json`` at this repository's root."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = manifest["run_seconds"]
    result = {"tag": tag, "command": manifest["command"],
              "run_seconds": seconds, "seed": SEED, "env": None,
              "src_clean": src_clean(root), "workloads": {}}
    for workload in manifest["workloads"]:
        name = workload["name"]
        for trace, key in ((0, "untraced"), (1, "traced")):
            print(f"bench_record: {tag} {name} {key}", file=sys.stderr,
                  flush=True)
            env, final = run(manifest["command"], name, seconds, trace, root)
            if result["env"] not in (None, env):
                raise RuntimeError(f"{name} {key}: environment changed "
                                   "between runs")
            result["env"] = env
            result["workloads"].setdefault(name, {})[key] = final
    out = ROOT / f"BENCH_{tag}.json"
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}")


def record_pairs(tag: str, ref: str, pairs: int) -> None:
    """``pairs`` alternating parent/change records; see the module doc."""
    tmp = Path(tempfile.mkdtemp(prefix="bench_record-"))
    parent = tmp / "parent"
    try:
        subprocess.run(["git", "worktree", "add", "--detach", str(parent), ref],
                       cwd=ROOT, capture_output=True, text=True, check=True)
        width = len(str(pairs))
        for i in range(1, pairs + 1):
            sides = [(f"a_parent{i:0{width}}", parent),
                     (f"b_change{i:0{width}}", ROOT)]
            for side, root in sides if i % 2 else sides[::-1]:
                record(f"{tag}_{side}", root)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(parent)],
                       cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench_record.py")
    parser.add_argument("tag", metavar="TAG",
                        help="letters, digits, '_', '.', '-'")
    parser.add_argument("--parent", metavar="REF",
                        help="also record this commit, alternating with the tree")
    parser.add_argument("--pairs", type=int, metavar="N",
                        help="parent/change pairs to record with --parent")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if (not re.fullmatch(r"[\w.-]+", args.tag)
            or (args.parent is None) != (args.pairs is None)
            or (args.pairs is not None and args.pairs < 1)):
        parser.print_usage(sys.stderr)
        print("bench_record.py: TAG is letters, digits, '_', '.', '-'; "
              "--parent and --pairs (at least 1) go together", file=sys.stderr)
        return 2
    if args.parent is None:
        record(args.tag, ROOT)
        return 0
    try:
        record_pairs(args.tag, args.parent, args.pairs)
    except subprocess.CalledProcessError as exc:
        print(f"bench_record.py: {' '.join(exc.cmd)}: {exc.stderr.strip()}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
