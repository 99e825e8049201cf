"""Record the benchmark's results for the current tree as BENCH_<TAG>.json.

Run from anywhere:

    python3 tools/bench_record.py TAG

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
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 0


def run(command: list[str], workload: str, seconds: float,
        trace: int) -> tuple[dict, dict]:
    """One perfbench run: its ``env`` record and its final JSON line."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[len("env "):]) for line in lines
               if line.startswith("env "))
    return env, json.loads(lines[-1])


def src_clean() -> bool | None:
    """True when git sees no change under src/ or perfbench/, None when
    git cannot answer (the tree is not a work tree, or git is missing)."""
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain", "--", "src", "perfbench"],
            cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return status.stdout == ""


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not re.fullmatch(r"[\w.-]+", argv[0]):
        print("usage: bench_record.py TAG  (letters, digits, '_', '.', '-')",
              file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = manifest["run_seconds"]
    record = {"tag": argv[0], "command": manifest["command"],
              "run_seconds": seconds, "seed": SEED, "env": None,
              "src_clean": src_clean(), "workloads": {}}
    for workload in manifest["workloads"]:
        name = workload["name"]
        for trace, key in ((0, "untraced"), (1, "traced")):
            print(f"bench_record: {name} {key}", file=sys.stderr, flush=True)
            env, final = run(manifest["command"], name, seconds, trace)
            if record["env"] not in (None, env):
                raise RuntimeError(f"{name} {key}: environment changed "
                                   "between runs")
            record["env"] = env
            record["workloads"].setdefault(name, {})[key] = final
    out = ROOT / f"BENCH_{argv[0]}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
