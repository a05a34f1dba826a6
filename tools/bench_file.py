"""Write one BENCH_<label>.json: every benchmark workload once, plus the gate.

Usage, from the repository root:

    python3 tools/bench_file.py --label baseline

For each workload in ``BENCHMARK.json`` the script runs ``liftbench/run.py``
once in a child process, untraced, for the file's ``run_seconds`` at the
default seed, and keeps two lines of its output: the
``environment {...}`` line and the final JSON line (``correct``,
``attempted``, ``failed`` and ``metrics``).  It then runs
``acceptance.run_all`` once, in another child process, for the per-criterion
times.  ``--root`` measures another checkout with this script (its
``liftbench/`` and ``src/``); the file is written under that root unless
``--out`` names it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

# run in a child so the gate sees a fresh process, as the benchmark runs do
GATE = """
import json
from liftrec import acceptance
results = acceptance.run_all(printer=None)
print(json.dumps({r.index: {"name": r.name, "passed": r.passed,
                            "seconds": r.runtime} for r in results}))
"""


def _run(cmd, root, env=None):
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return proc.stdout.splitlines()


def workload_record(root, name, seconds):
    lines = _run([sys.executable, "liftbench/run.py", "--workload", name,
                  "--seconds", str(seconds)], root)
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("environment "))
    return env, json.loads(lines[-1])


def gate_record(root):
    lines = _run([sys.executable, "-c", GATE], root,
                 env={**os.environ, "PYTHONPATH": str(root / "src")})
    criteria = json.loads(lines[-1])
    return {"criteria": criteria,
            "seconds": sum(c["seconds"] for c in criteria.values()),
            "passed": all(c["passed"] for c in criteria.values())}


def _commit(root):
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--root", type=Path, default=HERE,
                        help="checkout to measure (default: this one)")
    parser.add_argument("--out", type=Path, help="default: <root>/BENCH_<label>.json")
    args = parser.parse_args(argv)
    root = args.root.resolve()

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    environment, workloads = None, {}
    for workload in spec["workloads"]:
        name = workload["name"]
        print(f"bench_file: {name}", file=sys.stderr)
        environment, workloads[name] = workload_record(root, name, spec["run_seconds"])
    print("bench_file: acceptance gate", file=sys.stderr)
    payload = {
        "label": args.label,
        "commit": _commit(root),
        "seconds": spec["run_seconds"],
        "environment": environment,
        "workloads": workloads,
        "acceptance": gate_record(root),
    }
    out = args.out or root / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"bench_file: wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
