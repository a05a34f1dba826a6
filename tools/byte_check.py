"""Compare the CLI outputs of two checkouts on every benchmark workload.

Usage, from the repository root:

    python3 tools/byte_check.py --parent ../parent [--change .]

Each workload of ``liftbench/workloads.py`` (``boundary-recover`` included)
writes its config files to a temporary directory and plans its invocations
at seed 0.  Every invocation then runs once per checkout, in a child
process on that checkout's ``src/``, with ``--out`` added; an invocation
that exits 2 (a usage or config error) stops the script.  Every CSV must
match byte for byte, and every ``summary.json`` once its ``timestamp`` is
dropped; any other file must match byte for byte, and so must the exit
codes.  The script prints each file that differs with its differing rows,
and exits 1 if any differ, 0 otherwise.  One run over two checkouts took
45 s on a 2-core host.
"""

from __future__ import annotations

import argparse
import difflib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def _workloads(root):
    spec = importlib.util.spec_from_file_location(
        "workloads", root / "liftbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module          # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _run(root, argv, out_dir):
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    cmd = [sys.executable, "-m", "liftrec.cli", "--out", str(out_dir), *argv]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode == 2:
        # a usage or config error compares nothing
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with 2 in {root}")
    return proc.returncode


def _outputs(out_dir):
    files = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "summary.json":
            summary = json.loads(data)
            summary.pop("timestamp", None)
            data = json.dumps(summary, indent=2, sort_keys=True).encode()
        files[path.name] = data.decode("utf-8", "replace").splitlines()
    return files


def _differences(parent, change):
    """(file name, differing rows) for every file that is not the same."""
    found = []
    for name in sorted(set(parent) | set(change)):
        old, new = parent.get(name), change.get(name)
        if old == new:
            continue
        if old is None or new is None:
            found.append((name, [f"only in {'change' if old is None else 'parent'}"]))
            continue
        rows = [line for line in difflib.unified_diff(old, new, "parent", "change",
                                                      lineterm="", n=0)
                if line[:1] in "+-" and not line.startswith(("---", "+++"))]
        found.append((name, rows))
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout to compare against")
    parser.add_argument("--change", type=Path, default=HERE,
                        help="checkout under test (default: this one)")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    differ = 0
    with tempfile.TemporaryDirectory(prefix="byte_check_") as tmp:
        tmp = Path(tmp)
        for name, workload in _workloads(trees["change"]).items():
            cfg_dir = tmp / name / "configs"
            cfg_dir.mkdir(parents=True)
            for file_name, text in workload.configs.items():
                (cfg_dir / file_name).write_text(text, encoding="utf-8")
            for inv in workload.plan(0, cfg_dir):
                codes, outputs = {}, {}
                for side, root in trees.items():
                    out_dir = tmp / name / side / inv.label
                    codes[side] = _run(root, inv.argv, out_dir)
                    outputs[side] = _outputs(out_dir) if out_dir.is_dir() else {}
                where = f"{name} {inv.label}"
                found = _differences(outputs["parent"], outputs["change"])
                if codes["parent"] != codes["change"]:
                    found.append(("exit code",
                                  [f"-{codes['parent']}", f"+{codes['change']}"]))
                differ += len(found)
                for file_name, rows in found:
                    print(f"DIFFERS {where}: {file_name}")
                    for row in rows:
                        print(f"  {row}")
                if not found:
                    print(f"same    {where} (exit {codes['change']})", file=sys.stderr)
    print(f"byte_check: {differ} differing file(s)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
