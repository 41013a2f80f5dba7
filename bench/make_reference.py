"""Take the reference output digests every benchmark run is checked against.

Usage, from the root of a source checkout::

    python3 bench/make_reference.py [workload ...]

For every workload and every seed in ``REFERENCE_SEEDS`` it runs each
operation once in a fresh worker process and records the SHA-256 of its
output bytes in ``bench/reference.json``.  Run it only on a commit whose
outputs are known good, and only when the workloads themselves change:
the file is what makes a later change that alters an output byte count as
a failed operation.  Digests already in the file are checked, not
replaced, so a commit whose outputs differ makes this script fail; to
re-take a workload's digests after changing it, delete its entry under
``"digests"`` first and name it on the command line.
Seeds outside the table are checked by determinism within the run and by
the independent checks in ``workloads.py``.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from run import OUT_DIR, child_env
from worker import REFERENCE_FILE
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, write_inputs

REFERENCE_SEEDS = sorted({*range(64), DEFAULT_SEED, HELD_OUT_SEED})


def digests_for(name: str, seed: int, env: dict) -> dict:
    workdir = OUT_DIR / f"ref-{name}-{seed}-{os.getpid()}"
    result = workdir / "result.json"
    try:
        write_inputs(WORKLOADS[name], seed, workdir)
        cmd = [
            sys.executable,
            str(Path(__file__).resolve().parent / "worker.py"),
            "--workload", name,
            "--seed", str(seed),
            "--seconds", "0",
            "--trace", "0",
            "--workdir", str(workdir),
            "--result", str(result),
        ]
        subprocess.run(cmd, env=env, check=True, timeout=170)
        out = json.loads(result.read_text())
    finally:
        for f in workdir.glob("*"):
            f.unlink()
        workdir.rmdir()
    if out["failed"]:
        raise SystemExit(f"{name} seed {seed}: {out['problems']}")
    return out["digests"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Re-take the reference output digests.")
    parser.add_argument("workloads", nargs="*", choices=sorted(WORKLOADS), help="default: all")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "cambarrier" / "cli.py").is_file():
        print("error: run from the root of a source checkout", file=sys.stderr)
        return 2
    env = child_env(root / "src")
    OUT_DIR.mkdir(exist_ok=True)
    table = json.loads(REFERENCE_FILE.read_text())["digests"]
    for name in args.workloads or WORKLOADS:
        table[name] = {}
        for seed in REFERENCE_SEEDS:
            table[name][str(seed)] = digests_for(name, seed, env)
            print(f"{name} seed {seed}: done", flush=True)
    REFERENCE_FILE.write_text(json.dumps({"seeds": REFERENCE_SEEDS, "digests": table}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
