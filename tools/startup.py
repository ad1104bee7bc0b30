"""Time whole `codegb verify` processes from two source trees, start-up included.

perfbench runs every item inside one process, so it never sees what a user
pays per command: starting the interpreter and importing codegb. This script
starts fresh processes instead. Run it from anywhere, naming two source
checkouts (each with a src/codegb directory), for instance a copy of the
parent commit and the working tree:

    python tools/startup.py ../parent . -n 15

Each process is `python -S -m codegb.cli verify FILE` on a p=3, k=1, n=3
matrix, with PYTHONPATH naming the tree's src. -S keeps site-packages out:
a .pth file there may import modules that codegb itself does not need.
Bytecode goes to a temporary PYTHONPYCACHEPREFIX, filled by one untimed run
per tree first, so nothing is written into either tree and every timed run
starts from bytecode. The runs alternate between the two trees, N of each.

It prints each tree's median and quartiles of wall time, the ratio of the
medians, and the median -X importtime total of `import codegb.cli` over five
runs per tree.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MATRIX = "p=3\nk=1 n=3\n1 1 2\n"


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def import_ms(env) -> float:
    """Total -X importtime of `import codegb.cli`, in ms: its top-level codegb entries."""
    run = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-c", "import codegb.cli"],
        env=env, capture_output=True, text=True, check=True,
    )
    total = 0
    for line in run.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].startswith(" codegb"):  # one space: top level
            total += int(fields[1])
    return total / 1000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("trees", nargs=2, type=Path, help="two source checkouts, A then B")
    parser.add_argument("-n", type=int, default=15, help="timed runs per tree (default 15)")
    args = parser.parse_args(argv)
    for tree in args.trees:
        if not (tree / "src" / "codegb" / "cli.py").is_file():
            parser.error(f"{tree} has no src/codegb/cli.py")

    with tempfile.TemporaryDirectory(prefix="codegb-startup-") as tmp:
        matrix = Path(tmp) / "code.txt"
        matrix.write_text(MATRIX, encoding="ascii")
        base = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        base["PYTHONPYCACHEPREFIX"] = str(Path(tmp) / "pycache")
        envs = [dict(base, PYTHONPATH=str(tree.resolve() / "src")) for tree in args.trees]
        command = [sys.executable, "-S", "-m", "codegb.cli", "verify", str(matrix)]

        def run(env) -> float:
            start = time.perf_counter()
            done = subprocess.run(command, env=env, cwd=tmp, capture_output=True, text=True)
            seconds = time.perf_counter() - start
            if done.returncode != 0 or "PASS" not in done.stdout:
                where = env["PYTHONPATH"]
                raise SystemExit(f"verify failed with {where}:\n{done.stdout}{done.stderr}")
            return seconds

        for env in envs:  # untimed: writes the bytecode of codegb and the stdlib it uses
            run(env)
        times = ([], [])
        for i in range(args.n):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                times[side].append(run(envs[side]))
        imports = [statistics.median(import_ms(env) for _ in range(5)) for env in envs]

    medians = []
    for label, tree, seconds, imported in zip("AB", args.trees, times, imports):
        median, q1, q3 = quartiles([s * 1000 for s in seconds])
        medians.append(median)
        print(f"{label} {tree}: verify process {median:.1f} ms [{q1:.1f}-{q3:.1f}] "
              f"over {args.n} runs; import codegb.cli {imported:.1f} ms")
    print(f"B/A median verify process: {medians[1] / medians[0]:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
