"""Time verify_closed_form on wide codes, one child process per code.

The codes are p=3, k=1 with the row 1 1 1 1 0 ... 0 of length n: a
closed form of one 27-term element and n - 1 pure powers X_j^3, whose
verification forms about n^2/2 S-pairs. Each n runs in a child process of its own, which
sets its address-space limit (RLIMIT_AS) before it imports codegb, and the
parent stops a child at the timeout. Run it from the repository root:

    PYTHONPATH=src python tools/wide_codes.py                 # n = 50 ... 4000
    PYTHONPATH=src python tools/wide_codes.py --timeout 60 50 100 200

It prints one JSON object: per n, the seconds verify_closed_form took and
whether its report was ok, or "timeout", or the child's error. The exit
code is 1 when some report is not ok or some child failed, else 0 (a
timeout is a result, not a failure).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (50, 100, 200, 400, 800, 4000)
ADDRESS_SPACE = 2 << 30  # 2 GiB


def child(n: int) -> None:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    sys.path.append(str(ROOT / "src"))  # after PYTHONPATH, so that it can name another tree
    import time

    from codegb.codes import GeneratorMatrix, verify_closed_form

    G = GeneratorMatrix(3, 1, n, ((1, 1, 1, 1) + (0,) * (n - 4),))
    start = time.perf_counter()
    report = verify_closed_form(G)
    seconds = time.perf_counter() - start
    print(json.dumps({"seconds": round(seconds, 3), "ok": report.ok}))


def run(n: int, timeout: float) -> dict:
    argv = [sys.executable, __file__, "--child", str(n)]
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"result": "timeout", "timeout_s": timeout}
    if done.returncode:
        lines = done.stderr.strip().splitlines() or [f"exit {done.returncode}"]
        return {"result": "error", "error": lines[-1]}
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("sizes", nargs="*", type=int, default=SIZES, help="code lengths n >= 4")
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per code")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        child(args.child)
        return 0
    if min(args.sizes) < 4:
        parser.error("every n must be at least 4")
    results = {str(n): run(n, args.timeout) for n in args.sizes}
    print(json.dumps({"p": 3, "k": 1, "row": "1 1 1 1 0...0", "verify": results}, indent=1))
    return 0 if all(r.get("ok") or r.get("result") == "timeout" for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
