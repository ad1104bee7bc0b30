"""Run all three closed-form checks on every standard-form code of a larger class.

Tier-1 sweeps the 425 standard-form codes with p^(n-k) small (see
tests/test_codes.py). This script goes one size further on each prime:
every k x n matrix (I_k | M) for p=2 with n=6, p=3 with n=5 and p=5 with
n=4, enumerated by tests/helpers.standard_form_matrices, each given to
verify_closed_form. Run it from the repository root:

    PYTHONPATH=src python tools/sweep_codes.py

It prints one line per (p, n): the number of codes and the seconds taken.
It exits 1 at the first code that fails a check, naming the code and the
failure, and 0 when every code passes.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.append(str(ROOT / "src"))  # after PYTHONPATH, so that it can name another tree

from helpers import standard_form_matrices  # noqa: E402

from codegb.codes import verify_closed_form  # noqa: E402

CLASSES = ((2, 6), (3, 5), (5, 4))


def main() -> int:
    for p, n in CLASSES:
        start = time.perf_counter()
        count = 0
        for G in standard_form_matrices(p, n):
            report = verify_closed_form(G)
            if not report.ok:
                print(f"FAIL {G!r}: {report!r}")
                return 1
            count += 1
        seconds = time.perf_counter() - start
        print(f"p={p} n={n}: {count} codes pass all three checks in {seconds:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
