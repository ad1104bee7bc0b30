"""Check every standard-form code of a larger class: its closed form, and its colength.

Tier-1 sweeps the 425 standard-form codes with p^(n-k) small (see
tests/test_codes.py). This script goes one size further on each prime:
every k x n matrix (I_k | M) for p=2 with n=6, p=3 with n=5 and p=5 with
n=4, enumerated by tests/helpers.standard_form_matrices. Each code gets two
checks:

- verify_closed_form runs all three checks of its closed form;
- reduce_basis(groebner(...)) under degrevlex must leave exactly p^(n-k)
  standard monomials, the dimension of R/I for the code ideal I. They are
  counted among the monomials with every exponent at most p, as in
  tests/test_oracles.py: X_i^p - 1 lies in I, so a right basis has none
  outside that box, and a basis that misses X_i^p counts X_i^p.

Run it from the repository root:

    PYTHONPATH=src python tools/sweep_codes.py

It prints one line per (p, n): the number of codes and the seconds each
check took. It exits 1 at the first code that fails a check, naming the
code and the failure, and 0 when every code passes.
"""

from __future__ import annotations

import sys
import time
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.append(str(ROOT / "src"))  # after PYTHONPATH, so that it can name another tree

from helpers import standard_form_matrices  # noqa: E402

from codegb.buchberger import groebner, reduce_basis  # noqa: E402
from codegb.codes import lex_code_basis, verify_closed_form  # noqa: E402
from codegb.monomials import Order, divides  # noqa: E402
from codegb.poly import Ring  # noqa: E402

CLASSES = ((2, 6), (3, 5), (5, 4))


def standard_monomials(basis, words) -> int:
    """How many of the words no leading monomial of the basis divides."""
    guards = basis[0].ring.guards
    leads = [f.leading_monomial for f in basis]
    return sum(not any(divides(lm, w, guards) for lm in leads) for w in words)


def main() -> int:
    for p, n in CLASSES:
        ring = Ring(p, n, Order.DEGREVLEX)
        box = [ring.encode(e) for e in product(range(p + 1), repeat=n)]
        closed_s = colength_s = 0.0
        count = 0
        for G in standard_form_matrices(p, n):
            start = time.perf_counter()
            report = verify_closed_form(G)
            middle = time.perf_counter()
            if not report.ok:
                print(f"FAIL {G!r}: {report!r}")
                return 1
            basis = reduce_basis(groebner([ring.convert(f) for f in lex_code_basis(G)]))
            found, expected = standard_monomials(basis, box), p ** (n - G.k)
            closed_s += middle - start
            colength_s += time.perf_counter() - middle
            if found != expected:
                print(
                    f"FAIL {G!r}: the reduced degrevlex basis leaves {found} standard "
                    f"monomials, not p^(n-k) = {expected}"
                )
                return 1
            count += 1
        print(
            f"p={p} n={n}: {count} codes pass all three checks in {closed_s:.1f} s "
            f"and the degrevlex colength in {colength_s:.1f} s"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
