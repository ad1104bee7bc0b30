"""Seeded benchmark instances and the checks on their outputs.

Every workload turns a seed into a list of cases. A case is one generator
matrix, written to a file, plus the CLI calls (items) made on that file and
a check on their exit codes and stdout. Instances are drawn here in plain
Python, not with codegb's own helpers, so that the inputs cannot change when
the program under test changes.

Each workload fixes the mix of instance kinds it draws (by quota or by a
fixed list of exponent types) and lets the seed pick the instances inside
each kind. Run time per item varies by orders of magnitude across kinds, so
a seeded but unstratified draw would make the throughput of one seed
differ from the next by far more than any bound worth having.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from math import prod
from typing import Callable

VERIFY_PASS = "generators-match: PASS\nstandard-basis: PASS\nleading-terms: PASS\n"


@dataclass(frozen=True)
class Code:
    """A standard-form generator matrix (I_k | M) over F_p."""

    p: int
    k: int
    n: int
    rows: tuple[tuple[int, ...], ...]

    def text(self) -> str:
        body = "\n".join(" ".join(map(str, row)) for row in self.rows)
        return f"p={self.p}\nk={self.k} n={self.n}\n{body}\n"

    def closed_form_sizes(self) -> list[int]:
        """Term counts of the k closed-form elements, prod(c_j + 1) with c_j = p - g_ij."""
        return [prod((self.p - g) % self.p + 1 for g in row[self.k :]) for row in self.rows]


def _code(p: int, k: int, right: list[list[int]]) -> Code:
    n = k + len(right[0])
    rows = tuple(
        tuple([1 if c == r else 0 for c in range(k)] + list(right[r])) for r in range(k)
    )
    return Code(p, k, n, rows)


@dataclass
class Case:
    code: Code
    # argv lists with "{file}" standing for the matrix file
    items: list[list[str]]
    check: Callable[["Case", list[tuple[int, str]]], list[str]]
    path: str = ""

    def argvs(self) -> list[list[str]]:
        return [[self.path if a == "{file}" else a for a in argv] for argv in self.items]


# -- checks: each returns one message per item, "" when the item is correct --


def check_verify(case: Case, outputs) -> list[str]:
    errors = []
    for argv, (rc, out) in zip(case.items, outputs):
        if "--inject-drop" in argv:
            ok = rc == 1 and out.startswith("generators-match: FAIL\n")
            errors.append("" if ok else f"negative control exited {rc}: {out!r}")
        else:
            ok = rc == 0 and out == VERIFY_PASS
            errors.append("" if ok else f"verify exited {rc}: {out!r}")
    return errors


_TERM = re.compile(r"(\d*)((?:X\d+(?:\^\d+)?)*)")
_VARPOW = re.compile(r"X(\d+)(?:\^(\d+))?")


def leading_monomial(line: str, n: int) -> tuple[int, ...]:
    """Exponents of the first printed term (the leading term under the print order)."""
    head = line.split("+", 1)[0]
    match = _TERM.fullmatch(head)
    if not match or not head:
        raise ValueError(f"cannot read a term from {line!r}")
    mono = [0] * n
    for index, exponent in _VARPOW.findall(match.group(2)):
        mono[int(index) - 1] += int(exponent or 1)
    return tuple(mono)


def count_standard_monomials(leading: list[tuple[int, ...]], n: int, limit: int) -> int:
    """Monomials divisible by no leading monomial, counted up to limit + 1.

    The standard monomials form an order ideal, so a search that extends
    standard monomials one variable at a time reaches all of them.
    """
    def divisible(m):
        return any(all(a <= b for a, b in zip(lm, m)) for lm in leading)

    start = (0,) * n
    if divisible(start):
        return 0
    seen = {start}
    frontier = [start]
    while frontier and len(seen) <= limit:
        m = frontier.pop()
        for i in range(n):
            nxt = m[:i] + (m[i] + 1,) + m[i + 1 :]
            if nxt not in seen and not divisible(nxt):
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen)


def check_groebner(case: Case, outputs) -> list[str]:
    (rc, out), = outputs
    code = case.code
    if rc != 0:
        return [f"groebner exited {rc}"]
    colength = code.p ** (code.n - code.k)
    try:
        leading = [leading_monomial(line, code.n) for line in out.splitlines()]
    except ValueError as exc:
        return [str(exc)]
    count = count_standard_monomials(leading, code.n, colength)
    if count != colength:
        return [f"{count} standard monomials, expected p^(n-k) = {colength}"]
    return [""]


def check_construct(case: Case, outputs) -> list[str]:
    (rc_cf, closed), (rc_mora, mora) = outputs
    if rc_cf != 0 or rc_mora != 0:
        return [f"exit codes {rc_cf} and {rc_mora}"] * 2
    if len(closed.splitlines()) != case.code.n:
        return [f"{len(closed.splitlines())} closed-form lines, expected n = {case.code.n}"] * 2
    if closed != mora:
        return ["mora output differs from the closed form"] * 2
    return ["", ""]


# -- instance generation ----------------------------------------------------


def _fill_quotas(draw: Callable[[], Code], classify: Callable[[Code], int | None], quotas):
    """Draw until each class holds its quota; codes of full or no class are dropped."""
    chosen: list[Code] = []
    left = list(quotas)
    while any(left):
        code = draw()
        c = classify(code)
        if c is not None and left[c]:
            left[c] -= 1
            chosen.append(code)
    return chosen


def _bin(value: int, edges) -> int | None:
    """Index i with edges[i] <= value < edges[i + 1], or None."""
    for i in range(len(edges) - 1):
        if edges[i] <= value < edges[i + 1]:
            return i
    return None


# verify-mixed: classes by the total closed-form term count, which predicts
# the run time of a verify far better than the code's shape does, with quotas
# in proportion to how often `verify --random` draws each class. Codes of
# more than 32 terms (13% of draws) are left out: their run times reach
# tens of seconds, and verify-wide covers long closed forms.
MIXED_EDGES = (1, 2, 3, 5, 7, 10, 14, 19, 25, 33)
MIXED_QUOTAS = (101, 149, 251, 129, 124, 93, 69, 45, 39)


def draw_like_verify_random(rng: random.Random) -> Code:
    """The draw of `codegb verify --random`, call for call."""
    p = rng.choice((2, 3, 5))
    k = rng.randint(1, 3)
    n = rng.randint(k, 6)
    return _code(p, k, [[rng.randrange(p) for _ in range(n - k)] for _ in range(k)])


def verify_mixed(seed: int) -> list[Case]:
    rng = random.Random(seed)
    codes = _fill_quotas(
        lambda: draw_like_verify_random(rng),
        lambda c: _bin(sum(c.closed_form_sizes()), MIXED_EDGES),
        MIXED_QUOTAS,
    )
    drops = random.Random(f"{seed}/drop")
    cases = []
    for code in codes:
        items = [["verify", "{file}"]]
        # dropping the only element of an n=1 basis leaves nothing to verify
        if code.n > 1:
            items.append(["verify", "{file}", "--inject-drop", str(drops.randrange(code.n))])
        cases.append(Case(code, items, check_verify))
    return cases


# verify-wide: p=5, k=1, n=5 with a right block of nonzero entries; one code
# per multiset of caps c = 5 - g whose closed form has at most 320 terms.
WIDE_MAX_TERMS = 320


def verify_wide(seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for caps in itertools.combinations_with_replacement((1, 2, 3, 4), 4):
        if prod(c + 1 for c in caps) > WIDE_MAX_TERMS:
            continue
        arranged = list(caps)
        rng.shuffle(arranged)
        cases.append(Case(_code(5, 1, [[5 - c for c in arranged]]), [["verify", "{file}"]], check_verify))
    return cases


# groebner: k=1 codes by row exponent type, the multiset of m_j = p - g_j
# over the right block. Under degrevlex the run time of a type depends on
# where its exponents sit, by up to 3x for the heaviest types, so a type
# with no zero exponent (few arrangements, and the heaviest) comes in every
# arrangement, and the seed places the exponents of every other type.
def _groebner_types() -> list[tuple[int, tuple[int, ...]]]:
    types = []
    for p, n in ((2, 5), (2, 6), (2, 7), (3, 4), (3, 5), (5, 3), (5, 4)):
        for ms in itertools.combinations_with_replacement(range(p), n - 1):
            support = sum(1 for m in ms if m)
            if support == 0 or support > 3:
                continue
            # p=5, n=4 with three nonzero exponents: only the lightest types
            if p == 5 and support == 3 and sum(ms) > 5:
                continue
            types.append((p, ms))
    return types


def groebner(seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for p, ms in _groebner_types():
        if 0 in ms:
            arranged = list(ms)
            rng.shuffle(arranged)
            arrangements = [arranged]
        else:
            arrangements = sorted(set(itertools.permutations(ms)))
        for arranged in arrangements:
            code = _code(p, 1, [[(p - m) % p for m in arranged]])
            cases.append(Case(code, [["groebner", "{file}", "--order", "degrevlex"]], check_groebner))
    return cases


# construct: p=7, 2<=k<=4, 7<=n<=9 with 1000 to 8000 closed-form terms in
# total. Run time is close to proportional to the term count, so the range
# is cut into 30 classes of equal ratio and each class takes one code.
CONSTRUCT_EDGES = tuple(round(1000 * 8 ** (i / 30)) for i in range(31))
CONSTRUCT_QUOTAS = (1,) * 30


def construct(seed: int) -> list[Case]:
    rng = random.Random(seed)

    def draw():
        k = rng.randint(2, 4)
        n = rng.randint(7, 9)
        return _code(7, k, [[rng.randrange(7) for _ in range(n - k)] for _ in range(k)])

    codes = _fill_quotas(
        draw, lambda c: _bin(sum(c.closed_form_sizes()), CONSTRUCT_EDGES), CONSTRUCT_QUOTAS
    )
    return [
        Case(
            code,
            [
                ["standard-basis", "{file}", "--method", "closed-form"],
                ["standard-basis", "{file}", "--method", "mora"],
            ],
            check_construct,
        )
        for code in codes
    ]


WORKLOADS: dict[str, Callable[[int], list[Case]]] = {
    "verify-mixed": verify_mixed,
    "verify-wide": verify_wide,
    "groebner": groebner,
    "construct": construct,
}

# The slowest known verify: draw #172 of tests/helpers.random_code(Random(20240815)).
WORST_CODE = _code(5, 1, [[1, 2, 1, 1, 2]])
