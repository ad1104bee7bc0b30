"""Golden reduction runs: normal form, recorded intermediates, step count, trace.

Each row is a seeded random instance, reduced by weak_normal_form (local)
or divide (global) with a trace. The expected values were printed by the
implementation that rebuilt a sorted Polynomial after every step; they pin
the divisor selection (first match for divide, minimal ecart with earliest
insertion for Mora) and the recording rule, so a faster reduction core must
reproduce them exactly. The digest is over the full trace text.
"""

import hashlib
import random

import pytest

from codegb.division import divide
from codegb.monomials import Order
from codegb.mora import weak_normal_form
from codegb.poly import Ring

from helpers import random_local_divisor, random_nonzero_poly

GOLDEN = [
    ('local', 15, '0', 4, 10, '8cae56966e8a85d4'),
    ('local', 17, '0', 2, 11, '414ff6adbf9d4c0b'),
    ('local', 18, '2X1^5+2X1^4X2+X1^2X2^3+2X1X2^4', 0, 4, '9b54d273d97240b5'),
    ('local', 21, 'X2^2X3+X2X3^2+X1^4+X1^2X2^2+2X1^2X2X3+2X1^2X3^2+X1X2X3^2+X2^2X3^2+2X1^4X2+X1^3X2X3+2X1^2X2X3^2+2X1^4X2X3+X1^3X2X3^2', 0, 6, '5f74232b411f90fc'),
    ('local', 25, '0', 0, 4, 'dbfda5523b5ccdbd'),
    ('local', 30, '0', 3, 8, '80c2700437492225'),
    ('local', 32, '0', 1, 11, 'd0e8c8d90dea8b42'),
    ('local', 37, 'X2^2X4^4+X1X2^2X3X4^3+X1X2X3X4^4+X1X2X4^5+X1X2^2X3X4^4', 2, 7, '0f5a43ce0acf9c7d'),
    ('local', 38, '0', 3, 10, '6d7138d91cc94f10'),
    ('local', 40, '2X3X4^4+5X2X3^2X4^3', 2, 3, '1d56695811bd8911'),
    ('local', 44, '4X1^7X4^2+2X1^4X3^3X4^2+5X1^3X2X3^4X4+2X1X2X3^6X4+4X1X3^6X4^2+X1^6X3^2X4^2+3X1^2X2X3^6X4', 5, 14, 'fb85cc7b31f58003'),
    ('local', 46, '0', 1, 3, '04b69ee8c023adec'),
    ('global', 1001, 'X1^2+X1X2^2+2X1X2+2X1+2X2^2+2X2', 0, 3, '1383568da92a19fe'),
    ('global', 1003, '3X1^4X2+X1X2^4+2X1^3X2+2X1X2^3+4X1X2^2+2X1X2', 0, 3, '8f8760c2c91b144e'),
    ('global', 1006, '0', 0, 7, '13539837330c3ea7'),
    ('global', 1011, '3X2^5+X2^4+4X2^3+X2^2+X2', 0, 11, 'eec307d5b829db7f'),
    ('global', 1012, '0', 0, 4, 'f133cc2a948ed290'),
    ('global', 1013, '4X1X3^3X4+4X2X3^2', 0, 3, 'c0795396369755fc'),
    ('global', 1014, '0', 0, 6, 'd8c5ae2c852bcc00'),
    ('global', 1015, 'X2^3X3+3X2^2X3+X2^2+3X2+X3^2', 0, 3, '8e7a0b2a281f6eda'),
]


def local_instance(seed):
    rng = random.Random(seed)
    ring = Ring(rng.choice((2, 3, 5, 7)), rng.randint(2, 4), Order.NEGDEGLEX)
    f = random_local_divisor(ring, rng, max_terms=8, max_deg=6)
    divs = [random_local_divisor(ring, rng, max_terms=4, max_deg=4) for _ in range(rng.randint(1, 3))]
    return f, divs


def global_instance(seed):
    rng = random.Random(seed)
    order = rng.choice((Order.LEX, Order.DEGLEX, Order.DEGREVLEX))
    ring = Ring(rng.choice((2, 3, 5, 7)), rng.randint(2, 4), order)
    f = random_nonzero_poly(ring, rng, max_terms=10, max_deg=7)
    divs = [random_nonzero_poly(ring, rng, max_terms=4, max_deg=4) for _ in range(rng.randint(2, 4))]
    return f, divs


@pytest.mark.parametrize("kind, seed, normal_form, recorded, steps, digest", GOLDEN)
def test_golden_reduction(kind, seed, normal_form, recorded, steps, digest):
    lines = []
    if kind == "local":
        f, divs = local_instance(seed)
        result = weak_normal_form(f, divs, trace=lines.append)
        got = (str(result.normal_form), result.recorded)
    else:
        f, divs = global_instance(seed)
        got = (str(divide(f, divs, trace=lines.append).remainder), 0)
    assert got == (normal_form, recorded)
    assert sum(line.startswith("reduce ") for line in lines) == steps
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == digest
