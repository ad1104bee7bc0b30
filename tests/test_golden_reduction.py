"""Golden reduction and completion runs, pinned by printed output and trace.

Each GOLDEN row is a seeded random instance, reduced by weak_normal_form
(local) or divide (global) with a trace. The expected values were printed by
the implementation that rebuilt a sorted Polynomial after every step; they
pin the divisor selection (first match for divide, minimal ecart with
earliest insertion for Mora) and the recording rule, so a faster reduction
core must reproduce them exactly. The digest is over the full trace text.
The local rows from seed 90 on were printed by the weak normal form that
updated h and the cofactors through add_multiple and add_product on every
step; each has a one-term divisor and recorded intermediates, so they pin
the one-term reducer path against the general one.

Each GOLDEN_CERTIFICATE row pins the certificate of a local GOLDEN row: the
digest of print_poly(unit) and the digest of print_poly(a_i) for each
divisor. They were printed by the weak normal form that kept two cofactor
rules (a single-term update for an original divisor, a snapshot update for
a recorded intermediate), before every reducer carried one certificate
vector, so the single update rule must reproduce u and the a_i exactly.

Each GOLDEN_COMPLETION row is a seeded ideal completed by the unreduced
groebner (global orders) or by standard_basis (local order) with a trace.
The expected length and digest of the printed basis plus trace were printed
by the completion loop that picked the next pair with min() over a set;
they pin the pair-pop order (the index pairs in the trace and the order of
the appended elements), so a different pair queue must reproduce them.
Translated code generators are not used here: the product criterion skips
every one of their pairs.
"""

import hashlib
import random

import pytest

from codegb.buchberger import groebner
from codegb.codes import lex_code_basis, random_matrix
from codegb.division import divide
from codegb.monomials import Order
from codegb.mora import _ReducerBasis, standard_basis, weak_normal_form
from codegb.parsing import print_poly
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
    # a one-term divisor among recorded intermediates; 90 and 374 record single terms
    ('local', 90, '2X2^2X3^10', 2, 7, '50b1bb687d40bd98'),
    ('local', 245, 'X1^4X3^2+X1^2X2X3^3+2X1^2X3^4+2X1X2^3X3^2+X1X2X3^4+2X1^4X3^3+X1^3X3^4+X1^2X2^3X3^2+X1^2X3^5+X1X2^3X3^3+2X1X3^6+2X2^3X3^4+X1^2X3^6+X1X2^3X3^4+X1X3^7+X2^3X3^5', 2, 6, 'bf77121359406d36'),
    ('local', 270, '0', 5, 25, '5b506c9a193e0c24'),
    ('local', 361, '0', 5, 21, 'e18aff1e9b79b2ff'),
    ('local', 374, '0', 1, 7, 'b9d1ac7b2c0a1d01'),
    ('global', 1001, 'X1^2+X1X2^2+2X1X2+2X1+2X2^2+2X2', 0, 3, '1383568da92a19fe'),
    ('global', 1003, '3X1^4X2+X1X2^4+2X1^3X2+2X1X2^3+4X1X2^2+2X1X2', 0, 3, '8f8760c2c91b144e'),
    ('global', 1006, '0', 0, 7, '13539837330c3ea7'),
    ('global', 1011, '3X2^5+X2^4+4X2^3+X2^2+X2', 0, 11, 'eec307d5b829db7f'),
    ('global', 1012, '0', 0, 4, 'f133cc2a948ed290'),
    ('global', 1013, '4X1X3^3X4+4X2X3^2', 0, 3, 'c0795396369755fc'),
    ('global', 1014, '0', 0, 6, 'd8c5ae2c852bcc00'),
    ('global', 1015, 'X2^3X3+3X2^2X3+X2^2+3X2+X3^2', 0, 3, '8e7a0b2a281f6eda'),
]


GOLDEN_CERTIFICATE = [
    (15, '7e8239c954ca47ac', ('d4735e3a265e16ee', '356d6fe79e99b872', 'de0be761322dedda')),
    (17, '737f9e0d938c4889', ('7d54e19e68b90586', '5feceb66ffc86f38')),
    (18, '6b86b273ff34fce1', ('6b86b273ff34fce1', '35a7a10b92a5f725', 'da568eb2c6c64aa0')),
    (21, '6b86b273ff34fce1', ('69ffdaf64cef8788', '6b86b273ff34fce1')),
    (25, '6b86b273ff34fce1', ('d5eb9c331f3e9def',)),
    (30, '28192d5459860d3b', ('d52acda9f1124448', 'b630533f0c92f0ba', 'caa10c24e0c52fab')),
    (32, '4ebf22eb37ae00be', ('7431d9cb92cbcf46', 'c8cea367cb6ef3cd')),
    (37, '4cae1c17a14e9bcb', ('4eb50bc5ca3aa2aa', '09d9cf35adaf144b', '4ca2363f9254c0e9')),
    (38, '16c3560d89d200af', ('7cf5c4c74181e5b3', '5feceb66ffc86f38')),
    (40, 'a409af1528e17462', ('5feceb66ffc86f38', '555fedf5c5074ae1')),
    (44, '1f5141a8c05a637e', ('51b69fe7585deb03', '5feceb66ffc86f38', '039006b205962c7b')),
    (46, '0b937ed25b2d07e3', ('ec29ba1c3f473c2b',)),
    (90, 'f869cff27e44483f', ('5feceb66ffc86f38', '98028e553e5d128d', '0ef7d446dac94b44')),
    (245, '94774a711e2cafd5', ('27f17eb2bb384198', '5feceb66ffc86f38')),
    (270, '08795e435e34ad83', ('ae3ae3c7d17239bd', '07c5a0210430e6f7', 'f9f73dc29e0b7df1')),
    (361, '02d95d4fd59b5fbd', ('482d1eeddfbdba9b', 'b965dcf434cd3dae', 'b5c23ec39718cb48')),
    (374, '6b86b273ff34fce1', ('e21a5eb4cc935a39', '9a56bbc656237203')),
]


def digest(f):
    return hashlib.sha256(print_poly(f).encode()).hexdigest()[:16]


def local_instance(seed):
    """A local reduction instance: f and one to three divisors vanishing at the origin.

    For seeds 103, 111, 233 and 329 the weak normal form does not end in
    practice (over 20 000 steps, each slower than the last as the recorded
    reducers pile up); test_known_runaway_instances_hit_the_step_cap pins them.
    """
    rng = random.Random(seed)
    ring = Ring(rng.choice((2, 3, 5, 7)), rng.randint(2, 4), Order.NEGDEGLEX)
    f = random_local_divisor(ring, rng, max_terms=8, max_deg=6)
    divs = [random_local_divisor(ring, rng, max_terms=4, max_deg=4) for _ in range(rng.randint(1, 3))]
    return f, divs


@pytest.mark.parametrize("seed", [103, 111, 233, 329])
def test_known_runaway_instances_hit_the_step_cap(seed):
    with pytest.raises(ValueError, match="exceeded 500 reduction steps"):
        weak_normal_form(*local_instance(seed), max_steps=500)


def test_reductions_through_one_prepared_basis_equal_fresh_ones():
    # The intermediates that a call records are its own: two reductions
    # through one prepared basis must each equal a call on the plain divisors.
    seeds = [row[1] for row in GOLDEN if row[0] == "local" and row[3]]
    assert len(seeds) == 14
    for seed in seeds:
        f, divs = local_instance(seed)
        basis = _ReducerBasis(divs)
        fresh = weak_normal_form(f, divs)
        assert fresh.recorded
        for _ in range(2):
            assert weak_normal_form(f, basis) == fresh, seed
        assert len(basis.reducers) == len(divs)


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


@pytest.mark.parametrize("seed, unit, coefficients", GOLDEN_CERTIFICATE)
def test_golden_certificate(seed, unit, coefficients):
    f, divs = local_instance(seed)
    result = weak_normal_form(f, divs)
    assert (digest(result.unit), tuple(map(digest, result.coefficients))) == (unit, coefficients)


GOLDEN_COMPLETION = [
    ('code', 3, 'lex', 39, '065bef135d56bf3c'),
    ('code', 5, 'lex', 37, '161afe120586deca'),
    ('code', 9, 'deglex', 723, '9cd48c58cf5c3801'),
    ('code', 21, 'deglex', 818, 'cd3936a136307206'),
    ('code', 11, 'degrevlex', 1021, '40eafd9af024a4eb'),
    ('code', 16, 'degrevlex', 554, '4f5f7598bf749615'),
    ('code', 27, 'degrevlex', 556, 'aa3252b6b1a8d4b8'),
    ('random', 1, 'lex', 285, 'ba885e772a111b99'),
    ('random', 3, 'deglex', 212, '76fe08f937fa717e'),
    ('random', 4, 'degrevlex', 253, '946b9342edda511b'),
    ('local', 1, 'negdeglex', 3149, '23e80d17e5ebf29e'),
    ('local', 5, 'negdeglex', 684, '229926a63974a7f0'),
    ('local', 8, 'negdeglex', 653, '2ea4070fe131d789'),
    ('local', 13, 'negdeglex', 2746, '5c5da2bee4a113bf'),
    ('local', 18, 'negdeglex', 1453, '3b0c79ef5dad35bc'),
    ('local', 20, 'negdeglex', 1055, 'b45336079a5a64d7'),
]


def code_ideal(seed, order):
    """Binomial generators of a k=1..2 code ideal, converted to the given order."""
    rng = random.Random(seed)
    k = rng.randint(1, 2)
    G = random_matrix(rng, rng.choice((2, 3, 5)), k, rng.randint(k + 1, 4))
    ring = Ring(G.p, G.n, order)
    return [ring.convert(f) for f in lex_code_basis(G)]


def random_ideal(seed, order):
    rng = random.Random(seed)
    ring = Ring(rng.choice((2, 3, 5, 7)), rng.randint(2, 3), order)
    return [random_nonzero_poly(ring, rng, max_terms=4, max_deg=3) for _ in range(rng.randint(3, 4))]


def local_ideal(seed, order):
    rng = random.Random(seed)
    ring = Ring(rng.choice((2, 3, 5, 7)), rng.randint(2, 3), order)
    return [random_local_divisor(ring, rng, max_terms=4, max_deg=4) for _ in range(rng.randint(2, 4))]


@pytest.mark.parametrize("kind, seed, order, length, digest", GOLDEN_COMPLETION)
def test_golden_completion(kind, seed, order, length, digest):
    lines = []
    if kind == "local":
        basis = standard_basis(local_ideal(seed, Order(order)), trace=lines.append)
    else:
        gens = (code_ideal if kind == "code" else random_ideal)(seed, Order(order))
        basis = groebner(gens, trace=lines.append)
    text = "\n".join(print_poly(f) for f in basis) + "\n--\n" + "\n".join(lines)
    assert (len(text), hashlib.sha256(text.encode()).hexdigest()[:16]) == (length, digest)
