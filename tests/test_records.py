"""The six result and context records: named tuples with the fields, reprs and checks
they had as frozen dataclasses."""

import pytest

from codegb import (
    DivisionResult,
    GeneratorMatrix,
    MatrixFormatError,
    Order,
    PrimeField,
    VerificationReport,
    WeakNormalForm,
    divide,
    parse_poly,
    verify_closed_form,
    weak_normal_form,
)
from codegb.mora import BasisCheck
from codegb.poly import Ring


def test_the_six_records_keep_their_contract():
    local, lex = Ring(3, 1, Order.NEGDEGLEX), Ring(3, 1, Order.LEX)
    G = GeneratorMatrix(3, 1, 3, ((1, 1, 2),))
    records = {
        PrimeField(5): ("PrimeField(p=5)", ("p",)),
        G: ("GeneratorMatrix(p=3, k=1, n=3, rows=((1, 1, 2),))", ("p", "k", "n", "rows")),
        verify_closed_form(G): (
            "VerificationReport(generators_match=True, standard_basis_ok=True, "
            "leading_terms_ok=True, detail='')",
            ("generators_match", "standard_basis_ok", "leading_terms_ok", "detail"),
        ),
        BasisCheck(False, "x"): ("BasisCheck(ok=False, detail='x')", ("ok", "detail")),
        weak_normal_form(parse_poly("X1", local), [parse_poly("X1+2X1^2", local)]): (
            "WeakNormalForm(normal_form=Polynomial(0), unit=Polynomial(1+2X1), "
            "coefficients=(Polynomial(1),), recorded=1)",
            ("normal_form", "unit", "coefficients", "recorded"),
        ),
        divide(parse_poly("X1^2+1", lex), [parse_poly("X1", lex)]): (
            "DivisionResult(quotients=(Polynomial(X1),), remainder=Polynomial(1))",
            ("quotients", "remainder"),
        ),
    }
    assert len({type(record) for record in records}) == 6
    for record, (text, fields) in records.items():
        assert repr(record) == text
        assert type(record)._fields == fields
        copy = type(record)(*record)
        assert copy == record and hash(copy) == hash(record)
        with pytest.raises(AttributeError):
            setattr(record, fields[0], record[0])
        with pytest.raises(AttributeError):  # no instance dict either
            record.extra = 1

    assert BasisCheck(True) == (True, "") and bool(BasisCheck(True)) is True
    assert bool(BasisCheck(False, "x")) is False  # a non-empty tuple would be true
    report = VerificationReport(True, False, True)
    assert report.detail == "" and report.ok is False
    assert bool(report) is False and bool(verify_closed_form(G)) is True  # as for BasisCheck


def test_the_validating_records_refuse_with_their_messages():
    with pytest.raises(ValueError, match=r"^modulus 4 is not prime$"):
        PrimeField(4)
    with pytest.raises(MatrixFormatError, match=r"^p=4 is not prime$"):
        GeneratorMatrix(4, 1, 2, ((1, 1),))
    not_standard = r"^not in standard form: row 1 col 1 is 2, expected 1$"
    with pytest.raises(MatrixFormatError, match=not_standard):
        GeneratorMatrix(3, 1, 2, ((2, 1),))
    # _replace builds through the same checks
    with pytest.raises(MatrixFormatError, match=r"^entry 3 at row 1 col 2 is outside \[0, 3\)$"):
        GeneratorMatrix(3, 1, 2, ((1, 1),))._replace(rows=((1, 3),))
    with pytest.raises(ValueError, match=r"^modulus 9 is not prime$"):
        PrimeField(5)._replace(p=9)
    # a modulus that is not an int is refused by the primality test both share
    with pytest.raises(TypeError, match=r"^modulus must be an int, not 3\.0$"):
        PrimeField(3.0)
    with pytest.raises(TypeError, match=r"^modulus must be an int, not 3\.0$"):
        GeneratorMatrix(3.0, 1, 2, ((1, 1),))
