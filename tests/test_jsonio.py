import pytest

from oredim.chains import build_koszul
from oredim.errors import SchemaError
from oredim.fields import PrimeField, Rationals
from oredim.jsonio import (decode_complex, decode_field, decode_group,
                           decode_matrix, encode_complex, encode_field,
                           parse_fraction)


def minimal_matrix(**overrides):
    payload = {"group": {"type": "Zd", "d": 1}, "field": {"type": "Fp", "p": 2},
               "rows": 1, "cols": 1,
               "entries": [{"row": 0, "col": 0,
                            "terms": [{"coeff": 1, "g": [1]}]}]}
    payload.update(overrides)
    return payload


def test_field_decoding():
    assert decode_field({"type": "Fp", "p": 7}) == PrimeField(7)
    assert decode_field({"type": "Q"}) == Rationals()
    assert encode_field(PrimeField(7)) == {"type": "Fp", "p": 7}
    with pytest.raises(SchemaError, match="field.type"):
        decode_field({"type": "R"})
    with pytest.raises(SchemaError, match="field.p"):
        decode_field({"type": "Fp", "p": 6})
    with pytest.raises(SchemaError, match="missing key"):
        decode_field({"p": 7})


def test_group_decoding():
    with pytest.raises(SchemaError, match="group.type"):
        decode_group({"type": "free"})
    with pytest.raises(SchemaError, match="group.d"):
        decode_group({"type": "Zd", "d": 0})


def test_matrix_position_checks():
    with pytest.raises(SchemaError, match=r"entries\[0\]"):
        decode_matrix(minimal_matrix(entries=[
            {"row": 5, "col": 0, "terms": []}]))
    with pytest.raises(SchemaError, match="duplicate"):
        decode_matrix(minimal_matrix(entries=[
            {"row": 0, "col": 0, "terms": []},
            {"row": 0, "col": 0, "terms": []}]))


def test_element_arity_error_names_path():
    with pytest.raises(SchemaError, match=r"entries\[0\].terms\[0\].g"):
        decode_matrix(minimal_matrix(entries=[
            {"row": 0, "col": 0, "terms": [{"coeff": 1, "g": [1, 2]}]}]))


def test_term_coefficients_accumulate():
    m = decode_matrix(minimal_matrix(entries=[
        {"row": 0, "col": 0,
         "terms": [{"coeff": 1, "g": [1]}, {"coeff": 1, "g": [1]}]}]))
    assert m.is_zero()  # 1 + 1 == 0 in F_2
    # Over Q, 1/2 - 1/3 - 1/6 == 0 drops the whole entry at (0, 0) and the
    # entry at (0, 1) stays; over F_3, the terms at g = 0 sum to 2 + 2 == 1
    # and those at g = 1 to 1 + 2 == 0.
    m = decode_matrix(minimal_matrix(field={"type": "Q"}, cols=2, entries=[
        {"row": 0, "col": 0,
         "terms": [{"coeff": "1/2", "g": [2]}, {"coeff": "-1/3", "g": [2]},
                   {"coeff": "-1/6", "g": [2]}]},
        {"row": 0, "col": 1, "terms": [{"coeff": 1, "g": [0]}]}]))
    assert list(m.entries) == [(0, 1)]
    m = decode_matrix(minimal_matrix(field={"type": "Fp", "p": 3}, entries=[
        {"row": 0, "col": 0,
         "terms": [{"coeff": 2, "g": [0]}, {"coeff": 2, "g": [0]},
                   {"coeff": 1, "g": [1]}, {"coeff": 2, "g": [1]}]}]))
    assert m.entries[(0, 0)].terms == {(0,): 1}


def test_complex_round_trip_and_errors():
    complex_ = build_koszul(2, PrimeField(3))
    again = decode_complex(encode_complex(complex_))
    assert again.ranks == complex_.ranks
    assert list(again.differentials) == list(complex_.differentials)

    payload = encode_complex(complex_)
    payload["differentials"][0]["field"] = {"type": "Q"}
    with pytest.raises(SchemaError, match=r"differentials\[0\]"):
        decode_complex(payload)

    payload = encode_complex(complex_)
    payload["ranks"] = [1, 5, 1]
    with pytest.raises(SchemaError, match="shape"):
        decode_complex(payload)


def test_parse_fraction():
    from fractions import Fraction
    assert parse_fraction("3/4", "x") == Fraction(3, 4)
    assert parse_fraction(5, "x") == Fraction(5)
    with pytest.raises(SchemaError):
        parse_fraction("a/b", "x")
    with pytest.raises(SchemaError):
        parse_fraction(1.5, "x")
