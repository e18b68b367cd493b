import copy
import random
from fractions import Fraction

import pytest

from helpers import oracle_decode_matrix, random_element
from oredim.chains import build_koszul
from oredim.errors import SchemaError
from oredim.fields import PrimeField, Rationals
from oredim.groupring import GroupRingElement, GroupRingMatrix, to_laurent
from oredim.groups import DihedralInfinite, Heisenberg, Zd
from oredim.jsonio import (decode_complex, decode_field, decode_group,
                           decode_matrix, encode_complex, encode_field,
                           encode_group, parse_fraction)
from oredim.linalg import LaurentMatrix


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


@pytest.mark.parametrize("group,g,path", [
    (Zd(1), [True], r"entries\[0\].terms\[0\].g\[0\]"),
    (Zd(2), [0, 1.5], r"entries\[0\].terms\[0\].g\[1\]"),
    (Zd(1), ["1"], r"entries\[0\].terms\[0\].g\[0\]"),
    (Zd(1), 1, r"entries\[0\].terms\[0\].g: expected an array"),
    (DihedralInfinite(), [0, 2], r"entries\[0\].terms\[0\].g: not an infinite"),
    (Heisenberg(), [0, 0], r"entries\[0\].terms\[0\].g: not a Heisenberg"),
], ids=("bool", "float", "string", "scalar", "dinf-s", "heis-arity"))
def test_malformed_element_names_path(group, g, path):
    with pytest.raises(SchemaError, match=path):
        decode_matrix(minimal_matrix(group=encode_group(group), entries=[
            {"row": 0, "col": 0, "terms": [{"coeff": 1, "g": g}]}]))


def _random_payload(rng, field, group, nrows=3, ncols=3):
    """A wire-format matrix whose entries repeat group elements: some
    repeats add up, and some cancel a term exactly."""
    entries, expected = [], {}
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < 0.3:
                continue
            terms, raw = [], {}
            for _ in range(rng.randrange(1, 6)):
                g = random_element(rng, group, span=1)
                if isinstance(field, PrimeField):
                    c = rng.randint(-2 * field.p, 2 * field.p)
                    wire = c
                else:
                    c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    wire = f"{c.numerator}/{c.denominator}"
                terms.append((g, wire, c))
                if rng.random() < 0.3:
                    cancel = -c if isinstance(field, Rationals) else field.p - c
                    wire = (cancel if isinstance(field, PrimeField)
                            else f"{cancel.numerator}/{cancel.denominator}")
                    terms.append((g, wire, cancel))
            rng.shuffle(terms)
            for g, _, c in terms:
                raw[g] = raw.get(g, 0) + c
            expected[(i, j)] = GroupRingElement(field, group, raw)
            entries.append({"row": i, "col": j,
                            "terms": [{"coeff": w, "g": list(g)} for g, w, _ in terms]})
    payload = {"group": encode_group(group), "field": encode_field(field),
               "rows": nrows, "cols": ncols, "entries": entries}
    return payload, GroupRingMatrix(field, group, nrows, ncols, expected)


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), Rationals()],
                         ids=repr)
@pytest.mark.parametrize("group", [Zd(1), Zd(3), DihedralInfinite(), Heisenberg()],
                         ids=repr)
def test_decoded_matrix_equals_validating_constructors(field, group):
    # decode_matrix checks each term once and builds its elements without
    # the constructors' checks; the result must be what they would build.
    rng = random.Random(1313)
    value_type = Fraction if isinstance(field, Rationals) else int
    for _ in range(25):
        payload, expected = _random_payload(rng, field, group)
        decoded = decode_matrix(payload)
        assert decoded == expected
        for el in decoded.entries.values():
            assert el.terms and all(type(v) is value_type and v == field.normalize(v)
                                    for v in el.terms.values())
        if isinstance(group, Zd):
            laurent = to_laurent(decoded)
            reference = LaurentMatrix(field, group.d, decoded.nrows, decoded.ncols,
                                      {k: el.terms for k, el in expected.entries.items()})
            assert (laurent.field, laurent.nvars, laurent.nrows, laurent.ncols) == \
                (field, group.d, decoded.nrows, decoded.ncols)
            assert laurent.entries == reference.entries


def _mutate(rng, payload, group):
    """``payload`` with one seeded defect, or none: the kinds of input the
    one-walk decode must send to the checked walk."""
    entries = payload["entries"]
    if not entries:
        return payload
    ent = rng.choice(entries)
    term = rng.choice(ent["terms"])
    kind = rng.randrange(17)
    if kind == 0:
        term["g"][rng.randrange(len(term["g"]))] = rng.choice([True, False, 1.5, "1", None])
    elif kind == 1:
        term["coeff"] = rng.choice([True, 1.5, None, "x", "1/0", [1], {"n": 1}])
    elif kind == 2:
        term["g"] = term["g"] + [0] if rng.random() < 0.5 else term["g"][:-1]
    elif kind == 3:
        term["g"][-1] = 2 if group.kind == "Dinf" else -1
    elif kind == 4:
        twin = dict(rng.choice(entries))
        entries.insert(rng.randrange(len(entries) + 1), twin)
        if rng.random() < 0.5:
            twin["terms"] = []
    elif kind == 5:
        ent["terms"] = []
        entries.append({"row": ent["row"], "col": ent["col"], "terms": []})
    elif kind == 6:
        ent[rng.choice(["row", "col"])] = rng.choice(
            [payload["rows"], payload["cols"], -1, 10**20])
    elif kind == 7:
        ent[rng.choice(["row", "col"])] = rng.choice([True, 0.0, "0", None])
    elif kind == 8:
        ent["terms"][ent["terms"].index(term)] = rng.choice([[1], 1, "t", None])
    elif kind == 9:
        del term[rng.choice(["g", "coeff"])]
    elif kind == 10:
        del ent[rng.choice(["row", "col", "terms"])]
    elif kind == 11:
        ent["terms"] = rng.choice([{}, "terms", None, 0])
    elif kind == 12:
        entries[entries.index(ent)] = rng.choice([[0, 0], "entry", None, 1])
    elif kind == 13:
        # a repeated g, and one that cancels to zero
        ent["terms"].append(copy.deepcopy(term))
        if isinstance(term["coeff"], int):
            ent["terms"].append({"g": list(term["g"]), "coeff": -2 * term["coeff"]})
    elif kind == 14:
        term["g"] = rng.choice([1, "g", None, {"0": 0}])
    elif kind == 15:
        ent["extra"] = 1
    return payload


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(1000003), Rationals()],
                         ids=repr)
@pytest.mark.parametrize("group", [Zd(1), Zd(3), DihedralInfinite(), Heisenberg()],
                         ids=repr)
def test_decode_matrix_matches_checked_oracle(field, group):
    # the one-walk decode agrees with the decoder that checks every node
    # with its path (helpers.oracle_decode_matrix) on seeded mutations of
    # valid payloads: the same matrix, or a SchemaError with the same text
    rng = random.Random(2024)
    raised = 0
    for _ in range(150):
        payload, _ = _random_payload(rng, field, group, rng.randrange(1, 4),
                                     rng.randrange(1, 4))
        payload = _mutate(rng, payload, group)
        outcomes = []
        for decode in (decode_matrix, oracle_decode_matrix):
            try:
                outcomes.append(decode(copy.deepcopy(payload)))
            except SchemaError as exc:
                outcomes.append(("SchemaError", str(exc)))
        assert outcomes[0] == outcomes[1], payload
        raised += isinstance(outcomes[0], tuple)
    assert 50 < raised < 150


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
