"""JSON encoding and decoding for the published wire formats.

Decoders raise ``SchemaError`` carrying the JSON path of the offending
node (e.g. ``entries[3].terms[0].g``), which the CLI surfaces verbatim.
A matrix's entries are decoded in one walk that formats no path; only an
array it finds malformed is walked again node by node to name the path.
Exact rationals always travel as "num/den" strings, never floats.
"""
from __future__ import annotations

from fractions import Fraction

from .chains import FreeChainComplex
from .errors import SchemaError
from .fields import Field, PrimeField, Rationals
from .groupring import GroupRingElement, GroupRingMatrix, PresentedModule
from .groups import DihedralInfinite, Group, Heisenberg, Zd, group_to_json


def _expect_object(obj, path):
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _expect_array(obj, path):
    if not isinstance(obj, list):
        raise SchemaError(path, f"expected an array, got {type(obj).__name__}")
    return obj


def _expect_int(obj, path, minimum=None):
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise SchemaError(path, f"expected an integer, got {obj!r}")
    if minimum is not None and obj < minimum:
        raise SchemaError(path, f"expected an integer >= {minimum}, got {obj}")
    return obj


def _get(obj, key, path):
    if key not in obj:
        raise SchemaError(path, f"missing key {key!r}")
    return obj[key]


def decode_field(obj, path="field") -> Field:
    obj = _expect_object(obj, path)
    kind = _get(obj, "type", path)
    if kind == "Q":
        return Rationals()
    if kind == "Fp":
        p = _expect_int(_get(obj, "p", path), f"{path}.p", minimum=2)
        try:
            return PrimeField(p)
        except ValueError as exc:
            raise SchemaError(f"{path}.p", str(exc)) from None
    raise SchemaError(f"{path}.type", f"unknown field type {kind!r}")


def encode_field(field: Field) -> dict:
    if isinstance(field, PrimeField):
        return {"type": "Fp", "p": field.p}
    if isinstance(field, Rationals):
        return {"type": "Q"}
    raise TypeError(f"unknown field {field!r}")


def decode_group(obj, path="group") -> Group:
    obj = _expect_object(obj, path)
    kind = _get(obj, "type", path)
    if kind == "Zd":
        d = _expect_int(_get(obj, "d", path), f"{path}.d", minimum=1)
        return Zd(d)
    if kind == "Dinf":
        return DihedralInfinite()
    if kind == "Heis":
        return Heisenberg()
    raise SchemaError(f"{path}.type", f"unknown group type {kind!r}")


encode_group = group_to_json


def decode_element(group: Group, obj, path):
    arr = _expect_array(obj, path)
    for k, x in enumerate(arr):
        if type(x) is not int:
            _expect_int(x, f"{path}[{k}]")
    try:
        return group.check_element(tuple(arr))
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None


def decode_scalar(field: Field, obj, path):
    try:
        return field.parse_value(obj)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None


def _decode_entries(field: Field, group: Group, rows: int, cols: int, raw):
    """The entries of a well-formed ``entries`` array by position, empty
    ones included, or None at the first anomaly.

    One walk over exact JSON types: ``type(x) is int`` keeps bools out, and
    no path is formatted.  ``_decode_entries_checked`` walks an anomalous
    array again to raise the ``SchemaError`` that names its path."""
    check, parse, add = group.check_element, field.parse_value, field.add
    entries = {}
    for ent in raw:
        if type(ent) is not dict:
            return None
        i, j, raw_terms = ent.get("row"), ent.get("col"), ent.get("terms")
        if (type(i) is not int or type(j) is not int or not 0 <= i < rows
                or not 0 <= j < cols or type(raw_terms) is not list or (i, j) in entries):
            return None
        terms = {}
        for term in raw_terms:
            if type(term) is not dict:
                return None
            g = term.get("g")
            if type(g) is not list:
                return None
            for x in g:
                if type(x) is not int:
                    return None
            try:
                g, coeff = check(g), parse(term.get("coeff"))
            except ValueError:
                return None
            terms[g] = add(terms[g], coeff) if g in terms else coeff
        entries[i, j] = GroupRingElement.from_checked(field, group, terms)
    return entries


def _decode_entries_checked(field: Field, group: Group, rows: int, cols: int, raw, prefix):
    """``_decode_entries`` node by node, raising the ``SchemaError`` that
    names the first malformed node's path."""
    entries = {}
    for k, ent in enumerate(raw):
        epath = f"{prefix}entries[{k}]"
        ent = _expect_object(ent, epath)
        i = _expect_int(_get(ent, "row", epath), f"{epath}.row", minimum=0)
        j = _expect_int(_get(ent, "col", epath), f"{epath}.col", minimum=0)
        if i >= rows or j >= cols:
            raise SchemaError(epath, f"position ({i},{j}) outside a {rows}x{cols} matrix")
        terms = {}
        for t, term in enumerate(_expect_array(_get(ent, "terms", epath), f"{epath}.terms")):
            tpath = f"{epath}.terms[{t}]"
            term = _expect_object(term, tpath)
            g = decode_element(group, _get(term, "g", tpath), f"{tpath}.g")
            coeff = decode_scalar(field, _get(term, "coeff", tpath), f"{tpath}.coeff")
            terms[g] = field.add(terms[g], coeff) if g in terms else coeff
        if (i, j) in entries:
            raise SchemaError(epath, f"duplicate entry at position ({i},{j})")
        entries[i, j] = GroupRingElement.from_checked(field, group, terms)
    return entries


def decode_matrix(obj, path="") -> GroupRingMatrix:
    prefix = f"{path}." if path else ""
    obj = _expect_object(obj, path or "matrix")
    field = decode_field(_get(obj, "field", path or "matrix"), f"{prefix}field")
    group = decode_group(_get(obj, "group", path or "matrix"), f"{prefix}group")
    rows = _expect_int(_get(obj, "rows", path or "matrix"), f"{prefix}rows", minimum=0)
    cols = _expect_int(_get(obj, "cols", path or "matrix"), f"{prefix}cols", minimum=0)
    raw = _expect_array(_get(obj, "entries", path or "matrix"), f"{prefix}entries")
    entries = _decode_entries(field, group, rows, cols, raw)
    if entries is None:
        entries = _decode_entries_checked(field, group, rows, cols, raw, prefix)
    # the elements are checked and share field and group, so the matrix
    # takes them without its constructor's second pass
    matrix = GroupRingMatrix(field, group, rows, cols)
    matrix.entries = {key: el for key, el in entries.items() if el.terms}
    return matrix


def encode_matrix(matrix: GroupRingMatrix) -> dict:
    entries = []
    for (i, j) in sorted(matrix.entries):
        el = matrix.entries[(i, j)]
        terms = [{"coeff": matrix.field.value_to_json(v), "g": list(g)}
                 for g, v in sorted(el.terms.items())]
        entries.append({"row": i, "col": j, "terms": terms})
    return {"group": encode_group(matrix.group),
            "field": encode_field(matrix.field),
            "rows": matrix.nrows, "cols": matrix.ncols,
            "entries": entries}


def decode_module(obj, path="") -> PresentedModule:
    return PresentedModule(decode_matrix(obj, path))


def decode_complex(obj, path="") -> FreeChainComplex:
    prefix = f"{path}." if path else ""
    obj = _expect_object(obj, path or "complex")
    field = decode_field(_get(obj, "field", path or "complex"), f"{prefix}field")
    group = decode_group(_get(obj, "group", path or "complex"), f"{prefix}group")
    ranks = _expect_array(_get(obj, "ranks", path or "complex"), f"{prefix}ranks")
    for k, r in enumerate(ranks):
        _expect_int(r, f"{prefix}ranks[{k}]", minimum=0)
    if not ranks:
        raise SchemaError(f"{prefix}ranks", "must be nonempty")
    raw_diffs = _expect_array(_get(obj, "differentials", path or "complex"),
                              f"{prefix}differentials")
    diffs = []
    for k, d in enumerate(raw_diffs):
        dpath = f"{prefix}differentials[{k}]"
        m = decode_matrix(d, dpath)
        if m.field != field or m.group != group:
            raise SchemaError(dpath, "field/group differs from the complex header")
        diffs.append(m)
    try:
        return FreeChainComplex(field, group, ranks, diffs)
    except ValueError as exc:
        raise SchemaError(path or "complex", str(exc)) from None


def encode_complex(complex_: FreeChainComplex) -> dict:
    return {"group": encode_group(complex_.group),
            "field": encode_field(complex_.field),
            "ranks": list(complex_.ranks),
            "differentials": [encode_matrix(d) for d in complex_.differentials]}


def decode_betti_request(obj, path=""):
    """Input schema of the betti-finite command:
    {"d": .., "n": [..] or int, "i_max": .., "field": {..}}."""
    prefix = f"{path}." if path else ""
    obj = _expect_object(obj, path or "request")
    d = _expect_int(_get(obj, "d", path or "request"), f"{prefix}d", minimum=1)
    raw_n = _get(obj, "n", path or "request")
    if isinstance(raw_n, list):
        if not raw_n:
            raise SchemaError(f"{prefix}n", "need at least one level")
        ns = [_expect_int(x, f"{prefix}n[{k}]", minimum=2)
              for k, x in enumerate(raw_n)]
    else:
        ns = [_expect_int(raw_n, f"{prefix}n", minimum=2)]
    i_max = _expect_int(_get(obj, "i_max", path or "request"),
                        f"{prefix}i_max", minimum=0)
    field = decode_field(_get(obj, "field", path or "request"), f"{prefix}field")
    return d, ns, i_max, field


def fraction_to_json(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(obj, path) -> Fraction:
    if isinstance(obj, bool):
        raise SchemaError(path, f"not a rational: {obj!r}")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError):
            raise SchemaError(path, f"not a rational: {obj!r}") from None
    raise SchemaError(path, f"not a rational: {obj!r}")
