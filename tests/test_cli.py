import argparse
import json
import random
import time

import pytest

from oredim import cli
from oredim.chains import build_degree_p_attachment
from oredim.fields import PrimeField, Rationals
from oredim.groupring import GroupRingElement, GroupRingMatrix, to_laurent
from oredim.groups import DihedralInfinite, Zd
from oredim.jsonio import encode_complex, encode_matrix

F2 = PrimeField(2)
F3 = PrimeField(3)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def z_module_path(tmp_path):
    matrix = GroupRingMatrix(F2, Zd(1), 1, 1, {
        (0, 0): GroupRingElement(F2, Zd(1), {(1,): 1, (0,): 1})})
    return write_json(tmp_path / "zminus1.json", encode_matrix(matrix))


@pytest.fixture
def dihedral_module_path(tmp_path):
    matrix = GroupRingMatrix(F3, DihedralInfinite(), 1, 1, {
        (0, 0): GroupRingElement(F3, DihedralInfinite(), {(0, 1): 1, (0, 0): -1})})
    return write_json(tmp_path / "sminus1.json", encode_matrix(matrix))


@pytest.fixture
def heisenberg_module_path(tmp_path):
    from oredim.groups import Heisenberg
    matrix = GroupRingMatrix(F2, Heisenberg(), 1, 1, {
        (0, 0): GroupRingElement(F2, Heisenberg(), {(1, 0, 0): 1, (0, 0, 0): 1})})
    return write_json(tmp_path / "heis.json", encode_matrix(matrix))


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ore_command(z_module_path, capsys):
    code, out, _ = run(capsys, ["ore", "--input", z_module_path])
    assert code == 0
    assert out.splitlines() == [
        "method,level,normalizer,raw,normalized,certified",
        "ore,0,1,0,0/1,true"]


def test_approx_command_quotient_rows(z_module_path, capsys):
    code, out, _ = run(capsys, ["approx", "--input", z_module_path,
                                "--levels", "2,4,8"])
    assert code == 0
    lines = out.splitlines()
    assert "quotient-betti,2,2,1,1/2,true" in lines
    assert "quotient-betti,4,4,1,1/4,true" in lines
    assert "quotient-betti,8,8,1,1/8,true" in lines


def test_approx_writes_csv_file(z_module_path, tmp_path, capsys):
    out_path = tmp_path / "t.csv"
    code, out, _ = run(capsys, ["approx", "--input", z_module_path,
                                "--levels", "2,4,8", "--out", str(out_path)])
    assert code == 0 and out == ""
    content = out_path.read_text()
    assert content.startswith("method,level,normalizer,raw,normalized,certified\n")
    assert "quotient-betti,8,8,1,1/8,true" in content


def test_unsupported_operation_exit_3(heisenberg_module_path, capsys):
    code, _, err = run(capsys, ["ore", "--input", heisenberg_module_path])
    assert code == 3
    assert err.strip() == \
        "Ore dimension directly computable only for Zd; use approximation"


def test_approx_heisenberg_default_levels(tmp_path, capsys):
    # Without --levels a Heisenberg module gets its own default levels
    # 2,4,6,8; at the Z^d defaults the level-32 Foelner box holds 32^4
    # elements and the command does not finish.
    from oredim.groups import Heisenberg
    heis = Heisenberg()
    matrix = GroupRingMatrix(F2, heis, 1, 2, {
        (0, 0): GroupRingElement(F2, heis, {(1, 0, 0): 1, (0, 0, 0): 1}),
        (0, 1): GroupRingElement(F2, heis, {(0, 1, 0): 1, (0, 0, 0): 1})})
    path = write_json(tmp_path / "heis12.json", encode_matrix(matrix))
    start = time.perf_counter()
    code, out, _ = run(capsys, ["approx", "--input", path])
    assert time.perf_counter() - start < 2
    assert code == 0
    assert out.splitlines() == [
        "method,level,normalizer,raw,normalized,certified",
        "quotient-betti,2,8,9,9/8,true",
        "quotient-betti,4,64,65,65/64,true",
        "quotient-betti,6,216,217,217/216,true",
        "quotient-betti,8,512,513,513/512,true",
        "elek-truncation,2,16,16,1/1,true",
        "elek-truncation,4,256,256,1/1,true",
        "elek-truncation,6,1296,1296,1/1,true",
        "elek-truncation,8,4096,4096,1/1,true"]


def test_schema_error_exit_2_names_path(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json", {
        "group": {"type": "Zd", "d": 1}, "field": {"type": "Fp", "p": 2},
        "rows": 1, "cols": 1,
        "entries": [{"row": 0, "col": 0,
                     "terms": [{"coeff": True, "g": [1]}]}]})
    code, _, err = run(capsys, ["ore", "--input", bad])
    assert code == 2
    assert "entries[0].terms[0].coeff" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, ["ore", "--input", "/nonexistent/mod.json"])
    assert code == 2 and "error:" in err


def test_unwritable_output_exit_2_names_path(z_module_path, tmp_path, capsys):
    out = str(tmp_path / "missing" / "x.csv")
    code, stdout, err = run(capsys, ["ore", "--input", z_module_path, "--out", out])
    assert (code, stdout) == (2, "")
    assert err == f"error: {out}: cannot write output: No such file or directory\n"


def test_non_utf8_input_exit_2_names_path(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"group": "\xff"}')
    code, _, err = run(capsys, ["ore", "--input", str(path)])
    assert code == 2
    assert err.startswith(f"error: {path}: cannot read input: 'utf-8' codec can't decode "
                          "byte 0xff in position 11")


def test_invalid_levels_exit_2(z_module_path, capsys):
    code, _, err = run(capsys, ["approx", "--input", z_module_path,
                                "--levels", "4,2"])
    assert code == 2 and "--levels" in err


def test_invalid_levels_reported_before_tol(z_module_path, capsys):
    code, out, err = run(capsys, ["approx", "--input", z_module_path,
                                  "--levels", "4,2", "--tol", "0"])
    assert code == 2 and out == ""
    assert "--levels" in err and "--tol" not in err


def test_invalid_tol_exit_2(z_module_path, capsys):
    code, _, err = run(capsys, ["approx", "--input", z_module_path,
                                "--tol", "0"])
    assert code == 2 and "--tol" in err


def test_vdim_command(dihedral_module_path, capsys):
    code, out, _ = run(capsys, ["vdim", "--input", dihedral_module_path])
    assert code == 0
    assert "virtual-ore,0,2,1,1/2,true" in out.splitlines()


def test_vdim_command_plane_pins_index_normalizer(tmp_path, capsys):
    # [z1-1, z2-1] over F_2 restricted to (2Z)^2: index 4, dimension 0
    group = Zd(2)
    matrix = GroupRingMatrix(F2, group, 1, 2, {
        (0, 0): GroupRingElement(F2, group, {(1, 0): 1, (0, 0): -1}),
        (0, 1): GroupRingElement(F2, group, {(0, 1): 1, (0, 0): -1})})
    path = write_json(tmp_path / "plane.json", encode_matrix(matrix))
    code, out, _ = run(capsys, ["vdim", "--input", path])
    assert code == 0
    assert out.splitlines() == [
        "method,level,normalizer,raw,normalized,certified",
        "virtual-ore,0,4,4,1/1,true"]


def test_approx_dihedral_target_row(dihedral_module_path, capsys):
    code, out, _ = run(capsys, ["approx", "--input", dihedral_module_path,
                                "--levels", "2,4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "virtual-ore,0,2,1,1/2,true"
    assert lines[2:] == [
        "quotient-betti,2,4,2,1/2,true", "quotient-betti,4,8,4,1/2,true",
        "elek-truncation,2,4,2,1/2,true", "elek-truncation,4,8,4,1/2,true"]


def test_folner_command(z_module_path, capsys):
    code, out, _ = run(capsys, ["folner", "--input", z_module_path,
                                "--levels", "4,8"])
    assert code == 0
    lines = out.splitlines()
    assert "elek-truncation,4,4,0,0/1,true" in lines
    assert "elek-truncation,8,8,0,0/1,true" in lines


def test_homology_command(tmp_path, capsys):
    complex_path = write_json(
        tmp_path / "cx.json",
        encode_complex(build_degree_p_attachment(2, 2, F2)))
    code, out, _ = run(capsys, ["homology", "--input", complex_path,
                                "--levels", "2,4"])
    assert code == 0
    lines = out.splitlines()
    assert "ore-h2,0,1,1,1/1,true" in lines
    assert "ore-h3,0,1,1,1/1,true" in lines
    assert "quotient-h2,4,4,4,1/1,true" in lines


def test_homology_command_full_csv(tmp_path, capsys):
    # the ore-h rows first, then the quotient-h rows level by level
    complex_path = write_json(
        tmp_path / "cx.json",
        encode_complex(build_degree_p_attachment(2, 2, F2)))
    code, out, _ = run(capsys, ["homology", "--input", complex_path,
                                "--levels", "2,4"])
    assert code == 0
    assert out == (
        "method,level,normalizer,raw,normalized,certified\n"
        "ore-h0,0,1,0,0/1,true\n"
        "ore-h1,0,1,0,0/1,true\n"
        "ore-h2,0,1,1,1/1,true\n"
        "ore-h3,0,1,1,1/1,true\n"
        "quotient-h0,2,2,1,1/2,true\n"
        "quotient-h1,2,2,1,1/2,true\n"
        "quotient-h2,2,2,2,1/1,true\n"
        "quotient-h3,2,2,2,1/1,true\n"
        "quotient-h0,4,4,1,1/4,true\n"
        "quotient-h1,4,4,1,1/4,true\n"
        "quotient-h2,4,4,4,1/1,true\n"
        "quotient-h3,4,4,4,1/1,true\n")


def test_betti_finite_command(tmp_path, capsys):
    request = write_json(tmp_path / "betti.json", {
        "d": 2, "n": [2, 4], "i_max": 2, "field": {"type": "Fp", "p": 2}})
    code, out, _ = run(capsys, ["betti-finite", "--input", request])
    assert code == 0
    lines = out.splitlines()
    assert "finite-betti-b1,2,4,2,1/2,true" in lines
    assert "finite-betti-b2,4,16,3,3/16,true" in lines


def test_betti_finite_empty_level_list_exit_2(tmp_path, capsys):
    request = write_json(tmp_path / "betti.json", {
        "d": 1, "n": [], "i_max": 1, "field": {"type": "Fp", "p": 2}})
    code, out, err = run(capsys, ["betti-finite", "--input", request])
    assert code == 2 and out == ""
    assert "error: n: need at least one level" in err


def test_json_report_reparses(z_module_path, capsys):
    code, out, _ = run(capsys, ["approx", "--input", z_module_path,
                                "--levels", "2,4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert any(r["method"] == "ore" for r in payload["records"])
    assert payload["tol"] == "1/20"
    assert set(payload["agreement"]) == {"quotient-betti", "elek-truncation"}


def test_approx_json_full_text(z_module_path, capsys):
    def record(method, level, normalizer, raw, normalized):
        return (f'    {{\n      "certified": true,\n      "level": {level},\n'
                f'      "method": "{method}",\n      "normalized": "{normalized}",\n'
                f'      "normalizer": {normalizer},\n      "raw": {raw}\n    }}')

    code, out, _ = run(capsys, ["approx", "--input", z_module_path,
                                "--levels", "2,4", "--format", "json"])
    assert code == 0
    records = [record("ore", 0, 1, 0, "0/1"),
               record("quotient-betti", 2, 2, 1, "1/2"),
               record("quotient-betti", 4, 4, 1, "1/4"),
               record("elek-truncation", 2, 2, 0, "0/1"),
               record("elek-truncation", 4, 4, 0, "0/1")]
    assert out == (
        '{\n  "agreement": {\n    "elek-truncation": true,\n'
        '    "quotient-betti": false\n  },\n  "records": [\n'
        + ",\n".join(records) + '\n  ],\n  "tol": "1/20"\n}\n')


# the subcommands and the options each one reads; --rank-alg is gone from
# all of them
ACCEPTED = {
    "ore": {"--seed", "--out", "--format"},
    "vdim": {"--seed", "--out", "--format"},
    "betti-finite": {"--seed", "--out", "--format"},
    "folner": {"--levels", "--seed", "--out", "--format"},
    "homology": {"--levels", "--seed", "--out", "--format"},
    "approx": {"--levels", "--seed", "--tol", "--out", "--format"},
}
OPTION_VALUES = {"--levels": "2", "--seed": "1", "--tol": "1/2", "--out": "o.csv",
                 "--format": "json", "--rank-alg": "auto"}


def test_each_subcommand_accepts_only_its_options():
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(ACCEPTED)
    with pytest.raises(SystemExit) as exc:
        cli.main(["selftest"])
    assert exc.value.code == 2
    for command, accepted in ACCEPTED.items():
        for option, value in OPTION_VALUES.items():
            try:
                parser.parse_args([command, "--input", "in.json", option, value])
                ok = True
            except SystemExit:
                ok = False
            assert ok == (option in accepted), (command, option)


def _parse(parse, argv, capsys):
    """(namespace or exit code, stdout, stderr) of one parse."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("command", sorted(ACCEPTED))
def test_parser_for_one_command_matches_full_parser(command, capsys):
    # main parses a request with one parser that has only the invoked
    # subcommand's options; on every argv it must behave as the full parser.
    base = [command, "--input", "in.json"]
    every = base + [x for o in sorted(ACCEPTED[command]) for x in (o, OPTION_VALUES[o])]
    cases = [base, every, [command, "--help"], ["--help"], [command], []]
    cases += [base + [option, value] for option, value in OPTION_VALUES.items()]
    cases += [[command, "--input=in.json"], [command, "--inp", "in.json"],
              base + ["--seed", "1", "--seed", "2"], base + ["--", "x"],
              base + ["stray"], base + ["--bogus"]]
    corpus = _random_argvs(random.Random(command), command, 200)
    # both routes are taken: argv read directly and argv left to argparse
    assert 20 < sum(cli._read_args(argv) is not None for argv in corpus) < 180
    for argv in cases + corpus:
        got = _parse(cli._parse_args, argv, capsys)
        want = _parse(cli.build_parser().parse_args, argv, capsys)
        assert got == want, argv


GOOD_VALUES = {"--input": ["in.json", ""], "--levels": ["2,4", ""], "--seed": ["3", "+3", " 7"],
               "--tol": ["1/2"], "--out": ["o.csv", ""], "--format": ["csv", "json"]}
BAD_VALUES = ["-1", "1.5", "x", "", "xml", "-", "--", "-h", "--seed"]


def _random_argvs(rng, command, count):
    """Seeded command lines for ``command``: its options and others in any
    order and repeated, with good and bad values, as --name=value or
    abbreviated, with --, stray words and -h mixed in."""
    own = sorted(ACCEPTED[command] | {"--input"})
    names = own + ["--rank-alg", "--bogus"]
    argvs = []
    for _ in range(count):
        argv = ["--input", "in.json"] if rng.random() < 0.8 else []
        for _ in range(rng.randrange(4)):
            name = rng.choice(own)
            argv += [name, rng.choice(GOOD_VALUES[name])]
        if rng.random() < 0.5:
            name, value = rng.choice(names), rng.choice(BAD_VALUES + GOOD_VALUES["--out"])
            argv += rng.choice([[f"{name}={value}"], [name[:rng.randrange(3, len(name))], value],
                                [rng.choice(["--", "stray", "-h", "--help"])], [name],
                                [name, value]])
        if rng.random() < 0.5:
            pairs = [argv[k:k + 2] for k in range(0, len(argv), 2)]
            rng.shuffle(pairs)
            argv = [x for pair in pairs for x in pair]
        argvs.append([command] + argv)
    return argvs


@pytest.mark.parametrize("columns", ["50", "120"])
def test_help_width_is_the_terminal_width(columns, monkeypatch, capsys):
    # the parsers read the width once; the help must wrap as argparse's own
    # formatter, which reads it per call, would wrap it.
    monkeypatch.setenv("COLUMNS", columns)
    for argv in (["--help"], ["approx", "--help"]):
        full = cli.build_parser()
        [sub] = [a for a in full._actions if isinstance(a, argparse._SubParsersAction)]
        for p in (full, *sub.choices.values()):
            p.formatter_class = argparse.HelpFormatter
        got = _parse(cli._parse_args, argv, capsys)
        assert got == _parse(full.parse_args, argv, capsys), argv
        assert got[0] == 0 and got[1].startswith("usage: "), argv


def test_well_formed_request_builds_no_parser(z_module_path, capsys, monkeypatch):
    # _read_args reads a well-formed request; argparse only reports errors
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    code, out, _ = run(capsys, ["ore", "--input", z_module_path, "--seed", "1"])
    assert code == 0 and out.startswith("method,")
    assert built == []


def test_main_reads_sys_argv(z_module_path, capsys, monkeypatch):
    argv = ["ore", "--input", z_module_path, "--format", "json"]
    expected = run(capsys, argv)
    monkeypatch.setattr("sys.argv", ["oredim"] + argv)
    assert run(capsys, None) == expected
    assert expected[0] == 0 and '"method": "ore"' in expected[1]


@pytest.mark.parametrize("option", [["--tol", "1/2"], ["--levels", "2"],
                                    ["--rank-alg", "auto"]], ids=lambda o: o[0])
def test_ore_rejects_options_it_does_not_read(z_module_path, capsys, option):
    with pytest.raises(SystemExit) as exc:
        cli.main(["ore", "--input", z_module_path] + option)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("d,terms", [
    (2, {(10**17, 0): 1, (0, 1): 1}),
    (1, {(10**17,): 1, (0,): 1}),
], ids=("bivariate", "univariate-prob"))
def test_ore_huge_degree_needs_no_lex_search(tmp_path, capsys, d, terms):
    # the trial points lie in F_{p^4}, p = 1000003 = 3 (mod 4), where no
    # x^4 + c is irreducible, so a search in lex order would test a million
    # candidates.
    # rank_laurent answers any 1x1 exactly, so the univariate case calls
    # the evaluation directly.
    from oredim import linalg

    field = PrimeField(1000003)
    matrix = GroupRingMatrix(field, Zd(d), 1, 1, {
        (0, 0): GroupRingElement(field, Zd(d), terms)})
    path = write_json(tmp_path / "huge.json", encode_matrix(matrix))
    linalg._find_irreducible.cache_clear()
    start = time.perf_counter()
    if d == 1:
        report = linalg.rank_laurent_probabilistic(to_laurent(matrix))
        assert report.rank == 1 and report.certified
    else:
        code, out, _ = run(capsys, ["ore", "--input", path])
        assert code == 0
        assert out.splitlines()[1] == "ore,0,1,0,0/1,true"
    assert time.perf_counter() - start < 2


def test_ore_q_degree_past_the_grid_is_certified_by_trials(tmp_path, capsys):
    # a 2x2 whose grid would need 10^6 + 1 points in x goes to the trials,
    # which raise points of F_l to powers up to 10^6 by binary powering
    field = Rationals()
    big = GroupRingElement(field, Zd(2), {(10**6, 0): 1, (0, 1): 1})
    y = GroupRingElement(field, Zd(2), {(0, 1): 1})
    one = GroupRingElement(field, Zd(2), {(0, 0): 1})
    matrix = GroupRingMatrix(field, Zd(2), 2, 2, {(0, 0): big, (0, 1): one,
                                                  (1, 0): one, (1, 1): y})
    path = write_json(tmp_path / "qhuge.json", encode_matrix(matrix))
    start = time.perf_counter()
    code, out, _ = run(capsys, ["ore", "--input", path])
    assert time.perf_counter() - start < 2
    assert code == 0
    assert out.splitlines()[1] == "ore,0,1,0,0/1,true"
    # the same entry as a 1x1 is a unit of Q(x, y): rank 1, certified
    single = GroupRingMatrix(field, Zd(2), 1, 1, {(0, 0): big})
    path = write_json(tmp_path / "qsingle.json", encode_matrix(single))
    code, out, _ = run(capsys, ["ore", "--input", path])
    assert code == 0
    assert out.splitlines()[1] == "ore,0,1,0,0/1,true"


def test_ore_q_sparse_high_degree_is_certified(tmp_path, capsys):
    # rows (x^N + 1, x^N + 1) and (1, 1), N = 10^5: the trials cannot
    # certify a rank below full and the grid would need 10^5 + 1 points;
    # capped Bareiss certifies rank 1
    field = Rationals()
    f = GroupRingElement(field, Zd(1), {(10**5,): 1, (0,): 1})
    one = GroupRingElement(field, Zd(1), {(0,): 1})
    matrix = GroupRingMatrix(field, Zd(1), 2, 2, {(0, 0): f, (0, 1): f,
                                                  (1, 0): one, (1, 1): one})
    path = write_json(tmp_path / "qsparse.json", encode_matrix(matrix))
    start = time.perf_counter()
    code, out, _ = run(capsys, ["ore", "--input", path])
    assert time.perf_counter() - start < 2
    assert code == 0
    assert out.splitlines()[1] == "ore,0,1,1,1/1,true"


def test_ore_extension_degree_past_16_exit_3(tmp_path, capsys):
    # rows (x^1100 + y, x^1100 + y) and (1, y) over F_2: the grid is past
    # the budget and the trials would need F_{2^17}
    f = GroupRingElement(F2, Zd(2), {(1100, 0): 1, (0, 1): 1})
    one = GroupRingElement(F2, Zd(2), {(0, 0): 1})
    y = GroupRingElement(F2, Zd(2), {(0, 1): 1})
    matrix = GroupRingMatrix(F2, Zd(2), 2, 2, {(0, 0): f, (0, 1): f, (1, 0): one, (1, 1): y})
    path = write_json(tmp_path / "deep.json", encode_matrix(matrix))
    code, out, err = run(capsys, ["ore", "--input", path])
    assert code == 3 and out == ""
    assert "D=1101" in err and "F_{2^17}" in err and "16" in err
