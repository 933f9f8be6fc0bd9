"""Command-line surface: exit codes, JSON round-trips, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperquot import cli
from hyperquot.cli import main
from hyperquot.epoly import EPoly
from hyperquot.qseries import series_from_json, series_monomial
from hyperquot.smoothness import smoothness_status


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run(capsys, *args, "--format", "json")
    assert code in (0, 1), err
    return code, json.loads(out)


def test_compute_motivic(capsys):
    code, doc = run_json(
        capsys, "compute", "--genus", "0", "--degrees", "0,0", "--s", "1",
        "--dmax", "3", "--realization", "motivic",
    )
    assert code == 0
    assert doc["smoothness"]["status"] == "Smooth"
    series = series_from_json(doc["result"]["series"])
    expected = EPoly({(k, k): 1 for k in range(4)})
    assert series.coefficient((1,)) == expected
    vd = {tuple(row["d"]): row["vd"] for row in doc["result"]["virtual_dimensions"]}
    assert vd[(1,)] == 3


def test_compute_euler(capsys):
    code, doc = run_json(
        capsys, "compute", "--genus", "0", "--degrees", "0,0", "--s", "1",
        "--dmax", "3", "--realization", "euler",
    )
    assert code == 0
    series = series_from_json(doc["result"]["series"])
    assert [series.coefficient((d,)) for d in range(4)] == [
        EPoly.from_int(2 * d + 2) for d in range(4)
    ]


def test_compute_poincare_roundtrip(capsys):
    code, doc = run_json(
        capsys, "compute", "--genus", "0", "--degrees", "0,0", "--s", "1",
        "--dmax", "2", "--realization", "poincare",
    )
    assert code == 0
    table = {
        tuple(t["d"]): {int(u["e"]): int(u["c"]) for u in t["coeff"]}
        for t in doc["result"]["series"]["terms"]
    }
    assert table[(1,)] == {2 * k: 1 for k in range(4)}


def test_invalid_profile_exit_code(capsys):
    code, out, err = run(
        capsys, "compute", "--genus", "0", "--degrees", "0,0", "--s", "1,0",
        "--dmax", "2,2",
    )
    assert code == 2
    assert "error" in err


def test_missing_field_exit_code(capsys):
    code, out, err = run(capsys, "compute", "--genus", "0", "--degrees", "0,0")
    assert code == 2


def test_bad_window_exit_code(capsys):
    code, out, err = run(
        capsys, "compute", "--genus", "0", "--degrees", "0,0", "--s", "1",
        "--dmax", "2,2",
    )
    assert code == 2
    # an explicit lower bound above dmax, and a default one (the smallest
    # degree, 2) above dmax
    for extra, lo in [(["--degrees", "0,0", "--dmax", "1", "--dmin", "3"], "(3,)"),
                      (["--degrees", "2,2", "--dmax", "1"], "(2,)")]:
        code, out, err = run(capsys, "compute", "--genus", "0", "--s", "1", *extra)
        assert code == 2
        assert out == ""
        assert err == f"error: empty window: lo={lo}, hi=(1,)\n"


def test_laurent_specialization_exit_code(capsys):
    for fmt in ("text", "json"):
        code, out, err = run(
            capsys, "compute", "--genus", "2", "--degrees", "0,0", "--s", "1",
            "--dmax", "1", "--realization", "poincare", "--format", fmt,
        )
        assert code == 2
        assert "exponent" in err
        assert out == ""


PASSING_SUITES = [
    ("oracle", ["--genus", "2", "--degrees", "0,-1,1", "--s", "1,2", "--dmax", "2,2"]),
    ("genus0", ["--genus", "0", "--degrees", "0,0,0", "--s", "1,2", "--dmax", "3,3"]),
    ("euler_spec", ["--genus", "1", "--degrees", "0,2", "--s", "1", "--dmax", "3"]),
    ("lemma_h", ["--degrees", "0,0,0,0", "--s", "2,3"]),
    ("duality", ["--genus", "0", "--degrees", "0,1", "--s", "1", "--dmax", "3"]),
    ("zeta_rat", ["--genus", "3"]),
    ("b0", ["--genus", "0", "--degrees", "0,0,0", "--s", "2", "--dmax", "4"]),
]


@pytest.mark.parametrize("suite,extra", PASSING_SUITES)
def test_verify_suites_pass(capsys, suite, extra):
    code, out, err = run(capsys, "verify", "--suite", suite, *extra)
    assert code == 0, (out, err)
    assert "PASS" in out


def test_every_suite_has_a_passing_case():
    assert {suite for suite, _ in PASSING_SUITES} == set(cli.SUITES)


def _ints(lo: int, hi: int, size: int):
    """A value flag: ``size`` comma-separated integers in lo..hi."""
    lists = st.lists(st.integers(lo, hi), min_size=size, max_size=size)
    return lists.map(lambda xs: ",".join(map(str, xs)))


@st.composite
def cli_argv(draw):
    """A command word and its flags as (flag, value) pairs, value None for a
    switch: any command over small geometries, some of them invalid.
    ``--parallel`` is left out, as it starts a process pool."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    rank, length = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    s = sorted(draw(st.sets(st.integers(1, 3), min_size=length, max_size=length)))
    pairs = [
        ("--genus", str(draw(st.integers(0, 2)))),
        ("--degrees", draw(_ints(-2, 2, rank))),
        ("--s", ",".join(map(str, s))),
        ("--dmax", draw(_ints(-3, 3, length))),
        ("--format", draw(st.sampled_from(["text", "json"]))),
    ]
    if command == "verify":
        pairs.append(("--suite", draw(st.sampled_from(sorted(cli.SUITES)))))
    if command == "compute" and draw(st.booleans()):
        pairs.append(("--realization", draw(st.sampled_from(sorted(cli.REALIZATIONS)))))
    if draw(st.booleans()):
        pairs.append(("--dmin", draw(_ints(-3, 3, length))))
    if draw(st.booleans()):
        pairs.append(("--assume-smooth", None))
    return command, pairs


def spell(command: str, pairs, equals=()) -> list[str]:
    """The argv of a command word and its (flag, value) pairs, the pairs at
    the indices in ``equals`` each one "--flag=value" token."""
    argv = [command]
    for i, (flag, value) in enumerate(pairs):
        argv += [flag] if value is None else [f"{flag}={value}"] if i in equals else [flag, value]
    return argv


def run_quiet(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# proper prefixes of a flag that are no flag themselves, such as --deg
ABBREVIATIONS = sorted({f[:n] for f in cli.FLAGS for n in range(3, len(f))} - set(cli.FLAGS))


def flags_of(command: str) -> dict:
    """The flags ``command`` takes: every command's and its own."""
    return {flag: spec for flag, spec in cli.FLAGS.items() if spec[3] in (None, command)}


@st.composite
def refusal(draw, command: str) -> list[str]:
    """Tokens that make an argv of ``command`` a refusal wherever they go
    before a flag, at the end or before the command word: an unknown,
    abbreviated or other command's flag, a bad choice, a switch given a
    value, or a value flag with no value."""
    flags = flags_of(command)
    value_flags = sorted(f for f, spec in flags.items() if isinstance(spec[1], str))
    choice_flags = sorted(f for f, spec in flags.items() if isinstance(spec[1], tuple))
    foreign = draw(st.sampled_from(sorted(set(cli.FLAGS) - set(flags))))
    flag, value = draw(st.sampled_from([
        ("--bogus", "1"),
        (draw(st.sampled_from(ABBREVIATIONS)), "0,0"),
        (foreign, cli.FLAGS[foreign][1][0]),
        (draw(st.sampled_from(choice_flags)), "xml"),
        ("--assume-smooth", "yes"),
        (draw(st.sampled_from(value_flags)), None),
    ]))
    if value is None:
        return [flag]
    return [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]


# An accepted argv of each command, for the refusals of a drawn argv that is
# refused anyway.  Its switch comes first, so a value flag with no value put
# before it, and given again later, is refused only if the switch is not
# taken as its value.
ACCEPTED = {
    command: [command, "--assume-smooth", *flags, "--genus", "0", "--degrees", "0,0", "--s", "1",
              "--dmax", "1"]
    for command, flags in (("compute", []), ("verify", ["--suite", "oracle"]), ("info", []))
}


@settings(max_examples=150, deadline=None)
@given(cli_argv(), st.data())
def test_exit_code_contract(well_formed, data):
    # 0 success or passed, 2 refused with nothing on stdout; 1 (failed) only
    # from duality under --assume-smooth: the other suites' identities hold
    # on every input, and duality's only on a smooth scheme
    command, pairs = well_formed
    code, out, err = run_quiet(spell(command, pairs))
    if ("--suite", "duality") in pairs and ("--assume-smooth", None) in pairs:
        assert code in (0, 1, 2), err
    else:
        assert code in (0, 2), err
    if code == 2:
        assert out == ""
    elif command == "verify" and ("--format", "json") in pairs:
        assert json.loads(out)["result"]["passed"] is (code == 0)
    # the same flags in any order, each in either form, after earlier copies
    # of some of them, which the last copy overrides: byte-identical stdout
    flags = flags_of(command)
    earlier = [
        (flag, value if value is None else "9" if isinstance(flags[flag][1], str)
         else data.draw(st.sampled_from(flags[flag][1])))
        for flag, value in data.draw(st.lists(st.sampled_from(pairs), max_size=3))
    ]
    mixed = earlier + data.draw(st.permutations(pairs))
    equals = data.draw(st.sets(st.integers(0, len(mixed) - 1)))
    argv = spell(command, mixed, equals)
    assert run_quiet(argv)[:2] == (code, out), argv
    # a refusal before a flag, at the end or before the command word of an
    # accepted argv: exit 2, one error line and nothing on stdout
    base = argv if code != 2 else ACCEPTED[command]
    at = data.draw(st.sampled_from(
        [0, len(base)] + [i for i, token in enumerate(base) if token.startswith("--")]
    ))
    argv = base[:at] + data.draw(refusal(command)) + base[at:]
    code, out, err = run_quiet(argv)
    assert (code, out) == (2, ""), argv
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_verify_duality_requires_certificate(capsys):
    args = ["verify", "--suite", "duality", "--genus", "2", "--degrees", "0,0",
            "--s", "1", "--dmax", "2"]
    code, out, err = run(capsys, *args)
    assert code == 2
    # assumed smooth lets it run; the obstructed case genuinely fails duality
    mismatch = {"d": [0], "coefficient": "L^-1 + 1", "virtual_dimension": -1}
    code, out, err = run(capsys, *args, "--assume-smooth")
    assert code == 1
    assert f"first discrepancy: {mismatch}" in out
    code, doc = run_json(capsys, *args, "--assume-smooth")
    assert code == 1
    assert doc["result"]["mismatch"] == mismatch


def test_verify_duality_evaluates_the_verdict_once(capsys, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return smoothness_status(*args)

    monkeypatch.setattr(cli, "smoothness_status", counted)
    for fmt in ("text", "json"):
        calls.clear()
        code, out, err = run(
            capsys, "verify", "--suite", "duality", "--genus", "0", "--degrees", "0,1",
            "--s", "1", "--dmax", "3", "--format", fmt,
        )
        assert code == 0, err
        assert len(calls) == 1


def _wrong_series(*args):
    """Stand-in for a right-hand side: 2 at the lowest degree of the window
    (the last argument), nothing elsewhere."""
    window = args[-1]
    return series_monomial(window, window.lo, 2)


@pytest.mark.parametrize(
    "suite,target,wrong,extra,keys",
    [
        ("oracle", "oracle_partition_function", _wrong_series,
         ["--genus", "1", "--degrees", "0,1", "--s", "1", "--dmax", "2"],
         {"d", "formula", "enumeration"}),
        ("genus0", "genus0_closed_form", _wrong_series,
         ["--genus", "0", "--degrees", "0,0", "--s", "1", "--dmax", "2"],
         {"d", "fixed_locus_sum", "product_form"}),
        ("euler_spec", "euler_partition_function", _wrong_series,
         ["--genus", "1", "--degrees", "0,2", "--s", "1", "--dmax", "3"],
         {"d", "specialized", "euler_series"}),
        ("b0", "genus0_closed_form", _wrong_series,
         ["--genus", "0", "--degrees", "0,0,0", "--s", "2", "--dmax", "2"],
         {"d", "b0"}),
        ("zeta_rat", "zeta_rationality_check", lambda *a: False, ["--genus", "2"],
         {"detail"}),
        ("lemma_h", "stratum_weight_identity", lambda *a: False,
         ["--degrees", "0,0,0", "--s", "1,2"], {"detail"}),
    ],
)
def test_verify_suites_fail(capsys, monkeypatch, suite, target, wrong, extra, keys):
    calls = []
    monkeypatch.setattr(cli, target, lambda *args: calls.append(args) or wrong(*args))
    code, doc = run_json(capsys, "verify", "--suite", suite, *extra)
    assert code == 1
    assert doc["result"]["passed"] is False
    assert set(doc["result"]["mismatch"]) == keys
    if suite in ("oracle", "genus0", "euler_spec"):
        # a series suite counts the window's cells up to and including the mismatch
        window = calls[0][-1]
        d = tuple(doc["result"]["mismatch"]["d"])
        assert doc["result"]["checked"] == 1 + window.index(d)
    code, out, err = run(capsys, "verify", "--suite", suite, *extra)
    assert code == 1
    assert f"suite {suite}: FAIL" in out
    assert "first discrepancy: " in out


def test_zeta_rat_rejects_negative_genus(capsys):
    code, out, err = run(capsys, "verify", "--suite", "zeta_rat", "--genus", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_verify_checks_the_geometry_it_is_given(capsys):
    # zeta_rat needs only --genus, but a given bundle and profile must be valid
    code, out, err = run(
        capsys, "verify", "--suite", "zeta_rat", "--genus", "1", "--degrees", "0,0",
        "--s", "3",
    )
    assert code == 2
    assert out == ""


def test_internal_error_exit_code(capsys, monkeypatch):
    # a crash is exit 3, never the "suite failed" 1 nor the "invalid input" 2
    def broken(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "motivic_partition_function", broken)
    code, out, err = run(
        capsys, "compute", "--genus", "0", "--degrees", "0,0", "--s", "1", "--dmax", "1",
    )
    assert code == 3
    assert out == ""
    assert "Traceback" in err and "ValueError: internal" in err


def _refuse(*args, **kwargs):
    raise RuntimeError("rendered a format that was not asked for")


@pytest.mark.parametrize("realization", ["motivic", "euler", "poincare", "chi_y"])
def test_compute_renders_only_the_requested_format(capsys, monkeypatch, realization):
    args = ["compute", "--genus", "0", "--degrees", "0,1", "--s", "1", "--dmax", "2",
            "--realization", realization]
    with monkeypatch.context() as m:
        m.setattr(cli, "format_epoly", _refuse)
        m.setattr(cli, "format_upoly", _refuse)
        code, doc = run_json(capsys, *args)
        assert code == 0
        assert doc["result"]["series"]["terms"]
    with monkeypatch.context() as m:
        m.setattr(cli, "_render", _refuse)
        m.setattr(cli, "_series", _refuse)
        code, out, err = run(capsys, *args)
        assert code == 0, err
        assert f"series ({realization}):" in out


def test_verify_genus0_requires_equal_degrees(capsys):
    code, out, err = run(
        capsys, "verify", "--suite", "genus0", "--genus", "0", "--degrees", "0,1",
        "--s", "1", "--dmax", "3",
    )
    assert code == 2


def test_verify_genus0_twisted_degrees(capsys):
    code, out, err = run(
        capsys, "verify", "--suite", "genus0", "--genus", "0", "--degrees", "2,2",
        "--s", "1", "--dmax", "6",
    )
    assert code == 0


def test_info(capsys):
    code, doc = run_json(
        capsys, "info", "--genus", "0", "--degrees", "0,0", "--s", "1", "--dmax", "2",
    )
    assert code == 0
    rows = {tuple(r["d"]): r for r in doc["result"]["table"]}
    assert [rows[(d,)]["vd"] for d in range(3)] == [1, 3, 5]
    assert rows[(0,)]["fixed_components"] == 2
    assert doc["result"]["block_permutation_count"] == 2


def test_negative_list_arguments(capsys):
    code, doc = run_json(
        capsys, "info", "--genus", "1", "--degrees", "-1,0", "--s", "1",
        "--dmax", "1", "--dmin", "-1",
    )
    assert code == 0
    assert doc["config"]["degrees"] == [-1, 0]
    assert doc["config"]["dmin"] == [-1]


def test_info_lists_block_permutations(capsys):
    code, doc = run_json(
        capsys, "info", "--genus", "0", "--degrees", "0,0,0", "--s", "1", "--dmax", "0",
    )
    assert code == 0
    assert doc["result"]["block_permutations"] == [
        [1, 2, 3], [1, 3, 2], [2, 3, 1],
    ]


def test_compute_respects_dmin(capsys):
    code, doc = run_json(
        capsys, "compute", "--genus", "0", "--degrees", "0,0", "--s", "1",
        "--dmax", "4", "--dmin", "2",
    )
    assert code == 0
    assert doc["result"]["series"]["window"]["lo"] == [2]
    ds = [tuple(t["d"]) for t in doc["result"]["series"]["terms"]]
    assert ds == [(2,), (3,), (4,)]


def test_info_component_count_at_zero(capsys):
    # trivial bundle at degree 0: components = permutations with zero prefactor = all
    code, doc = run_json(
        capsys, "info", "--genus", "1", "--degrees", "0,0,0", "--s", "1,2",
        "--dmax", "0,0",
    )
    assert code == 0
    rows = {tuple(r["d"]): r for r in doc["result"]["table"]}
    assert rows[(0, 0)]["fixed_components"] == doc["result"]["block_permutation_count"]


def test_parallel_json_byte_identical(capsys):
    args = ["compute", "--genus", "1", "--degrees", "0,1", "--s", "1,1",
            "--dmax", "2,2", "--format", "json"]
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args + ["--parallel"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    doc1, doc2 = json.loads(out1), json.loads(out2)
    assert doc1["result"]["series"] == doc2["result"]["series"]
    # byte-identical apart from the echoed parallel flag
    doc1["config"]["parallel"] = True
    assert json.dumps(doc1) == json.dumps(doc2)


def test_import_leaves_the_process_pool_unloaded():
    # only --parallel with more than one group needs concurrent.futures, and
    # the JSON renderer needs only _json's string quoting, not json's decoder
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "\n".join([
        "import sys, hyperquot.cli",
        "print(sorted({'concurrent.futures', 'json.decoder', 'json.scanner'} & set(sys.modules)))",
    ])
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_import_loads_no_heavy_stdlib_module():
    # the value classes need no dataclasses (nor its inspect), traceback
    # loads on the crash path and annotations need no typing; the set
    # difference leaves out what the stdlib modules cli imports bring along
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "\n".join([
        "import argparse, json, re, sys",
        "before = set(sys.modules)",
        "import hyperquot.cli",
        "added = set(sys.modules) - before",
        "print(sorted(added & {'dataclasses', 'inspect', 'traceback', 'typing'}))",
    ])
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_compute_text_output(capsys):
    code, out, err = run(
        capsys, "compute", "--genus", "0", "--degrees", "0,0", "--s", "1", "--dmax", "1",
    )
    assert code == 0
    assert "d=(1,): 1 + L + L^2 + L^3" in out


@pytest.mark.parametrize(
    "args,status,reason",
    [
        (["verify", "--suite", "zeta_rat", "--genus", "1"], "Unknown", "not evaluated"),
        (["verify", "--suite", "lemma_h", "--degrees", "0,0", "--s", "1"],
         "Unknown", "not evaluated"),
        (["compute", "--genus", "2", "--degrees", "0,0", "--s", "1", "--dmax", "1",
          "--assume-smooth"], "Smooth", "assumed by flag"),
        (["verify", "--suite", "zeta_rat", "--genus", "1", "--degrees", "0,0", "--s", "3",
          "--assume-smooth"], None, None),
    ],
)
def test_smoothness_verdict_of_each_report(capsys, args, status, reason):
    # a report without the whole geometry is not evaluated; a given geometry
    # is validated before --assume-smooth applies
    code, out, err = run(capsys, *args, "--format", "json")
    if status is None:
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
    else:
        assert code == 0, err
        assert json.loads(out)["smoothness"] == {"status": status, "reason": reason}


def test_bad_integer_list_exit_code(capsys):
    code, out, err = run(
        capsys, "compute", "--genus", "0", "--degrees", "0,x", "--s", "1", "--dmax", "1",
    )
    assert code == 2
    assert out == ""
    assert err == "error: expected comma-separated integers, got '0,x'\n"
    # one ASCII grammar, -?[0-9]+(,-?[0-9]+)*, for every value flag: no "_",
    # "+", blanks or non-ASCII digits, a split negative joined only when it
    # parses, one integer for --genus, and no literal past int's digit limit
    geometry = {"--genus": "0", "--degrees": "0,0", "--s": "1", "--dmax": "1"}
    for flag, value in [
        ("--dmax", "1_0"), ("--dmax", "+3"), ("--dmax", " 3"), ("--dmax", "\u0663"),
        ("--dmin", "-1_0"), ("--dmin=-1_0", None), ("--genus", "1_0"), ("--genus", "+1"),
        ("--genus", "1,2"), ("--genus", "x"), ("--degrees", "0,,0"), ("--s", "1,"),
        ("--dmax", "9" * 5000),
    ]:
        args = [x for k, v in {**geometry, flag: value}.items() for x in (k, v) if x]
        assert main(["compute", *args]) == 2, args
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: " in err


def test_argparse_refusal_is_one_error_line(capsys):
    # an input argparse refuses returns 2 from main with one "error:" line,
    # as every other invalid input does; --help still exits 0 through argparse
    geometry = ["--genus", "0", "--degrees", "0,0", "--s", "1", "--dmax", "1"]
    for args in (
        ["compute", *geometry, "--bogus"],
        ["compute", *geometry, "--format", "xml"],
        ["compute", *geometry, "--dmin"],
        ["verify", *geometry],
        ["nope"],
        [],
        # an option before the command word goes to the top-level parser
        ["--format", "json", "compute", *geometry],
        # no flag is taken by a prefix, whatever its value
        ["compute", "--genus", "0", "--s", "1", "--dmax", "2", "--deg", "0,0"],
        ["compute", "--genus", "0", "--s", "1", "--dmax", "2", "--deg", "-1,0"],
    ):
        code, out, err = run(capsys, *args)
        assert code == 2, args
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
    for args in (["--help"], ["-h"], ["compute", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 0
        assert "usage: hyperquot" in capsys.readouterr().out


def test_argv_is_parsed_once(capsys, monkeypatch):
    # main hands argv to the one table-driven parser, once
    seen, parse = [], cli._parse
    monkeypatch.setattr(cli, "_parse", lambda argv: seen.append(list(argv)) or parse(argv))
    geometry = ["--genus", "0", "--degrees", "0,0", "--s", "1", "--dmax", "1"]
    for argv in (["compute"], ["verify", "--suite", "oracle"], ["info"]):
        seen.clear()
        assert run(capsys, *argv, *geometry)[0] == 0
        assert seen == [argv + geometry]


def test_commands_load_neither_argparse_nor_gettext():
    # the parser is one table and one pass: neither the import nor a call of
    # each command loads argparse or the gettext it brings along
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "\n".join([
        "import contextlib, io, sys",
        "import hyperquot.cli as cli",
        "geometry = ['--genus', '0', '--degrees', '0,0', '--s', '1', '--dmax', '1']",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    for args in (['compute', *geometry], ['verify', '--suite', 'oracle', *geometry],",
        "                 ['info', *geometry]):",
        "        assert cli.main(args) == 0",
        "print(sorted({'argparse', 'gettext'} & set(sys.modules)))",
    ])
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
