"""The CLI's JSON renderer against its reference, ``json.dumps(report,
indent=2)``: byte-identical output on generated reports of every schema
(motivic/euler series, poincare/chi_y series, the info table, verify results),
and a rendered series parses back to the series it came from."""

import argparse
import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperquot import cli, epoly
from hyperquot.epoly import EPoly, chi_y_polynomial, poincare_polynomial
from hyperquot.qseries import MSeries, Window, series_from_json, series_to_json
from hyperquot.smoothness import SmoothnessVerdict

texts = st.one_of(st.text(), st.just('quote " backslash \\ newline \n nul \x00 é \U0001f600'))
small = st.integers(-50, 50)
big = st.integers(-(10**300), 10**300)
int_lists = st.lists(small, max_size=3)


def maybe(strategy):
    return st.one_of(st.none(), strategy)


def total_degree(c: EPoly) -> dict[int, int]:
    """A Laurent specialization (u = v = y), so rendered exponents go negative."""
    out: dict[int, int] = {}
    for (pu, pv), x in c.terms.items():
        out[pu + pv] = out.get(pu + pv, 0) + x
    return {e: x for e, x in out.items() if x}


SPECS = {
    "motivic": None,
    "poincare": (poincare_polynomial, "z"),
    "chi_y": (chi_y_polynomial, "y"),
    "laurent": (total_degree, "y"),
}


@st.composite
def windows(draw):
    lo = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
    return Window(tuple(lo), tuple(a + draw(st.integers(0, 2)) for a in lo))


@st.composite
def series_of(draw, exponents):
    window = draw(windows())
    # u - v specializes to 0 under poincare and total_degree: "coeff": []
    terms = st.one_of(
        st.dictionaries(st.tuples(exponents, exponents), st.one_of(small, big), max_size=4),
        st.just({(1, 0): 1, (0, 1): -1}),
    )
    return MSeries(window, {d: EPoly(draw(terms)) for d in window.cells()})


def specialized_json(series: MSeries, fn, var: str) -> dict:
    return {
        "window": {"lo": list(series.window.lo), "hi": list(series.window.hi)},
        "variable": var,
        "terms": [
            {"d": list(d), "coeff": [{"e": e, "c": str(p[e])} for e in sorted(p)]}
            for d, p in ((d, fn(c)) for d, c in series.items())
        ],
    }


@st.composite
def compute_results(draw):
    """(result as the CLI passes it to the renderer, reference result, the
    E-polynomial series or None)."""
    name = draw(st.sampled_from(sorted(SPECS)))
    spec = SPECS[name]
    nonnegative = name in ("poincare", "chi_y")
    series = draw(series_of(st.integers(0, 4) if nonnegative else st.integers(-4, 4)))
    head = {
        "realization": draw(texts),
        "flag_dimension": draw(small),
        "block_permutation_count": draw(small),
        "virtual_dimensions": draw(
            st.lists(st.fixed_dictionaries({"d": int_lists, "vd": small}), max_size=4)
        ),
    }
    rendered = {**head, "series": cli._series(series, spec)}
    reference = {
        **head,
        "series": series_to_json(series) if spec is None else specialized_json(series, *spec),
    }
    return rendered, reference, series if spec is None else None


mismatches = st.one_of(
    st.none(),
    st.fixed_dictionaries({"detail": texts}),
    st.fixed_dictionaries({"d": int_lists, "formula": texts, "enumeration": texts}),
    st.fixed_dictionaries({"d": int_lists, "b0": big}),
    st.fixed_dictionaries({"d": int_lists, "coefficient": texts, "virtual_dimension": small}),
)
verify_results = st.fixed_dictionaries(
    {"suite": texts, "passed": st.booleans(), "checked": small, "mismatch": mismatches}
)
info_results = st.fixed_dictionaries({
    "flag_dimension": small,
    "block_permutation_count": small,
    "block_permutations": st.lists(int_lists, max_size=4),
    "table": st.lists(
        st.fixed_dictionaries({"d": int_lists, "vd": small, "fixed_components": big}),
        max_size=4,
    ),
})
results = st.one_of(
    compute_results(),
    verify_results.map(lambda r: (r, r, None)),
    info_results.map(lambda r: (r, r, None)),
)


@st.composite
def configs(draw):
    values = {
        "genus": draw(maybe(small)),
        "degrees": draw(maybe(int_lists.map(tuple))),
        "s": draw(maybe(int_lists.map(tuple))),
        "dmin": draw(maybe(int_lists.map(tuple))),
        "dmax": draw(maybe(int_lists.map(tuple))),
        "realization": draw(texts),
        "format": "json",
        "parallel": draw(st.booleans()),
        "assume_smooth": draw(st.booleans()),
        "suite": draw(maybe(texts)),
    }
    return argparse.Namespace(**values)


@settings(max_examples=150, deadline=None)
@given(configs(), texts, texts, results)
def test_report_is_json_dumps_indent_2(config, status, reason, result):
    rendered, reference, series = result
    verdict = SmoothnessVerdict(status, reason)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(config, verdict, lambda: rendered, lambda: [])
    doc = {
        "config": {key: getattr(config, key) for key in cli.CONFIG_KEYS},
        "smoothness": {"status": status, "reason": reason},
        "result": reference,
    }
    assert out.getvalue() == json.dumps(doc, indent=2) + "\n"
    if series is not None:
        assert series_from_json(json.loads(out.getvalue())["result"]["series"]) == series


def test_empty_containers_and_scalars():
    nested = ({"a": [{}, [], {"b": ()}]}, [[[]]], {"a": {"b": {}}}, [(), [{}], {"c": [[], ()]}])
    for x in ({}, [], (), {"a": []}, [{}], *nested, None, True, False, 0, -(10**400), " "):
        assert cli._render(x) == json.dumps(x, indent=2)


def test_each_coefficient_is_one_piece(monkeypatch, capsys):
    # the writer streams the report into one list: a coefficient's term list
    # is appended whole, and no enclosing block is copied into a longer piece
    pieces = []
    write = cli._write

    def spy(x, pad, out):
        if not pieces:
            pieces.append(out)
        write(x, pad, out)

    monkeypatch.setattr(cli, "_write", spy)
    for realization in ("motivic", "poincare"):
        pieces.clear()
        args = ["compute", "--genus", "1", "--degrees", "0,0", "--s", "1", "--dmax", "3",
                "--realization", realization, "--format", "json"]
        assert cli.main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        coeffs = [t["coeff"] for t in doc["result"]["series"]["terms"]]
        assert sum(len(c) > 1 for c in coeffs) >= 3
        # a coefficient sits at indentation 10: report, result, series, terms, cell
        texts = [json.dumps(c, indent=2).replace("\n", "\n" + " " * 10) for c in coeffs]
        (out,) = pieces
        assert all(text in out for text in texts)
        assert max(map(len, out)) <= max(map(len, texts))


# interior zero digits in a row and a zero row between two rows; Laurent
# exponents; 64-bit and 96-bit slots (96 bits: the per-slot fallback read)
LAYOUT_CASES = [
    {(0, 0): 1, (0, 3): -2, (2, 2): 5, (2, 5): 7},
    {(-3, -1): 4, (-1, -4): -1, (0, 0): 2, (-2, 1): -3},
    {(0, 0): 2**40, (1, 1): -3, (1, 3): 1},
    {(1, 1): 2**70, (1, 2): -(2**70), (3, 3): 1, (4, 7): -1},
]


@pytest.mark.parametrize("stride", [None, 4, 6, 13, 33])
def test_term_lists_at_any_stride(stride):
    # each coefficient is one flat read of its digits, whatever its stride:
    # the walks pack at strides that are not powers of two
    values = [EPoly(x) for x in LAYOUT_CASES]
    if stride is not None:
        values = [epoly._at_stride(x, stride) for x in values]
        assert {x._w for x in values if x._vh < stride} == {stride}
    assert {x._k for x in values} == {32, 64, 96}
    series = MSeries(Window((0,), (3,)), {(d,): x for d, x in enumerate(values)})
    block, want = cli._series(series, None), series_to_json(series)
    # written twice at two indentations, so the head tables are rebuilt
    assert cli._render({"a": block, "b": [block]}) == json.dumps({"a": want, "b": [want]}, indent=2)


def test_each_distinct_digit_is_converted_once(monkeypatch):
    # repeated, negative and 64-bit-slot digits, shared across coefficients
    values = [
        EPoly({(0, 0): 7, (0, 1): -7, (1, 1): 7, (2, 2): 7}),
        EPoly({(0, 0): 2**40, (1, 2): -7, (2, 2): -(2**40)}),
        EPoly({(0, 0): 7, (3, 3): -(2**40), (3, 4): 2**40}),
    ]
    series = MSeries(Window((0,), (2,)), {(d,): x for d, x in enumerate(values)})
    digits = {c for x in values for c in x.terms.values()}
    converted, missing = [], cli._Decimals.__missing__

    def spy(memo, c):
        converted.append(c)
        return missing(memo, c)

    monkeypatch.setattr(cli._Decimals, "__missing__", spy)
    for _ in range(2):  # each series block gets its own writer and its own memo
        converted.clear()
        text = cli._render(cli._series(series, None))
        assert text == json.dumps(series_to_json(series), indent=2)
        assert sorted(converted) == sorted(digits)
    # so no memo outlives its series
    assert not [v for v in vars(cli).values() if isinstance(v, cli._Decimals)]


@pytest.mark.parametrize("n", [5 << 64, 1 + (5 << 64), 1 + (5 << 224)])
def test_digit_outside_its_band_raises(n):
    # a hand-built value whose vh under-states its band: rows of 4 slots,
    # vh = 1, and a digit in slot 2 or 3 of a row; the writer has no head
    # for it, so it raises rather than print a term it cannot place
    x = epoly._wrap((n, 0, 0, 32, 4, 1, 5))
    with pytest.raises(TypeError):
        cli._render(cli._series(MSeries(Window((0,), (0,)), {(0,): x}), None))
