"""Command-line surface: compute series, run verification suites, report
fixed-locus statistics.  Exit codes: 0 success / suite passed, 1 suite
failed, 2 invalid input, 3 internal error (traceback on stderr).

The parsed arguments are the run's configuration.  ``main`` is the one
pipeline: parse, take the smoothness verdict, run the command (its exit
code and two thunks, the JSON result and the text lines), emit.  The
verdict is evaluated once, before the command, which gets it as a value;
every error it can raise is an invalid-input error the command raises too.

A ``verify`` suite is an entry of ``SUITES``: a function (config, verdict)
-> (checked, mismatch), mismatch None when the suite passes.  A suite that
checks coefficient by coefficient reports its first mismatch, and
``checked`` counts up to and including it.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from itertools import compress

# CPython's C accelerator alone: json.encoder would also load json.decoder and json.scanner
from _json import encode_basestring_ascii as _quote

from .combinat import (
    BundleSpec,
    CurveSpec,
    InvalidProfile,
    NestingProfile,
    block_permutations,
    flag_dimension,
    stratum_weight_identity,
    virtual_dimension,
)
from .curve_motives import InvalidTuple, zeta_rationality_check
from .epoly import (
    EPoly,
    NegativeExponent,
    _box,
    _by_slot,
    _signed_digits,
    chi_y_polynomial,
    euler_number,
    format_epoly,
    format_upoly,
    poincare_polynomial,
)
from .formulas import (
    default_lower_bounds,
    euler_partition_function,
    fixed_component_counts,
    genus0_closed_form,
    motivic_partition_function,
)
from .oracle import oracle_partition_function
from .qseries import MSeries, Window, WindowMismatch
from .smoothness import SMOOTH, UNKNOWN, SmoothnessVerdict, smoothness_status

# Each realization's coefficient specialization and its variable; motivic
# and Euler series keep their E-polynomial coefficients.
REALIZATIONS = {
    "motivic": None,
    "euler": None,
    "poincare": (poincare_polynomial, "z"),
    "chi_y": (chi_y_polynomial, "y"),
}
# The echoed ``config`` block of a JSON report, in this key order.
CONFIG_KEYS = (
    "genus", "degrees", "s", "dmin", "dmax",
    "realization", "format", "parallel", "assume_smooth", "suite",
)


class InputError(ValueError):
    """Invalid configuration; mapped to exit code 2."""


def _parse_int_list(text: str, one: bool = False):
    """A value flag's integers, a tuple or (``one``) a single integer."""
    if not _INT_LIST.fullmatch(text):
        raise InputError(f"expected comma-separated integers, got {text!r}")
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError as exc:  # a literal past the interpreter's digit limit
        raise InputError(str(exc)) from exc
    if one and len(values) != 1:
        raise InputError(f"expected one integer, got {text!r}")
    return values[0] if one else values


def _require(config: argparse.Namespace, *fields: str):
    for name in fields:
        if getattr(config, name) is None:
            raise InputError(f"--{name.replace('_', '-')} is required here")


def _geometry(config: argparse.Namespace):
    curve = CurveSpec(config.genus)
    bundle = BundleSpec(config.degrees)
    profile = NestingProfile(bundle.rank, config.s)
    return curve, bundle, profile


def _setup(config: argparse.Namespace):
    """Curve, bundle, profile and window of a windowed command."""
    _require(config, "genus", "degrees", "s", "dmax")
    curve, bundle, profile = _geometry(config)
    l = profile.length
    if len(config.dmax) != l:
        raise InputError(f"--dmax needs {l} entries, got {len(config.dmax)}")
    lo = config.dmin if config.dmin is not None else default_lower_bounds(bundle, profile)
    if len(lo) != l:
        raise InputError(f"--dmin needs {l} entries, got {len(lo)}")
    return curve, bundle, profile, Window(lo, config.dmax)


def _verdict(config: argparse.Namespace) -> SmoothnessVerdict:
    """Not evaluated without the whole geometry; otherwise the geometry is
    validated, then assumed smooth by flag or given its criteria verdict."""
    if config.genus is None or config.degrees is None or config.s is None:
        return SmoothnessVerdict(UNKNOWN, "not evaluated")
    curve, bundle, profile = _geometry(config)
    if config.assume_smooth:
        return SmoothnessVerdict(SMOOTH, "assumed by flag")
    return smoothness_status(curve, bundle, profile)


# -- rendering ----------------------------------------------------------------


def _write(x, pad: str, out: list[str]) -> None:
    """Append ``x`` to ``out`` as ``json.dumps(x, indent=2)`` writes it
    (``ensure_ascii`` escapes included), nested at indentation ``pad``:
    dicts with str keys, lists and tuples, str, int, bool and None.  A
    callable stands for a value that writes itself given ``(pad, out)``."""
    if isinstance(x, dict):
        inner, sep = pad + "  ", "{\n"
        for k, v in x.items():
            out.append(f"{sep}{inner}{_quote(k)}: ")
            _write(v, inner, out)
            sep = ",\n"
        out.append(f"\n{pad}}}" if x else "{}")
    elif isinstance(x, (list, tuple)):
        inner, sep = pad + "  ", "[\n"
        for v in x:
            out.append(sep + inner)
            _write(v, inner, out)
            sep = ",\n"
        out.append(f"\n{pad}]" if x else "[]")
    elif isinstance(x, str):
        out.append(_quote(x))
    elif callable(x):
        x(pad, out)
    elif x is None or isinstance(x, bool):
        out.append("null" if x is None else "true" if x else "false")
    else:
        out.append(int.__repr__(x))


def _render(x) -> str:
    """``x`` as ``json.dumps(x, indent=2)`` writes it: ``_write``'s pieces, joined once."""
    out: list[str] = []
    _write(x, "", out)
    return "".join(out)


def _terms(rows):
    """A specialization's term list as a value that writes itself: each row
    is an (e, c), c written as a decimal string.  Every row is one template,
    and the list is one piece."""

    def write(pad: str, out: list[str]) -> None:
        cell, inner = pad + "  ", pad + "    "
        template = f'{cell}{{\n{inner}"e": %d,\n{inner}"c": "%d"\n{cell}}}'
        body = ",\n".join([template % row for row in rows])
        out.append(f"[\n{body}\n{pad}]" if body else "[]")

    return write


class _Decimals(dict):
    """Decimal strings by integer, each converted at its first lookup."""

    def __missing__(self, c: int) -> str:
        s = self[c] = str(c)
        return s


class _EPolyTerms:
    """The writer of the term lists of a series' E-polynomials ``polys``.
    A term list is written from one flat read of the value's packed digits
    (``epoly._signed_digits``) and joined once, so it is one piece.  The
    nonzero digits pick their terms' heads, the text up to the coefficient,
    from a table in slot order (``epoly._by_slot``), cut per layout from one
    table of heads by (pu, pv - pu) over the series' box, which is built at
    the first write for its indentation.  A slot outside its row's band has
    no head, so a digit there makes the join raise.  Each distinct digit is
    converted to decimal once per series, through the writer's own
    ``_Decimals``, which lives as long as the writer."""

    def __init__(self, polys: list[EPoly]):
        self.polys, self.pad, self.decimals = polys, None, _Decimals()

    def _tables(self, pad: str) -> None:
        lo_u, hi_u, lo_b, hi_b = zip(*map(_box, self.polys))
        self.lo_u, self.lo_b = min(lo_u), min(lo_b)
        bands = range(self.lo_b, max(hi_b) + 1)
        cell, inner = pad + "  ", pad + "    "
        # each head closes the term before it; the first head's close is cut
        close = f'"\n{cell}}}'
        self.pad, self.end, self.cut = pad, f"{close}\n{pad}]", len(close) + 2
        self.heads, self.slots = [], {}
        for pu in range(self.lo_u, max(hi_u) + 1):
            head = f'{close},\n{cell}{{\n{inner}"pu": {pu},\n{inner}"pv": '
            self.heads.append([f'{head}{pu + b},\n{inner}"c": "' for b in bands])

    def write(self, poly: EPoly, pad: str, out: list[str]) -> None:
        if pad != self.pad:
            self._tables(pad)
        digits = _signed_digits(poly._n, poly._k)
        cs = list(map(self.decimals.__getitem__, filter(None, digits)))
        # head, c for every term, then the end: a nonzero value has a term
        text = [self.end] * (2 * len(cs) + 1)
        heads = _by_slot(poly, self.heads, self.lo_u, self.lo_b, self.slots)
        text[0:-1:2] = compress(heads, digits)
        text[1::2] = cs
        text[0] = "[\n" + text[0][self.cut :]
        out.append("".join(text))


def _series(series: MSeries, spec) -> dict:
    """The ``series`` block of a compute report, in the shape of
    ``qseries.series_to_json``.  For ``spec`` None each coefficient is
    written from its packed digits by one ``_EPolyTerms`` of the series, so
    no ``terms`` mapping is built and nothing is sorted.  For ``spec`` =
    (fn, variable) the block also holds the variable, and a coefficient's
    rows are the sorted (e, c) of its specialization by ``fn``."""
    items = series.items()
    block = {"window": {"lo": series.window.lo, "hi": series.window.hi}}
    if spec is None:
        terms = _EPolyTerms([poly for _, poly in items])
        coeffs = (functools.partial(terms.write, poly) for poly in terms.polys)
    else:
        fn, block["variable"] = spec
        coeffs = (_terms(sorted(fn(poly).items())) for _, poly in items)
    block["terms"] = [{"d": d, "coeff": c} for (d, _), c in zip(items, coeffs)]
    return block


def _header(profile: NestingProfile) -> list[str]:
    return [
        f"profile: r={profile.rank}, s={profile.s}, coranks={profile.coranks}",
        f"block permutations: {len(block_permutations(profile))}",
        f"flag dimension: {flag_dimension(profile)}",
    ]


def _emit(config: argparse.Namespace, verdict: SmoothnessVerdict, result, text_lines) -> None:
    """Print the report in the requested format.  ``result`` and
    ``text_lines`` are thunks, and only the one for ``--format`` runs.  A
    JSON report is written by ``_render``, piece by piece into one list
    that is joined once, and is byte-identical to ``json.dumps(report,
    indent=2)``.  The report is built whole before printing, so a
    rendering error (a Laurent coefficient under ``poincare``) leaves
    stdout empty."""
    if config.format == "json":
        out = _render({
            "config": {key: getattr(config, key) for key in CONFIG_KEYS},
            "smoothness": {"status": verdict.status, "reason": verdict.reason},
            "result": result(),
        })
    else:
        out = "\n".join([f"smoothness: {verdict.status} ({verdict.reason})", *text_lines()])
    print(out)


# -- compute ------------------------------------------------------------------


def cmd_compute(config: argparse.Namespace, verdict):
    curve, bundle, profile, window = _setup(config)
    if config.realization == "euler":
        series = euler_partition_function(curve, bundle, profile, window)
    else:
        series = motivic_partition_function(
            curve, bundle, profile, window, parallel=config.parallel
        )
    spec = REALIZATIONS[config.realization]
    vd_table = [
        {"d": list(d), "vd": virtual_dimension(profile, d, curve.genus, bundle.total_degree)}
        for d, _ in series.items()
    ]

    def result() -> dict:
        return {
            "realization": config.realization,
            "flag_dimension": flag_dimension(profile),
            "block_permutation_count": len(block_permutations(profile)),
            "virtual_dimensions": vd_table,
            "series": _series(series, spec),
        }

    def lines() -> list[str]:
        def text(c: EPoly) -> str:
            return format_epoly(c) if spec is None else format_upoly(spec[0](c), spec[1])

        return [
            *_header(profile),
            f"window: lo={window.lo}, hi={window.hi}",
            f"series ({config.realization}):",
            *(f"  d={d}: {text(c)}" for d, c in series.items()),
            "virtual dimensions:",
            *(f"  d={tuple(row['d'])}: {row['vd']}" for row in vd_table),
        ]

    return 0, result, lines


# -- verify -------------------------------------------------------------------


def _first(checks) -> tuple:
    """``(checks made, first mismatch)`` of a stream of mismatch-or-None:
    the count runs up to and including the first mismatch."""
    checked = 0
    for checked, mismatch in enumerate(checks, 1):
        if mismatch is not None:
            return checked, mismatch
    return checked, None


def _cells(lhs: MSeries, rhs: MSeries, left: str, right: str):
    """Per window cell, None where the two series agree, else the mismatch,
    which names the two coefficients ``left`` and ``right``."""
    for d, a, b in zip(lhs.window.cells(), lhs.values, rhs.values):
        yield None if a == b else {"d": list(d), left: format_epoly(a), right: format_epoly(b)}


def _genus0(config: argparse.Namespace):
    """The geometry and window of a genus-0 suite, and its product form."""
    geometry = _setup(config)
    if config.genus != 0:
        raise InputError(f"suite {config.suite} needs --genus 0")
    if geometry[1].max_gap:
        raise InputError("this suite needs all summand degrees equal")
    return geometry, genus0_closed_form(*geometry[1:])


def _verify_oracle(config: argparse.Namespace, verdict):
    geometry = _setup(config)
    series = motivic_partition_function(*geometry, parallel=config.parallel)
    rhs = oracle_partition_function(*geometry)
    return _first(_cells(series, rhs, "formula", "enumeration"))


def _verify_genus0(config: argparse.Namespace, verdict):
    geometry, product = _genus0(config)
    series = motivic_partition_function(*geometry, parallel=config.parallel)
    return _first(_cells(series, product, "fixed_locus_sum", "product_form"))


def _verify_euler_spec(config: argparse.Namespace, verdict):
    geometry = _setup(config)
    series = motivic_partition_function(*geometry, parallel=config.parallel)
    lhs = MSeries(series.window, {d: euler_number(c) for d, c in series.items()})
    rhs = euler_partition_function(*geometry)
    return _first(_cells(lhs, rhs, "specialized", "euler_series"))


def _verify_lemma_h(config: argparse.Namespace, verdict):
    _require(config, "degrees", "s")
    profile = NestingProfile(len(config.degrees), config.s)
    checked = len(block_permutations(profile))
    detail = "telescoped stratum weights disagree with zeta exponents"
    return checked, None if stratum_weight_identity(profile) else {"detail": detail}


def _verify_duality(config: argparse.Namespace, verdict):
    curve, bundle, profile, _ = geometry = _setup(config)
    if not verdict.is_smooth:
        raise InputError("suite duality needs a Smooth verdict or --assume-smooth")
    series = motivic_partition_function(*geometry, parallel=config.parallel)

    def check(d, c):
        vd = virtual_dimension(profile, d, curve.genus, bundle.total_degree)
        if c.top_degree() != vd or c.reversal(vd) != c:
            return {"d": list(d), "coefficient": format_epoly(c), "virtual_dimension": vd}
        return None

    return _first(check(d, c) for d, c in series.items())


def _verify_zeta_rat(config: argparse.Namespace, verdict):
    _require(config, "genus")
    g = CurveSpec(config.genus).genus
    ok = zeta_rationality_check(g, 2 * g + 10)  # numerator coefficients 2g+1 .. 2g+10
    return 10, None if ok else {"detail": f"numerator degree exceeds {2 * g}"}


def _verify_b0(config: argparse.Namespace, verdict):
    _, product = _genus0(config)
    b0s = ((d, poincare_polynomial(c).get(0, 0)) for d, c in product.items())
    return _first(None if b0 == 1 else {"d": list(d), "b0": b0} for d, b0 in b0s)


SUITES = {
    "oracle": _verify_oracle, "genus0": _verify_genus0, "euler_spec": _verify_euler_spec,
    "lemma_h": _verify_lemma_h, "duality": _verify_duality, "zeta_rat": _verify_zeta_rat,
    "b0": _verify_b0,
}


def cmd_verify(config: argparse.Namespace, verdict):
    suite = config.suite
    checked, mismatch = SUITES[suite](config, verdict)
    passed = mismatch is None
    result = {"suite": suite, "passed": passed, "checked": checked, "mismatch": mismatch}
    lines = [f"suite {suite}: {'PASS' if passed else 'FAIL'} ({checked} checks)"]
    if mismatch:
        lines.append(f"first discrepancy: {mismatch}")
    return (0 if passed else 1), lambda: result, lambda: lines


# -- info ----------------------------------------------------------------------


def cmd_info(config: argparse.Namespace, verdict):
    curve, bundle, profile, window = _setup(config)
    counts = fixed_component_counts(bundle, profile, window)
    table = [
        {
            "d": list(d),
            "vd": virtual_dimension(profile, d, curve.genus, bundle.total_degree),
            "fixed_components": euler_number(c),
        }
        for d, c in zip(window.cells(), counts.values)
    ]
    perms = block_permutations(profile)
    result = {
        "flag_dimension": flag_dimension(profile),
        "block_permutation_count": len(perms),
        "block_permutations": [list(s.values) for s in perms],
        "table": table,
    }
    lines = _header(profile) + ["d / virtual dimension / fixed components:"]
    lines += [
        f"  d={tuple(row['d'])}: vd={row['vd']}, components={row['fixed_components']}"
        for row in table
    ]
    return 0, lambda: result, lambda: lines


# -- entry point ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argparse parser, and so each of its subparsers, whose refusal of
    an input raises ``InputError``: one ``error:`` line and exit 2, as for
    every other invalid input.  ``--help`` still exits 0."""

    def error(self, message: str):
        raise InputError(message)


@functools.cache
def build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level argparse parser and its subparsers by command word,
    built on first use and then reused.  No parser takes an abbreviated
    flag: ``--deg`` is refused like any unknown flag, whatever its value."""
    parser = _Parser(
        prog="hyperquot",
        description="Exact partition functions of hyperquot schemes on curves.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, run) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--genus", type=str, help="genus of the curve")
        p.add_argument("--degrees", type=str, help="comma-separated summand degrees")
        p.add_argument("--s", type=str, help="comma-separated quotient ranks")
        p.add_argument("--dmax", type=str, help="window upper bounds, one per rank step")
        p.add_argument("--dmin", type=str, help="window lower bounds (default: minimal prefactors)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--parallel", action="store_true")
        p.add_argument("--assume-smooth", action="store_true", dest="assume_smooth")
        p.set_defaults(realization="motivic", suite=None, run=run)
        return p

    compute = command("compute", "compute a partition function", cmd_compute)
    compute.add_argument("--realization", choices=REALIZATIONS, default="motivic")
    verify = command("verify", "run a cross-check suite", cmd_verify)
    verify.add_argument("--suite", choices=SUITES, required=True)
    command("info", "dimensions and fixed-locus statistics", cmd_info)
    return parser, sub.choices


_VALUE_FLAGS = {"--genus", "--degrees", "--s", "--dmax", "--dmin"}
# The one integer grammar of every value flag: ASCII digits, as ``epoly._decimal``.
_INT_LIST = re.compile(r"-?[0-9]+(,-?[0-9]+)*")


def _normalize_argv(argv: list[str]) -> list[str]:
    """Join an integer list to the token before it when that is a bare
    value flag ("--dmin -1,0" becomes "--dmin=-1,0"), since argparse would
    otherwise read a negative value as an unknown option."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _VALUE_FLAGS and _INT_LIST.fullmatch(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code.  A command word first
    picks its subparser, which parses the rest of argv once; anything else
    (``--help``, an option first, a missing or unknown command) goes to the
    top-level parser, whose help text or refusal is argparse's own."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser, commands = build_parsers()
        if argv and argv[0] in commands:
            config = commands[argv[0]].parse_args(_normalize_argv(argv[1:]))
        else:
            config = parser.parse_args(_normalize_argv(argv))
        for name in ("genus", "degrees", "s", "dmax", "dmin"):
            if getattr(config, name) is not None:
                setattr(config, name, _parse_int_list(getattr(config, name), name == "genus"))
        verdict = _verdict(config)
        code, result, lines = config.run(config, verdict)
        _emit(config, verdict, result, lines)
        return code
    except (InputError, InvalidProfile, InvalidTuple, WindowMismatch, NegativeExponent) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
