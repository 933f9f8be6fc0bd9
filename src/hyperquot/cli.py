"""Command-line surface: compute series, run verification suites, report
fixed-locus statistics.  Exit codes: 0 success / suite passed, 1 suite
failed, 2 invalid input, 3 internal error (traceback on stderr).

The parsed arguments are the run's configuration.  ``main`` is the one
pipeline: parse, build the geometry, take the smoothness verdict, run the
command (its exit code and two thunks, the JSON result and the text lines),
emit.  The geometry (curve, bundle, profile) is built and validated once,
and the verdict evaluated once, before the command, which gets both as
values; every error they can raise is an invalid-input error.

A ``verify`` suite is an entry of ``SUITES``: a function (config, verdict,
geometry) -> (checked, mismatch), mismatch None when the suite passes.  A
suite that checks coefficient by coefficient reports its first mismatch,
and ``checked`` counts up to and including it.
"""

from __future__ import annotations

import functools
import re
import sys
from itertools import compress
from types import SimpleNamespace

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


class InputError(ValueError):
    """Invalid configuration; mapped to exit code 2."""


def _parse_ints(text: str, metavar: str):
    """A value flag's integers: one integer for metavar "N", else a tuple."""
    if not _INTS[metavar].fullmatch(text):
        what = "one integer" if metavar == "N" else "comma-separated integers"
        raise InputError(f"expected {what}, got {text!r}")
    try:
        values = tuple(map(int, text.split(",")))
    except ValueError as exc:  # a literal past the interpreter's digit limit
        raise InputError(str(exc)) from exc
    return values[0] if metavar == "N" else values


def _require(config: SimpleNamespace, *fields: str):
    for name in fields:
        if getattr(config, name) is None:
            raise InputError(f"--{name.replace('_', '-')} is required here")


def _geometry(config: SimpleNamespace):
    """The curve, bundle and profile of the command line, validated in that
    order, and their smoothness verdict: without the whole geometry, None
    and not evaluated; otherwise assumed smooth by flag or the criteria's
    verdict.  ``main`` builds them once, for the command."""
    if config.genus is None or config.degrees is None or config.s is None:
        return None, SmoothnessVerdict(UNKNOWN, "not evaluated")
    curve, bundle = CurveSpec(config.genus), BundleSpec(config.degrees)
    geometry = curve, bundle, NestingProfile(bundle.rank, config.s)
    if config.assume_smooth:
        return geometry, SmoothnessVerdict(SMOOTH, "assumed by flag")
    return geometry, smoothness_status(*geometry)


def _setup(config: SimpleNamespace, geometry):
    """Curve, bundle, profile and window of a windowed command."""
    _require(config, "genus", "degrees", "s", "dmax")
    curve, bundle, profile = geometry
    l = profile.length
    if len(config.dmax) != l:
        raise InputError(f"--dmax needs {l} entries, got {len(config.dmax)}")
    lo = config.dmin if config.dmin is not None else default_lower_bounds(bundle, profile)
    if len(lo) != l:
        raise InputError(f"--dmin needs {l} entries, got {len(lo)}")
    return curve, bundle, profile, Window(lo, config.dmax)


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


def _emit(config: SimpleNamespace, verdict: SmoothnessVerdict, result, text_lines) -> None:
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


def cmd_compute(config: SimpleNamespace, verdict, geometry):
    curve, bundle, profile, window = _setup(config, geometry)
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


def _genus0(config: SimpleNamespace, geometry):
    """The geometry and window of a genus-0 suite, and its product form."""
    setup = _setup(config, geometry)
    if config.genus != 0:
        raise InputError(f"suite {config.suite} needs --genus 0")
    if setup[1].max_gap:
        raise InputError("this suite needs all summand degrees equal")
    return setup, genus0_closed_form(*setup[1:])


def _verify_oracle(config: SimpleNamespace, verdict, geometry):
    setup = _setup(config, geometry)
    series = motivic_partition_function(*setup, parallel=config.parallel)
    rhs = oracle_partition_function(*setup)
    return _first(_cells(series, rhs, "formula", "enumeration"))


def _verify_genus0(config: SimpleNamespace, verdict, geometry):
    setup, product = _genus0(config, geometry)
    series = motivic_partition_function(*setup, parallel=config.parallel)
    return _first(_cells(series, product, "fixed_locus_sum", "product_form"))


def _verify_euler_spec(config: SimpleNamespace, verdict, geometry):
    setup = _setup(config, geometry)
    series = motivic_partition_function(*setup, parallel=config.parallel)
    lhs = MSeries(series.window, {d: euler_number(c) for d, c in series.items()})
    rhs = euler_partition_function(*setup)
    return _first(_cells(lhs, rhs, "specialized", "euler_series"))


def _verify_lemma_h(config: SimpleNamespace, verdict, geometry):
    _require(config, "degrees", "s")
    profile = NestingProfile(len(config.degrees), config.s)
    checked = len(block_permutations(profile))
    detail = "telescoped stratum weights disagree with zeta exponents"
    return checked, None if stratum_weight_identity(profile) else {"detail": detail}


def _verify_duality(config: SimpleNamespace, verdict, geometry):
    curve, bundle, profile, _ = setup = _setup(config, geometry)
    if not verdict.is_smooth:
        raise InputError("suite duality needs a Smooth verdict or --assume-smooth")
    series = motivic_partition_function(*setup, parallel=config.parallel)

    def check(d, c):
        vd = virtual_dimension(profile, d, curve.genus, bundle.total_degree)
        if c.top_degree() != vd or c.reversal(vd) != c:
            return {"d": list(d), "coefficient": format_epoly(c), "virtual_dimension": vd}
        return None

    return _first(check(d, c) for d, c in series.items())


def _verify_zeta_rat(config: SimpleNamespace, verdict, geometry):
    _require(config, "genus")
    g = CurveSpec(config.genus).genus
    ok = zeta_rationality_check(g, 2 * g + 10)  # numerator coefficients 2g+1 .. 2g+10
    return 10, None if ok else {"detail": f"numerator degree exceeds {2 * g}"}


def _verify_b0(config: SimpleNamespace, verdict, geometry):
    _, product = _genus0(config, geometry)
    b0s = ((d, poincare_polynomial(c).get(0, 0)) for d, c in product.items())
    return _first(None if b0 == 1 else {"d": list(d), "b0": b0} for d, b0 in b0s)


SUITES = {
    "oracle": _verify_oracle, "genus0": _verify_genus0, "euler_spec": _verify_euler_spec,
    "lemma_h": _verify_lemma_h, "duality": _verify_duality, "zeta_rat": _verify_zeta_rat,
    "b0": _verify_b0,
}


def cmd_verify(config: SimpleNamespace, verdict, geometry):
    suite = config.suite
    checked, mismatch = SUITES[suite](config, verdict, geometry)
    passed = mismatch is None
    result = {"suite": suite, "passed": passed, "checked": checked, "mismatch": mismatch}
    lines = [f"suite {suite}: {'PASS' if passed else 'FAIL'} ({checked} checks)"]
    if mismatch:
        lines.append(f"first discrepancy: {mismatch}")
    return (0 if passed else 1), lambda: result, lambda: lines


# -- info ----------------------------------------------------------------------


def cmd_info(config: SimpleNamespace, verdict, geometry):
    curve, bundle, profile, window = _setup(config, geometry)
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

# The grammar of a command line: a command word, then flags in any order, each
# "--flag value" or "--flag=value", the last of a repeated flag winning.  A
# flag is (attribute, values, default, command, help).  Its values are a value
# flag's metavar ("N" one integer, "N,..." a comma-separated list), a choice
# flag's choices, or None for a switch.  A flag with a command is that
# command's own, and must be given if it has no default; the others are every
# command's.  The attributes, in this order, are the JSON report's ``config``.
FLAGS = {
    "--genus": ("genus", "N", None, None, "genus of the curve"),
    "--degrees": ("degrees", "N,...", None, None, "summand degrees"),
    "--s": ("s", "N,...", None, None, "quotient ranks"),
    "--dmin": ("dmin", "N,...", None, None, "window lower bounds (default: minimal prefactors)"),
    "--dmax": ("dmax", "N,...", None, None, "window upper bounds, one per rank step"),
    "--realization": ("realization", tuple(REALIZATIONS), "motivic", "compute", "series realization"),
    "--format": ("format", ("text", "json"), "text", None, "report format"),
    "--parallel": ("parallel", None, False, None, "walk a formula's branches in worker processes"),
    "--assume-smooth": ("assume_smooth", None, False, None, "take the scheme to be smooth"),
    "--suite": ("suite", tuple(SUITES), None, "verify", "the suite to run"),
}
# Each command word's run function and summary.
COMMANDS = {
    "compute": (cmd_compute, "compute a partition function"),
    "verify": (cmd_verify, "run a cross-check suite"),
    "info": (cmd_info, "dimensions and fixed-locus statistics"),
}
CONFIG_KEYS = tuple(spec[0] for spec in FLAGS.values())
_DEFAULTS = {spec[0]: spec[2] for spec in FLAGS.values()}
_DESCRIPTION = "Exact partition functions of hyperquot schemes on curves."
# The integer grammars of the value flags: ASCII digits, as ``epoly._decimal``.
_INTS = {"N": re.compile(r"-?[0-9]+"), "N,...": re.compile(r"-?[0-9]+(,-?[0-9]+)*")}


def _parse(argv: list[str]) -> SimpleNamespace:
    """The configuration of a command line, read in one pass by the table
    ``FLAGS``: an attribute per key of ``CONFIG_KEYS``, and ``run``, the
    command's run function.  Every refusal (no command word first, an
    unknown or abbreviated flag or another command's, a value flag with no
    value, a bad choice or integer list, a missing own flag) raises
    ``InputError``; ``-h`` or ``--help`` anywhere prints the usage text and
    exits 0."""
    if "-h" in argv or "--help" in argv:
        _help()
    word = argv[0] if argv else None
    if word not in COMMANDS:
        raise InputError(f"expected a command first ({', '.join(COMMANDS)}), got {word or 'none'}")
    given, tokens = {}, iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        spec = FLAGS.get(flag)
        if spec is None or spec[3] not in (None, word):
            raise InputError(f"unrecognized argument {token!r}")
        name, values = spec[:2]
        if values is None and eq:
            raise InputError(f"{flag} takes no value")
        if values is not None and not eq:
            value = next(tokens, "--")  # no value starts with "--": a flag here is not taken as one
            if value.startswith("--"):
                raise InputError(f"{flag} expects a value")
        if isinstance(values, tuple) and value not in values:
            raise InputError(f"{flag}: invalid choice {value!r} (choose from {', '.join(values)})")
        given[name] = True if values is None else value
    for flag, (name, values, default, command, _) in FLAGS.items():
        if name in given and isinstance(values, str):
            given[name] = _parse_ints(given[name], values)
        elif name not in given and default is None and command == word:
            raise InputError(f"{flag} is required")
    return SimpleNamespace(**{**_DEFAULTS, **given}, run=COMMANDS[word][0])


def _help():
    """Print the usage text, read off ``COMMANDS`` and ``FLAGS``, and exit 0."""
    lines = ["usage: hyperquot COMMAND [--flag value | --flag=value ...]", "", _DESCRIPTION]
    lines += ["", "commands:", *(f"  {word:<9}{c[1]}" for word, c in COMMANDS.items()), "flags:"]
    for flag, (_, values, default, command, text) in FLAGS.items():
        arg = "{%s}" % ",".join(values) if isinstance(values, tuple) else values or ""
        only = f"{command} only{', required' if default is None else ''}: " if command else ""
        lines.append(f"  {flag} {arg}".rstrip() + f"\n      {only}{text}")
    print("\n".join(lines))
    raise SystemExit(0)


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code: parse it, build its
    geometry once, take the smoothness verdict, run the command, emit."""
    try:
        config = _parse(sys.argv[1:] if argv is None else argv)
        geometry, verdict = _geometry(config)
        code, result, lines = config.run(config, verdict, geometry)
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
