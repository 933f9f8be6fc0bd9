"""Command-line surface: compute series, run verification suites, report
fixed-locus statistics.  Exit codes: 0 success / suite passed, 1 suite
failed, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass

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
    ONE,
    EPoly,
    NegativeExponent,
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
from .qseries import MSeries, Window, WindowMismatch, series_to_json, shift_rewindow
from .smoothness import SmoothnessVerdict, smoothness_status

SUITES = ("oracle", "genus0", "euler_spec", "lemma_h", "duality", "zeta_rat", "b0")
REALIZATIONS = ("motivic", "euler", "poincare", "chi_y")


@dataclass
class RunConfig:
    genus: int | None = None
    degrees: tuple[int, ...] | None = None
    s: tuple[int, ...] | None = None
    dmax: tuple[int, ...] | None = None
    dmin: tuple[int, ...] | None = None
    realization: str = "motivic"
    format: str = "text"
    parallel: bool = False
    assume_smooth: bool = False
    suite: str | None = None

    def to_json(self) -> dict:
        return {
            "genus": self.genus,
            "degrees": list(self.degrees) if self.degrees is not None else None,
            "s": list(self.s) if self.s is not None else None,
            "dmin": list(self.dmin) if self.dmin is not None else None,
            "dmax": list(self.dmax) if self.dmax is not None else None,
            "realization": self.realization,
            "format": self.format,
            "parallel": self.parallel,
            "assume_smooth": self.assume_smooth,
            "suite": self.suite,
        }


class InputError(ValueError):
    """Invalid configuration; mapped to exit code 2."""


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"expected comma-separated integers, got {text!r}") from exc


def _require(config: RunConfig, *fields: str):
    for name in fields:
        if getattr(config, name) is None:
            raise InputError(f"--{name.replace('_', '-')} is required here")


def _build_geometry(config: RunConfig):
    curve = CurveSpec(config.genus)
    bundle = BundleSpec(config.degrees)
    profile = NestingProfile(bundle.rank, config.s)
    return curve, bundle, profile


def _build_window(config: RunConfig, bundle: BundleSpec, profile: NestingProfile) -> Window:
    l = profile.length
    if len(config.dmax) != l:
        raise InputError(f"--dmax needs {l} entries, got {len(config.dmax)}")
    lo = config.dmin if config.dmin is not None else default_lower_bounds(bundle, profile)
    if len(lo) != l:
        raise InputError(f"--dmin needs {l} entries, got {len(lo)}")
    if any(a > b for a, b in zip(lo, config.dmax)):
        raise InputError(f"empty window: lo={lo}, hi={config.dmax}")
    return Window(lo, config.dmax)


def _verdict(config: RunConfig, curve, bundle, profile) -> SmoothnessVerdict:
    if config.assume_smooth:
        return SmoothnessVerdict("Smooth", "assumed by flag")
    return smoothness_status(curve, bundle, profile)


# -- rendering ----------------------------------------------------------------


def _upoly_to_json(p: dict[int, int]) -> list[dict]:
    return [{"e": e, "c": str(p[e])} for e in sorted(p)]


def _specialized_series_json(series: MSeries, fn, var: str) -> dict:
    return {
        "window": {"lo": list(series.window.lo), "hi": list(series.window.hi)},
        "variable": var,
        "terms": [
            {"d": list(d), "coeff": _upoly_to_json(fn(c))} for d, c in series.items()
        ],
    }


def specialized_series_from_json(data: dict) -> dict:
    """Parse the poincare / chi_y series JSON back to plain structures."""
    return {
        tuple(t["d"]): {int(u["e"]): int(u["c"]) for u in t["coeff"]}
        for t in data["terms"]
    }


def _emit(config: RunConfig, verdict: SmoothnessVerdict, result: dict, text_lines: list[str]) -> None:
    if config.format == "json":
        doc = {
            "config": config.to_json(),
            "smoothness": {"status": verdict.status, "reason": verdict.reason},
            "result": result,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"smoothness: {verdict.status} ({verdict.reason})")
        for line in text_lines:
            print(line)


# -- compute ------------------------------------------------------------------


def cmd_compute(config: RunConfig) -> int:
    _require(config, "genus", "degrees", "s", "dmax")
    curve, bundle, profile = _build_geometry(config)
    window = _build_window(config, bundle, profile)
    verdict = _verdict(config, curve, bundle, profile)
    perms = block_permutations(profile)

    if config.realization == "euler":
        series = euler_partition_function(curve, bundle, profile, window)
        support = [d for d, _ in series.items()]
    else:
        series = motivic_partition_function(
            curve, bundle, profile, window, parallel=config.parallel
        )
        support = [d for d, _ in series.items()]

    if config.realization in ("motivic", "euler"):
        series_json = series_to_json(series)
        coeff_text = [(d, format_epoly(c)) for d, c in series.items()]
    elif config.realization == "poincare":
        series_json = _specialized_series_json(series, poincare_polynomial, "z")
        coeff_text = [
            (d, format_upoly(poincare_polynomial(c), "z")) for d, c in series.items()
        ]
    else:
        series_json = _specialized_series_json(series, chi_y_polynomial, "y")
        coeff_text = [
            (d, format_upoly(chi_y_polynomial(c), "y")) for d, c in series.items()
        ]

    vd_table = [
        {"d": list(d), "vd": virtual_dimension(profile, d, curve.genus, bundle.total_degree)}
        for d in support
    ]
    result = {
        "realization": config.realization,
        "flag_dimension": flag_dimension(profile),
        "block_permutation_count": len(perms),
        "virtual_dimensions": vd_table,
        "series": series_json,
    }
    lines = [
        f"profile: r={profile.rank}, s={profile.s}, coranks={profile.coranks}",
        f"block permutations: {len(perms)}",
        f"flag dimension: {flag_dimension(profile)}",
        f"window: lo={window.lo}, hi={window.hi}",
        f"series ({config.realization}):",
    ]
    lines += [f"  d={d}: {text}" for d, text in coeff_text]
    lines.append("virtual dimensions:")
    lines += [f"  d={tuple(row['d'])}: {row['vd']}" for row in vd_table]
    _emit(config, verdict, result, lines)
    return 0


# -- verify -------------------------------------------------------------------


def _series_mismatch(lhs: MSeries, rhs: MSeries, lhs_name: str, rhs_name: str):
    if lhs == rhs:
        return None
    for d in lhs.window.cells():
        a = lhs.coefficient(d)
        b = rhs.coefficient(d)
        if a != b:
            return {
                "d": list(d),
                lhs_name: format_epoly(a),
                rhs_name: format_epoly(b),
            }
    return {"detail": "windows differ"}


def _genus0_series(config: RunConfig, profile: NestingProfile, window: Window) -> MSeries:
    """The genus-0 product form of a bundle O(c)^r: the free-bundle series
    shifted by c * s into the window."""
    if config.genus != 0:
        raise InputError(f"suite {config.suite} needs --genus 0")
    degs = set(config.degrees)
    if len(degs) != 1:
        raise InputError("this suite needs all summand degrees equal")
    c = degs.pop()
    shift = tuple(c * x for x in profile.s)
    inner = Window(
        tuple(a - t for a, t in zip(window.lo, shift)),
        tuple(b - t for b, t in zip(window.hi, shift)),
    )
    return shift_rewindow(genus0_closed_form(profile, inner), shift, ONE, window)


def cmd_verify(config: RunConfig) -> int:
    suite = config.suite
    checked = 0
    mismatch = None

    if suite == "zeta_rat":
        _require(config, "genus")
        order = 2 * config.genus + 10
        checked = order - 2 * config.genus
        if not zeta_rationality_check(config.genus, order):
            mismatch = {"detail": f"numerator degree exceeds {2 * config.genus}"}
    elif suite == "lemma_h":
        _require(config, "degrees", "s")
        profile = NestingProfile(len(config.degrees), config.s)
        checked = len(block_permutations(profile))
        if not stratum_weight_identity(profile):
            mismatch = {"detail": "telescoped stratum weights disagree with zeta exponents"}
    else:
        _require(config, "genus", "degrees", "s", "dmax")
        curve, bundle, profile = _build_geometry(config)
        window = _build_window(config, bundle, profile)
        if suite == "oracle":
            lhs = motivic_partition_function(
                curve, bundle, profile, window, parallel=config.parallel
            )
            rhs = oracle_partition_function(curve, bundle, profile, window)
            checked = len(list(window.cells()))
            mismatch = _series_mismatch(lhs, rhs, "formula", "enumeration")
        elif suite == "genus0":
            rhs = _genus0_series(config, profile, window)
            lhs = motivic_partition_function(
                curve, bundle, profile, window, parallel=config.parallel
            )
            checked = len(list(window.cells()))
            mismatch = _series_mismatch(lhs, rhs, "fixed_locus_sum", "product_form")
        elif suite == "euler_spec":
            motivic = motivic_partition_function(
                curve, bundle, profile, window, parallel=config.parallel
            )
            lhs = MSeries(
                window,
                {d: EPoly.from_int(euler_number(c)) for d, c in motivic.coeffs.items()},
            )
            rhs = euler_partition_function(curve, bundle, profile, window)
            checked = len(list(window.cells()))
            mismatch = _series_mismatch(lhs, rhs, "specialized", "euler_series")
        elif suite == "duality":
            verdict = _verdict(config, curve, bundle, profile)
            if not verdict.is_smooth:
                raise InputError(
                    "suite duality needs a Smooth verdict or --assume-smooth"
                )
            series = motivic_partition_function(
                curve, bundle, profile, window, parallel=config.parallel
            )
            for d, c in series.items():
                checked += 1
                vd = virtual_dimension(profile, d, curve.genus, bundle.total_degree)
                if c.top_degree() != vd or c.reversal(vd) != c:
                    mismatch = {
                        "d": list(d),
                        "coefficient": format_epoly(c),
                        "virtual_dimension": vd,
                    }
                    break
        elif suite == "b0":
            for d, c in _genus0_series(config, profile, window).items():
                checked += 1
                b0 = poincare_polynomial(c).get(0, 0)
                if b0 != 1:
                    mismatch = {"d": list(d), "b0": b0}
                    break
        else:
            raise InputError(f"unknown suite {suite!r}")

    passed = mismatch is None
    result = {"suite": suite, "passed": passed, "checked": checked, "mismatch": mismatch}
    verdict = SmoothnessVerdict("Unknown", "not evaluated")
    if config.genus is not None and config.degrees is not None and config.s is not None:
        curve, bundle, profile = _build_geometry(config)
        verdict = _verdict(config, curve, bundle, profile)
    lines = [f"suite {suite}: {'PASS' if passed else 'FAIL'} ({checked} checks)"]
    if mismatch:
        lines.append(f"first discrepancy: {mismatch}")
    _emit(config, verdict, result, lines)
    return 0 if passed else 1


# -- info ----------------------------------------------------------------------


def cmd_info(config: RunConfig) -> int:
    _require(config, "genus", "degrees", "s", "dmax")
    curve, bundle, profile = _build_geometry(config)
    window = _build_window(config, bundle, profile)
    verdict = _verdict(config, curve, bundle, profile)
    counts = fixed_component_counts(bundle, profile, window)
    table = [
        {
            "d": list(d),
            "vd": virtual_dimension(profile, d, curve.genus, bundle.total_degree),
            "fixed_components": euler_number(counts.coefficient(d)),
        }
        for d in window.cells()
    ]
    result = {
        "flag_dimension": flag_dimension(profile),
        "block_permutation_count": len(block_permutations(profile)),
        "block_permutations": [list(s.values) for s in block_permutations(profile)],
        "table": table,
    }
    lines = [
        f"profile: r={profile.rank}, s={profile.s}, coranks={profile.coranks}",
        f"block permutations: {result['block_permutation_count']}",
        f"flag dimension: {result['flag_dimension']}",
        "d / virtual dimension / fixed components:",
    ]
    lines += [
        f"  d={tuple(row['d'])}: vd={row['vd']}, components={row['fixed_components']}"
        for row in table
    ]
    _emit(config, verdict, result, lines)
    return 0


# -- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperquot",
        description="Exact partition functions of hyperquot schemes on curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_realization: bool):
        p.add_argument("--genus", type=int, help="genus of the curve")
        p.add_argument("--degrees", type=str, help="comma-separated summand degrees")
        p.add_argument("--s", type=str, help="comma-separated quotient ranks")
        p.add_argument("--dmax", type=str, help="window upper bounds, one per rank step")
        p.add_argument("--dmin", type=str, help="window lower bounds (default: minimal prefactors)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--parallel", action="store_true")
        p.add_argument("--assume-smooth", action="store_true", dest="assume_smooth")
        if with_realization:
            p.add_argument("--realization", choices=REALIZATIONS, default="motivic")

    common(sub.add_parser("compute", help="compute a partition function"), True)
    v = sub.add_parser("verify", help="run a cross-check suite")
    common(v, False)
    v.add_argument("--suite", choices=SUITES, required=True)
    common(sub.add_parser("info", help="dimensions and fixed-locus statistics"), False)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        genus=args.genus,
        degrees=_parse_int_list(args.degrees) if args.degrees is not None else None,
        s=_parse_int_list(args.s) if args.s is not None else None,
        dmax=_parse_int_list(args.dmax) if args.dmax is not None else None,
        dmin=_parse_int_list(args.dmin) if args.dmin is not None else None,
        realization=getattr(args, "realization", "motivic"),
        format=args.format,
        parallel=args.parallel,
        assume_smooth=args.assume_smooth,
        suite=getattr(args, "suite", None),
    )


_VALUE_FLAGS = {"--genus", "--degrees", "--s", "--dmax", "--dmin"}
_INT_LIST = re.compile(r"-?\d+(,-?\d+)*")


def _normalize_argv(argv: list[str]) -> list[str]:
    """Join value flags with negative numeric arguments ("--dmin -1,0"),
    which argparse would otherwise read as an unknown option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok in _VALUE_FLAGS and nxt is not None and _INT_LIST.fullmatch(nxt):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_normalize_argv(list(argv)))
    try:
        config = _config_from_args(args)
        if args.command == "compute":
            return cmd_compute(config)
        if args.command == "verify":
            return cmd_verify(config)
        return cmd_info(config)
    except (InputError, InvalidProfile, InvalidTuple, WindowMismatch,
            NegativeExponent, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
