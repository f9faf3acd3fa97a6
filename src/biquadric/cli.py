"""Command-line front end.

Subcommands analyze a bidegree-(2,2) form given either in the text grammar
(variables x0, x1, y0, y1, y2; operators + - * ^; rational literals p/q) or as
a JSON coefficient map {"a0,a1;b0,b1,b2": "p/q"}.  Reports are plain text or
JSON (--json); identical inputs and seeds produce byte-identical output.

Exit codes: 0 success, 2 input parse error, 3 precondition violation (an
internal error included).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import boundary as boundary_mod
from .bipoly import BiPoly, FrameChange, ParseError, act, parse
from .classifier import (
    Certificate,
    MuSign,
    StabilityClass,
    classify,
    random_destabilize_search,
)
from .factorizer import bihomogeneous_factor
from .fibration import discriminant, fibre_matrix, matrix_rank
from .oneps import LimitKind, Weight, limit, m_oplus, m_plus, mu
from .scalars import format_scalar, parse_scalar, read_rational
from .singularity import (
    FibreConic,
    FibreLine,
    HorizontalSection,
    PlaneCurveImage,
    classify_local,
    singular_locus,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3


class PreconditionError(Exception):
    pass


# ---------------------------------------------------------------------------
# Serialization helpers

def _monomial_key(m) -> str:
    return ",".join(map(str, m[:2])) + ";" + ",".join(map(str, m[2:]))


def _parse_monomial_key(key: str):
    a_part, b_part = key.split(";")
    alpha = tuple(int(t) for t in a_part.split(","))
    beta = tuple(int(t) for t in b_part.split(","))
    if len(alpha) != 2 or len(beta) != 3:
        raise ValueError(f"bad monomial key: {key!r}")
    return alpha + beta


def poly_to_map(f: BiPoly) -> dict:
    return {
        _monomial_key(m): format_scalar(c)
        for m, c in sorted(f.terms.items(), key=lambda kv: _monomial_key(kv[0]))
    }


def _coefficient(value) -> Fraction:
    """A map coefficient: a string, as ``poly_to_map`` writes it, or a JSON
    integer.  A boolean or a binary float is not read as a rational."""
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        return read_rational(str(value))
    raise TypeError(f"coefficient {value!r} is not a string or an integer")


def poly_from_map(data: dict) -> BiPoly:
    try:
        terms = {_parse_monomial_key(k): _coefficient(v) for k, v in data.items()}
    except (AttributeError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed coefficient map: {exc}") from exc
    f = BiPoly((2, 2), terms)
    if f.is_zero():
        raise ParseError("the zero polynomial has no bidegree")
    return f


def read_poly(text: str) -> BiPoly:
    text = text.strip()
    try:
        if text.startswith("{"):
            return poly_from_map(_load_json(text))
        return BiPoly((2, 2), parse(text).poly)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _load_json(text: str):
    """The JSON document in `text`; nesting deeper than the decoder follows
    is a parse error, as malformed JSON is."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ParseError(f"JSON nested too deeply: {exc}") from None


def read_weight(text: str) -> Weight:
    try:
        return Weight.parse(text)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def frame_to_json(frame: FrameChange) -> dict:
    return {
        "g2": [[format_scalar(e) for e in row] for row in frame.g2],
        "g3": [[format_scalar(e) for e in row] for row in frame.g3],
    }


def frame_from_json(data: dict) -> FrameChange:
    g2 = tuple(tuple(parse_scalar(e) for e in row) for row in data["g2"])
    g3 = tuple(tuple(parse_scalar(e) for e in row) for row in data["g3"])
    return FrameChange(g2, g3)


def cert_to_json(cert: Certificate) -> dict:
    return {
        "frame": frame_to_json(cert.frame),
        "weight": str(cert.weight),
        "claimed_mu_sign": cert.claimed_mu_sign.value,
    }


def cert_from_json(data: dict) -> Certificate:
    try:
        return Certificate(
            frame=frame_from_json(data["frame"]),
            weight=Weight.parse(data["weight"]),
            claimed_mu_sign=MuSign(data["claimed_mu_sign"]),
        )
    except (AttributeError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise PreconditionError(f"malformed certificate: missing or mistyped {exc}") from exc


def _fmt_coords(coords) -> str:
    return "[" + ", ".join(format_scalar(c) for c in coords) + "]"


def _emit(report: dict, as_json: bool, text_lines) -> None:
    if as_json:
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_classify(args) -> int:
    if args.trials < 0:
        raise ParseError(f"--trials must be at least 0, got {args.trials}")
    f = read_poly(args.poly)
    verdict = classify(f)
    report = {
        "input": poly_to_map(f),
        "class": verdict.stability.value,
        "certificate": cert_to_json(verdict.certificate) if verdict.certificate else None,
        "condition_report": [
            {
                "subject": r.subject,
                "clause": r.clause,
                "violated": r.violated,
                "weight": str(r.weight) if r.weight is not None else None,
            }
            for r in verdict.condition_report
        ],
    }
    lines = [f"class: {verdict.stability.value}"]
    if verdict.certificate is not None:
        cert = verdict.certificate
        lines.append(f"certificate weight: {cert.weight}")
        lines.append(f"certificate sign: {cert.claimed_mu_sign.value}")
    if verdict.stability is StabilityClass.STRICTLY_SEMISTABLE:
        lim = boundary_mod.minimal_orbit_limit(f, verdict.certificate)
        bp = boundary_mod.stratum_of(lim)
        report["stratum"] = _boundary_json(bp)
        lines.append(f"stratum: {_boundary_text(bp)}")
    for r in verdict.condition_report:
        status = "violated" if r.violated else "holds"
        lines.append(f"condition [{r.clause}] at {r.subject}: {status}")
    if args.trials:
        found = random_destabilize_search(f, trials=args.trials, seed=args.seed)
        report["search"] = cert_to_json(found) if found else None
        lines.append(f"search: {'found' if found else 'none'}")
    _emit(report, args.json, lines)
    return EXIT_OK


def _cmd_mu(args) -> int:
    f = read_poly(args.poly)
    w = read_weight(args.weight)
    value = mu(f, w)
    _emit({"mu": value, "weight": str(w)}, args.json, [str(value)])
    return EXIT_OK


def _cmd_limit(args) -> int:
    f = read_poly(args.poly)
    w = read_weight(args.weight)
    lim = limit(f, w)
    report = {
        "kind": lim.kind.value,
        "value": poly_to_map(lim.value) if lim.kind is LimitKind.POLY else None,
    }
    lines = [f"kind: {lim.kind.value}"]
    if lim.kind is LimitKind.POLY:
        lines.append(f"value: {lim.value!r}")
    _emit(report, args.json, lines)
    return EXIT_OK


def _cmd_singular_locus(args) -> int:
    if args.cutoff < 2:
        raise ParseError(f"--cutoff must be at least 2, got {args.cutoff}")
    f = read_poly(args.poly)
    locus = singular_locus(f)
    points = []
    lines = [f"smooth: {locus.is_smooth}"]
    for rec in locus.isolated_points:
        p1, p2 = rec.point
        label = classify_local(rec.local, args.cutoff).label
        points.append({
            "p1": [format_scalar(c) for c in p1],
            "p2": [format_scalar(c) for c in p2],
            "type": label,
        })
        lines.append(f"point {_fmt_coords(p1)} x {_fmt_coords(p2)}: {label}")
    curves = []
    for comp in locus.curve_components:
        curves.append(_curve_json(comp))
        lines.append(f"curve: {_curve_text(comp)}")
    report = {"smooth": locus.is_smooth, "isolated_points": points, "curves": curves}
    _emit(report, args.json, lines)
    return EXIT_OK


def _curve_json(comp) -> dict:
    if isinstance(comp, HorizontalSection):
        return {"kind": "HorizontalSection", "p2": [format_scalar(c) for c in comp.p2]}
    if isinstance(comp, FibreLine):
        return {
            "kind": "FibreLine",
            "p1": [format_scalar(c) for c in comp.p1],
            "line": [format_scalar(c) for c in comp.line],
        }
    if isinstance(comp, FibreConic):
        return {"kind": "FibreConic", "p1": [format_scalar(c) for c in comp.p1]}
    assert isinstance(comp, PlaneCurveImage)
    return {"kind": "PlaneCurveImage", "description": comp.description}


def _curve_text(comp) -> str:
    d = _curve_json(comp)
    detail = ", ".join(f"{k}={v}" for k, v in sorted(d.items()) if k != "kind")
    return f"{d['kind']}({detail})"


# the fibre over a root of the discriminant is singular: rank at most 2
FIBRE_LABELS = {2: "TwoDistinctLines", 1: "DoubleLine", 0: "WholePlane"}


def _cmd_fibres(args) -> int:
    f = read_poly(args.poly)
    pencil = fibre_matrix(f)
    disc = discriminant(pencil)
    report = {"discriminant": [format_scalar(c) for c in disc.coeffs], "roots": []}
    lines = [f"discriminant coefficients: {report['discriminant']}"]
    if disc.is_zero():
        lines.append("discriminant vanishes identically")
    else:
        for root, mult in disc.roots():
            rank = matrix_rank(pencil.evaluate(root))
            label = FIBRE_LABELS[rank]
            report["roots"].append({
                "point": [format_scalar(c) for c in root],
                "multiplicity": mult,
                "fibre": label,
                "rank": rank,
            })
            lines.append(
                f"root {_fmt_coords(root)} (multiplicity {mult}): "
                f"{label} (rank {rank})"
            )
    _emit(report, args.json, lines)
    return EXIT_OK


def _cmd_factor(args) -> int:
    f = read_poly(args.poly)
    factors = bihomogeneous_factor(f)
    report = {"factors": []}
    lines = []
    for bd, fac in factors:
        report["factors"].append({"bidegree": list(bd), "terms": poly_to_map(fac)})
        lines.append(f"bidegree {bd}: {fac!r}")
    _emit(report, args.json, lines)
    return EXIT_OK


def _cmd_msets(args) -> int:
    w = read_weight(args.weight)
    plus = sorted(_monomial_key(m) for m in m_plus(w))
    oplus = sorted(_monomial_key(m) for m in m_oplus(w))
    report = {"weight": str(w), "m_plus": plus, "m_oplus": oplus}
    lines = [
        f"weight: {w}",
        f"m_plus ({len(plus)}): {' '.join(plus)}",
        f"m_oplus ({len(oplus)}): {' '.join(oplus)}",
    ]
    _emit(report, args.json, lines)
    return EXIT_OK


def _boundary_json(bp) -> dict:
    return {
        "stratum": bp.stratum.value,
        "coordinate": (
            [format_scalar(c) for c in bp.coordinate] if bp.coordinate else None
        ),
        "closes_to_gamma1": bp.closes_to_gamma1,
    }


def _boundary_text(bp) -> str:
    out = bp.stratum.value
    if bp.coordinate is not None:
        out += f" at [{format_scalar(bp.coordinate[0])}:{format_scalar(bp.coordinate[1])}]"
    if bp.closes_to_gamma1:
        out += " (= Gamma1)"
    return out


def _cmd_boundary(args) -> int:
    f = read_poly(args.poly)
    verdict = classify(f)
    if verdict.stability is not StabilityClass.STRICTLY_SEMISTABLE:
        raise PreconditionError(
            f"input is {verdict.stability.value}, not StrictlySemistable"
        )
    lim = boundary_mod.minimal_orbit_limit(f, verdict.certificate)
    bp = boundary_mod.stratum_of(lim)
    report = _boundary_json(bp)
    report["limit"] = poly_to_map(lim)
    _emit(report, args.json, [_boundary_text(bp)])
    return EXIT_OK


def _cmd_verify_cert(args) -> int:
    if args.stdin:
        doc = _load_json(sys.stdin.read())
    else:
        if args.cert_file is None:
            raise PreconditionError("provide a certificate file or --stdin")
        try:
            with open(args.cert_file, "r", encoding="utf-8") as handle:
                doc = _load_json(handle.read())
        except OSError as exc:
            raise ParseError(f"cannot read {args.cert_file}: {exc.strerror}") from exc
    cert_doc = doc.get("certificate", doc) if isinstance(doc, dict) else doc
    if cert_doc is None:
        raise PreconditionError("report carries no certificate")
    cert = cert_from_json(cert_doc)
    if args.poly is not None:
        f = read_poly(args.poly)
    elif isinstance(doc, dict) and "input" in doc:
        f = poly_from_map(doc["input"])
    else:
        raise PreconditionError("no polynomial given and none embedded in the report")
    moved = act(cert.frame, f)
    value, ok = mu(moved, cert.weight), cert.holds(moved)
    report = {
        "verified": ok,
        "mu": value,
        "claimed_mu_sign": cert.claimed_mu_sign.value,
    }
    _emit(report, args.json, [f"verified: {ok} (mu = {value})"])
    return EXIT_OK if ok else EXIT_PRECONDITION


# ---------------------------------------------------------------------------
# Argument parsing

class _ArgumentParser(argparse.ArgumentParser):
    def _parse_optional(self, arg):
        # -h is the one single-dash option, so "-x0^2*y0^2" is an operand
        if arg[:1] == "-" and arg[:2] != "--" and arg != "-h":
            return None
        return super()._parse_optional(arg)


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process:
    parsing does not change it, and building it costs more than most calls."""
    top = _ArgumentParser(
        prog="biquadric",
        description="Exact stability analysis of bidegree-(2,2) surfaces in P1 x P2.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, func, poly=True, weight=False, cutoff=False, search=False):
        p = sub.add_parser(name)
        if poly:
            p.add_argument("poly", help="polynomial (text grammar or JSON coefficient map)")
        if weight:
            p.add_argument("--weight", required=True, help='"r0,r1;s0,s1,s2"')
        if cutoff:
            p.add_argument("--cutoff", type=int, default=10)
        if search:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--trials", type=int, default=0)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=func)
        return p

    add("classify", _cmd_classify, search=True)
    add("mu", _cmd_mu, weight=True)
    add("limit", _cmd_limit, weight=True)
    add("singular-locus", _cmd_singular_locus, cutoff=True)
    add("fibres", _cmd_fibres)
    add("factor", _cmd_factor)
    add("msets", _cmd_msets, poly=False, weight=True)
    add("boundary", _cmd_boundary)
    vc = add("verify-cert", _cmd_verify_cert, poly=False)
    vc.add_argument("cert_file", nargs="?", default=None)
    vc.add_argument("poly", nargs="?", default=None)
    vc.add_argument("--stdin", action="store_true")
    return top


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ParseError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except (PreconditionError, ValueError, NotImplementedError) as exc:
        sys.stderr.write(f"precondition violation: {exc}\n")
        return EXIT_PRECONDITION
    except RuntimeError as exc:
        sys.stderr.write(f"precondition violation: internal error: {exc}\n")
        return EXIT_PRECONDITION


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
