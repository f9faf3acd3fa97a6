"""Correctness check of one operation's outcome, run outside the timed region.

An operation fails when it raised, when it exited non-zero (every generated
input is a valid form, so exit 2 or 3 is a failure too), or when its report
is wrong.  A report is wrong when:

- a fixture-orbit input gets another class than the frozen known answer;
- a certificate does not re-verify, recomputing the sign of
  mu(act(frame, f), w) with the program's ``bipoly.act`` and ``oneps.mu``,
  or its weight is trivial or not normalized, or its frame is singular;
- a non-stable verdict carries no certificate;
- a StrictlySemistable verdict carries no stratum;
- a witness search returns a certificate on a Stable input, or one that does
  not verify.
"""

from __future__ import annotations

import json
from typing import Optional

from biquadric import bipoly, oneps, scalars

from workloads import Case

# Outcomes of an operation.
OK = "ok"
CRASHED = "crashed"  # raised, or exited non-zero on a valid input
WRONG = "wrong"  # exited 0 with an incorrect report


def certificate_error(cert: dict, f) -> Optional[str]:
    """Why a reported certificate does not hold for ``f``, or None if it does."""
    weight = oneps.Weight.parse(cert["weight"])
    if weight.is_trivial or not weight.is_normalized:
        return f"certificate weight {weight} is trivial or not normalized"
    g2, g3 = (
        [[scalars.parse_scalar(e) for e in row] for row in cert["frame"][key]]
        for key in ("g2", "g3")
    )
    if scalars.is_zero_scalar(bipoly.det2(g2)) or scalars.is_zero_scalar(bipoly.det3(g3)):
        return "certificate frame is singular"
    value = oneps.mu(bipoly.act(bipoly.FrameChange(g2, g3), f), weight)
    sign = cert["claimed_mu_sign"]
    if (sign == "Positive" and value > 0) or (sign == "Zero" and value == 0):
        return None
    return f"certificate claims mu {sign}, recomputed mu is {value}"


def report_error(case: Case, stdout: str) -> Optional[str]:
    """Why the report of a successful run is wrong, or None if it is right."""
    report = json.loads(stdout)
    verdict = report["class"]
    if case.expected is not None and verdict != case.expected:
        return f"class {verdict}, known answer {case.expected}"
    f = bipoly.parse(case.text)
    cert = report["certificate"]
    if verdict != "Stable" and cert is None:
        return f"{verdict} verdict without a certificate"
    if cert is not None and (error := certificate_error(cert, f)):
        return error
    if verdict == "StrictlySemistable" and not report.get("stratum"):
        return "StrictlySemistable verdict without a stratum"
    if "--trials" in case.argv:
        if "search" not in report:
            return "no search result"
        found = report["search"]
        if found is not None and verdict == "Stable":
            return "search found a certificate on a Stable input"
        if found is not None and (error := certificate_error(found, f)):
            return f"search {error}"
    return None


def outcome(case: Case, code, stdout: str) -> tuple:
    """(OK | CRASHED | WRONG, detail) for one operation.

    ``code`` is the exit code, or the exception the call raised.
    """
    if isinstance(code, BaseException):
        return CRASHED, f"raised {code!r}"
    if code != 0:
        return CRASHED, f"exit {code}"
    try:
        error = report_error(case, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        error = f"malformed report: {exc!r}"
    return (OK, None) if error is None else (WRONG, error)
