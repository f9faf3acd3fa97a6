"""Acceptance suite: one test per criterion, each emitting a PASS/FAIL line."""

import json
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

from biquadric.bipoly import act, det3, parse
from biquadric.boundary import (
    Stratum,
    gamma2_scaling_equivalence,
    minimal_orbit_limit,
    moduli_dimension,
    stratum_of,
)
from biquadric.classifier import (
    MuSign,
    StabilityClass,
    classify,
    random_destabilize_search,
)
from biquadric.fibration import conic_gram
from biquadric.oneps import LimitKind, Weight, limit, m_oplus, m_plus, mu
from biquadric.singularity import (
    CHART_VARS,
    AffinePoly,
    chart_local,
    classify_local,
    local_algebra_dim,
    singular_locus,
)
from biquadric.weightlp import find_destabilizing_weight
from conftest import EXPECTED_CLASS, FIXTURES, random_poly, random_unimodular
from test_singularity import ORIGIN, base_point_family
from test_weightlp import MONOS, brute_force

W = Weight.parse

STRICT_WEIGHTS = ["-3,3;-2,-2,4", "-4,4;-10,5,5", "-1,1;-3,-1,4", "-2,2;-5,-1,6"]
ZERO_WEIGHTS = ["0,0;-1,0,1", "-1,1;-2,0,2", "-1,1;-1,0,1", "-2,2;-1,0,1"]


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"[criterion {n}] FAIL - {desc}")
        raise
    print(f"[criterion {n}] PASS - {desc}")


def test_criterion_1_witness_suite(fixtures):
    with criterion(1, "named one-parameter weights reproduce the expected mu-signs"):
        positive = [
            ("singular_section", "-1,1;-4,2,2", 2),
            ("cone_point", "-4,4;-10,5,5", 2),
            ("ramified_double_fibre", "-3,3;-2,-2,4", 2),
            ("ramified_component", "-2,2;-5,-1,6", 1),
            ("plane_factor", "-1,1;-3,-1,4", 1),
            ("double_line_cylinder", "-3,3;-2,-2,4", 2),
        ]
        for name, wt, value in positive:
            assert mu(fixtures[name], W(wt)) == value > 0
            assert limit(fixtures[name], W(wt)).kind is LimitKind.ZERO
        zero = [
            ("constant_tangent", "0,0;-1,0,1"),
            ("non_a1_on_section", "-1,1;-2,0,2"),
            ("non_a1_double_fibre", "-1,1;-1,0,1"),
        ]
        for name, wt in zero:
            assert mu(fixtures[name], W(wt)) == 0
            assert limit(fixtures[name], W(wt)).kind is LimitKind.POLY
        # the quoted limit of the constant-tangent family: a binary quadratic
        # times the frozen conic y0*y2 + y1^2
        lim = limit(fixtures["constant_tangent"], W("0,0;-1,0,1"))
        assert lim.value == parse(
            "x0^2*(y0*y2+y1^2) + x0*x1*(y0*y2+2*y1^2) + x1^2*(y0*y2+y1^2)"
        )


def test_criterion_2_monomial_sets(fixtures):
    with criterion(2, "the four strict and four weak monomial sets are distinct"
                      " and absorb all non-stable supports"):
        plus_sets = [frozenset(m_plus(W(t))) for t in STRICT_WEIGHTS]
        oplus_sets = [frozenset(m_oplus(W(t))) for t in ZERO_WEIGHTS]
        assert len(set(plus_sets)) == 4 and len(set(oplus_sets)) == 4
        for name, expected in EXPECTED_CLASS.items():
            f = fixtures[name]
            verdict = classify(f)
            if expected == "Unstable":
                support = set(act(verdict.certificate.frame, f).terms)
                assert any(support <= s for s in plus_sets)
            elif expected == "StrictlySemistable":
                lim = minimal_orbit_limit(f, verdict.certificate)
                support = set(lim.terms)
                slices = [
                    {m for m in m_oplus(W(t)) if mu_weight(m, W(t)) == 0}
                    for t in ZERO_WEIGHTS
                ]
                assert any(support <= s for s in slices)


def mu_weight(m, w):
    from biquadric.oneps import monomial_weight
    return monomial_weight(m, w)


def test_criterion_3_certificate_soundness(fixtures):
    with criterion(3, "all emitted certificates re-verify and mutations are rejected"):
        from dataclasses import replace
        for name in sorted(FIXTURES):
            f = fixtures[name]
            cert = classify(f).certificate
            if cert is None:
                continue
            value = mu(act(cert.frame, f), cert.weight)
            if cert.claimed_mu_sign is MuSign.POSITIVE:
                assert value > 0
            else:
                assert value == 0
            assert cert.verify(f)
            flipped = (MuSign.ZERO if cert.claimed_mu_sign is MuSign.POSITIVE
                       else MuSign.POSITIVE)
            mutated = replace(cert, claimed_mu_sign=flipped)
            assert not mutated.verify(f)


def test_criterion_4_invariance_fuzz():
    with criterion(4, "verdict class invariant under 200 random frame changes"):
        rng = random.Random(2024)
        for _ in range(50):
            f = random_poly(rng, keep=0.6)
            base = classify(f).stability
            for _ in range(4):
                g = random_unimodular(rng)
                assert classify(act(g, f)).stability is base


def test_criterion_5_smooth_never_unstable(fixtures):
    with criterion(5, "smooth surfaces are never Unstable and the random search"
                      " finds nothing for the stable fixture"):
        rng = random.Random(77)
        checked = 0
        while checked < 100:
            f = random_poly(rng, keep=0.8)
            if not singular_locus(f).is_smooth:
                continue
            checked += 1
            assert classify(f).stability is not StabilityClass.UNSTABLE
        assert random_destabilize_search(
            fixtures["stable_higher_sing"], trials=500, seed=11
        ) is None


def test_criterion_6_singularity_oracle():
    with criterion(6, "A_n normal forms, the non-isolated cylinder, and the"
                      " coefficient regimes classify correctly at cutoff 10"):
        for n in range(1, 6):
            germ = AffinePoly(CHART_VARS, {
                (2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1),
                (0, 0, n + 1): Fraction(1),
            })
            assert classify_local(germ).label == f"A{n}"
            assert local_algebra_dim(germ).label == f"Stabilized({n})"
        cylinder = AffinePoly(CHART_VARS, {(2, 0, 0): Fraction(1),
                                           (0, 2, 0): Fraction(1)})
        assert classify_local(cylinder).label == "NonIsolatedSuspected(10)"
        regimes = [
            ((1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), "A1", None),
            ((1, 1, 1, 1, 1, 1, -1, 1, 1, 1, 1), "A2", "Stabilized(2)"),
            ((1, 1, 2, 1, 1, 2, -1, 2, 1, -1, 1), "A3", "Stabilized(3)"),
            ((1, 1, 2, 1, 1, 2, -1, 1, 0, -1, 1),
             "NonIsolatedSuspected(10)", "NotStabilized"),
        ]
        for coeffs, label, dim_label in regimes:
            f = base_point_family(*coeffs)
            h = det3(conic_gram(chart_local(f, ORIGIN).degree_part(2)))
            assert (h != 0) == (label == "A1")
            assert classify_local(chart_local(f, ORIGIN)).label == label
            if dim_label is not None:
                assert local_algebra_dim(chart_local(f, ORIGIN)).label == dim_label


def test_criterion_7_weightlp_completeness():
    with criterion(7, "witness existence matches grid enumeration at bounds 6 and 12"):
        rng = random.Random(300)
        for _ in range(100):
            support = set(rng.sample(MONOS, rng.randint(1, 18)))
            for strict in (True, False):
                got = find_destabilizing_weight(support, strict=strict)
                assert (got is None) == (brute_force(support, strict, 6) is None)
                assert (got is None) == (brute_force(support, strict, 12) is None)
                if got is not None:
                    assert got.is_normalized and not got.is_trivial
                    from biquadric.oneps import monomial_weight
                    for m in support:
                        v = monomial_weight(m, got)
                        assert v > 0 if strict else v >= 0


def test_criterion_8_boundary_suite(fixtures):
    with criterion(8, "boundary dimension, strata coordinates, and scaling"
                      " equivalences all verify"):
        assert moduli_dimension() == 6
        # both reducible strictly-semistable families reach the point stratum
        for name in ("split_cylinder", "line_times_smooth"):
            cert = classify(fixtures[name]).certificate
            lim = minimal_orbit_limit(fixtures[name], cert)
            assert stratum_of(lim).stratum is Stratum.GAMMA1
        # each curve stratum yields a working coordinate
        curve_examples = {
            Stratum.GAMMA2: "x0^2*y1*y2 + x0*x1*(2*y1^2+y0*y2) + x1^2*y0*y1",
            Stratum.GAMMA3: "x0^2*y2^2 + x0*x1*(3*y1^2+y0*y2) + x1^2*y0^2",
            Stratum.GAMMA4: "(x0^2+x1^2)*y1^2 + (x0^2+2*x1^2)*y0*y2",
        }
        for stratum, text in curve_examples.items():
            bp = stratum_of(parse(text))
            assert bp.stratum is stratum and bp.coordinate is not None
        for rho in (2, 3):
            assert gamma2_scaling_equivalence(Fraction(2), Fraction(3), rho)
            assert gamma2_scaling_equivalence(Fraction(1), Fraction(1), rho)
        # the [1:0] point of each curve closes onto the point stratum
        closures = [
            "x0*x1*(2*y1^2+y0*y2) + x1^2*y0*y1",
            "x0^2*y2^2 + x0*x1*(y1^2+y0*y2)",
            "x0*x1*y1^2 + (x0^2+x0*x1)*y0*y2",
        ]
        for text in closures:
            bp = stratum_of(parse(text))
            assert bp.coordinate == (Fraction(1), Fraction(0))
            assert bp.closes_to_gamma1


def test_criterion_9_cli_determinism():
    with criterion(9, "repeated CLI runs with fixed seeds are byte-identical"):
        args = [sys.executable, "-m", "biquadric.cli", "classify", "--json",
                "--trials", "5", "--seed", "7", FIXTURES["two_ruled"]]
        first = subprocess.run(args, capture_output=True, text=True, timeout=120)
        second = subprocess.run(args, capture_output=True, text=True, timeout=120)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        doc = json.loads(first.stdout)
        assert doc["class"] == "StrictlySemistable"
