from dataclasses import replace
from fractions import Fraction

import pytest

from biquadric import boundary, classifier
from biquadric.bipoly import BiPoly, FrameChange, act, parse
from biquadric.boundary import (
    BoundaryPoint,
    Stratum,
    gamma2_scaling_equivalence,
    minimal_orbit_limit,
    moduli_dimension,
    stratum_of,
)
from biquadric.classifier import MuSign, classify


def test_moduli_dimension():
    assert moduli_dimension() == 6


class TestStratumOf:
    def test_gamma1(self):
        bp = stratum_of(parse("x0*x1*(y0*y2+y1^2)"))
        assert bp.stratum is Stratum.GAMMA1
        assert bp.coordinate is None and not bp.closes_to_gamma1

    def test_gamma1_scalar_invariance(self):
        bp = stratum_of(parse("-3*x0*x1*y0*y2 - 3*x0*x1*y1^2"))
        assert bp.stratum is Stratum.GAMMA1

    def test_gamma2_reference_point(self):
        bp = stratum_of(parse("x0^2*y1*y2 + x0*x1*(y1^2+y0*y2) + x1^2*y0*y1"))
        assert bp.stratum is Stratum.GAMMA2
        assert bp.coordinate == (Fraction(1), Fraction(1))

    def test_gamma2_closure_point(self):
        bp = stratum_of(parse("x0*x1*(2*y1^2+y0*y2) + x1^2*y0*y1"))
        assert bp.stratum is Stratum.GAMMA2
        assert bp.coordinate == (Fraction(1), Fraction(0))
        assert bp.closes_to_gamma1

    def test_gamma3_reference_point(self):
        bp = stratum_of(parse("x0^2*y2^2 + x0*x1*(y1^2+y0*y2) + x1^2*y0^2"))
        assert bp.stratum is Stratum.GAMMA3
        assert bp.coordinate == (Fraction(1), Fraction(1))

    def test_gamma3_closure_point(self):
        bp = stratum_of(parse("x0^2*y2^2 + x0*x1*(y1^2+y0*y2)"))
        assert bp.stratum is Stratum.GAMMA3
        assert bp.coordinate == (Fraction(1), Fraction(0))
        assert bp.closes_to_gamma1

    def test_gamma4_point(self):
        f = parse("(x0^2+x1^2)*y1^2 + (x0^2+2*x1^2)*y0*y2")
        bp = stratum_of(f)
        assert bp.stratum is Stratum.GAMMA4
        assert bp.coordinate is not None

    def test_gamma4_closure_point(self):
        # the two binary quadratics share a root: coordinate [1:0]
        f = parse("x0*x1*y1^2 + (x0^2+x0*x1)*y0*y2")
        bp = stratum_of(f)
        assert bp.stratum is Stratum.GAMMA4
        assert bp.coordinate == (Fraction(1), Fraction(0))
        assert bp.closes_to_gamma1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            stratum_of(BiPoly((2, 2), {}))

    def test_degenerate_support_rejected(self):
        with pytest.raises(ValueError):
            stratum_of(parse("x0*x1*y1^2"))

    def test_unmatched_support_rejected(self):
        with pytest.raises(ValueError):
            stratum_of(parse("x0^2*y0^2 + x0*x1*(y0*y2+y1^2)"))


class TestTorusInvariance:
    def diag(self, t, a, b, c):
        return FrameChange(
            ((Fraction(t), 0), (0, Fraction(1, t))),
            ((Fraction(a), 0, 0), (0, Fraction(b), 0), (0, 0, Fraction(c))),
        )

    @pytest.mark.parametrize("text", [
        "x0^2*y1*y2 + x0*x1*(2*y1^2+y0*y2) + x1^2*y0*y1",
        "x0^2*y2^2 + x0*x1*(3*y1^2+y0*y2) + x1^2*y0^2",
        "(x0^2+x1^2)*y1^2 + (x0^2+2*x1^2)*y0*y2",
    ])
    def test_coordinate_is_torus_invariant(self, text):
        f = parse(text)
        base = stratum_of(f)
        for frame in (self.diag(2, 3, 1, 1), self.diag(1, 1, 2, 5),
                      self.diag(3, 2, 3, 4)):
            moved = stratum_of(act(frame, f))
            assert moved.stratum is base.stratum
            assert moved.coordinate == base.coordinate


class TestMinimalOrbitLimit:
    EXPECTED = {
        "split_cylinder": (Stratum.GAMMA1, None),
        "line_times_smooth": (Stratum.GAMMA1, None),
        "two_ruled": (Stratum.GAMMA2, (Fraction(1), Fraction(1))),
        "non_a1_on_section": (Stratum.GAMMA2, (Fraction(1), Fraction(1))),
        "non_a1_double_fibre": (Stratum.GAMMA3, (Fraction(1), Fraction(1))),
        "constant_tangent": (Stratum.GAMMA4, (Fraction(0), Fraction(1))),
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_limit_lands_on_expected_stratum(self, fixtures, name):
        f = fixtures[name]
        cert = classify(f).certificate
        lim = minimal_orbit_limit(f, cert)
        bp = stratum_of(lim)
        stratum, coord = self.EXPECTED[name]
        assert bp.stratum is stratum
        assert bp.coordinate == coord

    def test_positive_certificate_rejected(self, fixtures):
        f = fixtures["cone_point"]
        cert = classify(f).certificate
        assert cert.claimed_mu_sign is MuSign.POSITIVE
        with pytest.raises(ValueError):
            minimal_orbit_limit(f, cert)

    def test_unverifying_certificate_rejected(self, fixtures):
        cert = classify(fixtures["two_ruled"]).certificate
        with pytest.raises(ValueError):
            minimal_orbit_limit(fixtures["stable_higher_sing"], cert)

    def test_one_move_per_call(self, fixtures, monkeypatch):
        # the certificate's check and the limit read one moved form
        f = fixtures["two_ruled"]
        cert = classify(f).certificate
        moves = []

        def counted_act(g, form):
            moves.append(g)
            return act(g, form)

        monkeypatch.setattr(boundary, "act", counted_act)
        monkeypatch.setattr(classifier, "act", counted_act)
        minimal_orbit_limit(f, cert)
        assert moves == [cert.frame]


class TestGamma2Scaling:
    @pytest.mark.parametrize("rho", [2, 3, Fraction(1, 2)])
    def test_generic_point(self, rho):
        assert gamma2_scaling_equivalence(Fraction(2), Fraction(3), rho)

    @pytest.mark.parametrize("rho", [2, 3])
    def test_closure_point(self, rho):
        assert gamma2_scaling_equivalence(Fraction(1), Fraction(0), rho)

    def test_zero_rho_rejected(self):
        with pytest.raises(ValueError):
            gamma2_scaling_equivalence(Fraction(1), Fraction(1), 0)
