"""The verification checks themselves: what they catch and what they cost."""
import dataclasses

import pytest

from nhgeo import verify


def test_criticality_detection_lets_program_errors_through(monkeypatch):
    # only NhgeoError (a gap closing on the grid) marks a grid point as missing;
    # a TypeError used to vanish and leave the check passing
    real = verify.zeta_finite_sum

    def broken(params):
        if params.t > 1.7:
            raise TypeError("injected")
        return real(params)

    monkeypatch.setattr(verify, "zeta_finite_sum", broken)
    with pytest.raises(TypeError, match="injected"):
        verify.check_criticality_detection(full=False)


def test_gaussian_forms_solves_each_point_once(monkeypatch):
    # the center and the four stencil points of each sample: rho and Gamma
    # come from one brute-force solve per point
    calls = []
    real = verify.brute_ness_rho
    monkeypatch.setattr(verify, "brute_ness_rho", lambda *a: calls.append(a) or real(*a))
    ok, _ = verify.check_gaussian_forms(full=False)
    assert ok and len(calls) == 3 * 5



@pytest.mark.parametrize("check, engine, wrong", [
    (verify.check_zeta_routes, "agp_elements", lambda real: lambda *a: real(*a).T),
    (verify.check_gaussian_forms, "agp_quadratic",
     lambda real: lambda *a: dataclasses.replace(real(*a), Xcal=real(*a).Xcal.T)),
])
def test_generator_checks_catch_a_wrong_generator(monkeypatch, check, engine, wrong):
    # only the generator sub-check reads the generator: a transposed one fails it
    monkeypatch.setattr(verify, engine, wrong(getattr(verify, engine)))
    ok, detail = check(full=False)
    assert not ok and "vs stencil rel" in detail
