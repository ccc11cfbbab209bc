"""Acceptance suite.

Each test runs one named check from :mod:`nhgeo.verify` at full strength
(the same functions back the command line ``verify`` command) and prints a
pass/fail line with the measured worst-case deviations.  Stated budgets:

 1. hermitian-collapse      |zeta-chi|, |eta-chi|, |ztilde-chi| <= 1e-9, < 5 s
 2. gauge-invariance        relative change <= 1e-9,                   < 10 s
 3. zeta-route-equivalence  three routes within 1e-8 relative;
                            agp_elements vs stencil 1e-7,              < 10 s
 4. nh-ssh                  summands 1e-8; L/8 point 1e-12; thermo 0.5%;
                            rescaled limited == zeta 1e-9,             < 60 s
 5. third-quantization      CAR 1e-12; reconstruction 1e-10,           < 60 s
 6. steady-state            kernel vs Sylvester 1e-8; exact G12 1e-12, < 60 s
 7. zeta-ness-triple        three routes within 1e-6,                  < 120 s
 8. kitaev-closed-forms     exact 3/8 point 1e-12; thermo 0.5%;
                            cross term 1e-10,                          < 60 s
 9. weak-coupling           log-log slope 2 +- 0.2,                    < 30 s
10. criticality-detection   argmax within one grid step; peak growth,  < 120 s
11. eta-ness                |eta| <= 1e-9 on steady states,            < 30 s
12. gaussian-forms          closed forms vs brute force <= 1e-8;
                            agp_quadratic vs stencil 1e-7,             < 60 s
"""
import time

import pytest

from nhgeo import verify

BUDGETS = {
    "hermitian-collapse": 5.0,
    "gauge-invariance": 10.0,
    "zeta-route-equivalence": 10.0,
    "nh-ssh": 60.0,
    "third-quantization": 60.0,
    "steady-state": 60.0,
    "zeta-ness-triple": 120.0,
    "kitaev-closed-forms": 60.0,
    "weak-coupling": 30.0,
    "criticality-detection": 120.0,
    "eta-ness": 30.0,
    "gaussian-forms": 60.0,
}


@pytest.mark.parametrize("name,func", verify.CHECKS, ids=[n for n, _ in verify.CHECKS])
def test_acceptance(name, func):
    t0 = time.time()
    ok, detail = func(full=True)
    elapsed = time.time() - t0
    print(f"\n{'PASS' if ok else 'FAIL'} {name}: {detail} [{elapsed:.2f}s]")
    assert ok, f"{name}: {detail}"
    assert elapsed <= BUDGETS[name], f"{name} exceeded budget: {elapsed:.1f}s"
