"""Acceptance gate: the eleven cross-module checks, one test each.

Each test prints a single PASS/FAIL line (visible with -v through the test
id, and in the captured output on failure) and asserts the verdict.  The
checks themselves live in gaprenorm.verify so the command line `gaprenorm
verify` runs the identical code.
"""

import re

import pytest

from gaprenorm.measure import build_ulam
from gaprenorm.verify import CHECKS, check_exceedances, run_one

_IDS = [f"c{num:02d}-{name}" for num, name, _ in CHECKS]


@pytest.mark.parametrize(("number", "name", "fn"), CHECKS, ids=_IDS)
def test_criterion(number, name, fn, request):
    if fn is check_exceedances:  # its one run in the suite is shared
        verdict = request.getfixturevalue("exceedance_run").verdict
    else:
        verdict = run_one(number, name, fn)
    mark = "PASS" if verdict.passed else "FAIL"
    print(
        f"{mark} criterion {verdict.criterion:>2} {verdict.name}: "
        f"{verdict.details} ({verdict.seconds:.1f}s)"
    )
    assert verdict.passed, f"criterion {number} ({name}): {verdict.details}"


def test_density_checks_share_one_512_bin_density(monkeypatch):
    from gaprenorm import verify

    built = []

    def counting_build_ulam(bins):
        built.append(bins)
        return build_ulam(bins)

    monkeypatch.setattr(verify, "build_ulam", counting_build_ulam)
    monkeypatch.setattr(verify, "series_bound", lambda **cutoffs: 1.170637384)
    verify._density_512.cache_clear()
    try:
        assert verify.check_density()[0] and verify.check_integrability()[0]
    finally:
        verify._density_512.cache_clear()
    assert sorted(built) == [512, 1024]


def test_density_check_details_carry_no_seconds():
    # the details hold seeded figures only, so every run prints them alike;
    # the verdict times the check
    from gaprenorm import verify

    ok, details = verify.check_density()
    assert ok and details.startswith("residual ")
    assert not re.search(r"\d\s*s\b", details), details
