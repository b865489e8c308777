"""Fixtures shared across test modules."""

from types import SimpleNamespace

import pytest


@pytest.fixture(scope="session")
def exceedance_run():
    """One run of check 10 (exceedance counts) for the whole session.

    The run goes through `verify.run_one`, as `gaprenorm verify` does, with
    shims that count the expansions the exceedance Monte Carlo in
    `experiments` makes and keep the results `verify` sees.  The acceptance
    test reads the verdict, the measure test the counts: the check takes
    seconds, so it runs once.
    """
    from gaprenorm import experiments, verify

    run = SimpleNamespace(verdict=None, expansions=0, results=[])
    rational_to_cf = experiments.rational_to_cf
    khinchin_experiments = verify.khinchin_experiments

    def counting_rational_to_cf(value):
        run.expansions += 1
        return rational_to_cf(value)

    def keeping_experiments(*args, **kwargs):
        got = khinchin_experiments(*args, **kwargs)
        run.results.extend(got)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "rational_to_cf", counting_rational_to_cf)
        mp.setattr(verify, "khinchin_experiments", keeping_experiments)
        check = next(c for c in verify.CHECKS if c[2] is verify.check_exceedances)
        run.verdict = verify.run_one(*check)
    return run
