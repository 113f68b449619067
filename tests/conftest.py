import numpy as np
import pytest

from nmgeo import ModelParams, solve_g

# reference point used throughout: gamma_w = 0.9, kappa = 0.43, Gamma_w = 1
REF_POINT = dict(kappa=0.43, gamma_w=0.9)

# Markovian and non-divergent-non-Markovian reference points
MARKOV_POINT = dict(kappa=0.1, gamma_w=0.9)
EXCEPTION_POINT = dict(kappa=0.23, gamma_w=0.3)


@pytest.fixture(scope="session")
def ref_params():
    return ModelParams(**REF_POINT)


@pytest.fixture(scope="session")
def ref_gsol(ref_params):
    return solve_g(ref_params)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture()
def count_calls(monkeypatch):
    """count_calls(owner, name) counts the calls of owner.name until the test ends.

    Returns a function giving the count so far.  With weight, each call
    counts weight(*args, **kwargs) instead of 1 (the points of a call, say).
    A call count does not move with the machine's load, so it bounds work
    where a timing would be loose.
    """

    def count(owner, name, weight=None):
        original = getattr(owner, name)
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1 if weight is None else weight(*args, **kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return lambda: calls[0]

    return count
