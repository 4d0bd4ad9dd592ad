"""The one-pass sigma scan of SequenceCrystal against the per-position oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from crystalpoly import IndexSequence, SequenceCrystal, ZVector, get_builtin, weight

import scan_oracle

A3 = get_builtin("a3")
A1T = get_builtin("a1tilde")
G2 = get_builtin("g2")  # <h_2, alpha_1> = -3
CASES = {
    "a3-iota0": (A3.cartan, IndexSequence((1, 2, 3, 2, 1, 2), 3)),
    "a1tilde": (A1T.cartan, A1T.iota),
    "g2": (G2.cartan, G2.iota),
}


@st.composite
def crystal_and_vector(draw, name):
    cartan, seq = CASES[name]
    lam = None
    if draw(st.booleans()):
        lam = weight(*draw(st.lists(st.integers(0, 3), min_size=cartan.rank,
                                    max_size=cartan.rank)))
    crystal = SequenceCrystal(cartan, seq, lam)
    coords = draw(st.dictionaries(st.integers(1, 12), st.integers(-3, 4), max_size=8))
    return crystal, ZVector.from_dict(coords, crystal.mode)


def test_g2_case_has_pairing_minus_three():
    assert G2.cartan.a(2, 1) == -3


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_scan_statistics_match_per_position_oracle(name, data):
    crystal, x = data.draw(crystal_and_vector(name))
    for i in crystal.cartan.indices:
        assert crystal.m_set(x, i) == scan_oracle.m_set(crystal, x, i)
        if crystal.lam is not None:
            assert crystal.sigma_0(x, i) == scan_oracle.sigma_0(crystal, x, i)
        assert crystal.f(x, i) == scan_oracle.f(crystal, x, i)
        assert crystal.e(x, i) == scan_oracle.e(crystal, x, i)
        assert crystal.epsilon(x, i) == scan_oracle.epsilon(crystal, x, i)
        assert crystal.phi(x, i) == scan_oracle.phi(crystal, x, i)
