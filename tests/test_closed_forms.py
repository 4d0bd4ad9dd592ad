import dataclasses
import itertools

import pytest

from crystalpoly import (
    LinearForm,
    SequenceCrystal,
    a_sequence,
    an_system,
    get_builtin,
    l_max,
    rank2_system,
    weight,
)
from crystalpoly.closed_forms import an_flat

import chebyshev_oracle
from root_oracle import truncation_check


def test_a_sequence_closed_forms():
    for c1, c2 in itertools.product(range(5), repeat=2):
        p = c1 * c2
        assert a_sequence(c1, c2, 0) == 0
        assert a_sequence(c1, c2, 1) == 1
        assert a_sequence(c1, c2, 2) == c1
        assert a_sequence(c1, c2, 3) == p - 1
        assert a_sequence(c1, c2, 4) == c1 * (p - 2)
        assert a_sequence(c1, c2, 5) == (p - 1) * (p - 2) - 1
        assert a_sequence(c1, c2, 6) == c1 * (p - 1) * (p - 3)
        assert a_sequence(c1, c2, 7) == p * (p - 2) * (p - 3) - 1
        assert a_sequence(c2, c1, 4) == c2 * (p - 2)


def test_a_sequence_matches_the_chebyshev_oracle():
    for c1, c2 in itertools.product(range(7), repeat=2):
        for l in range(41):
            assert a_sequence(c1, c2, l) == chebyshev_oracle.a_sequence(c1, c2, l)
        first_negative = next(
            (l for l in range(8) if chebyshev_oracle.a_sequence(c1, c2, l + 1) < 0), None)
        assert l_max(c1, c2) == (None if c1 * c2 >= 4 else first_negative)


def test_a_sequence_affine_is_linear():
    assert [a_sequence(2, 2, l) for l in range(8)] == list(range(8))


def test_a_sequence_g2_profile():
    assert [a_sequence(3, 1, l) for l in range(7)] == [0, 1, 3, 2, 3, 1, 0]


def test_l_max_table():
    assert l_max(0, 0) == 2
    assert l_max(1, 1) == 3
    assert l_max(1, 2) == 4 and l_max(2, 1) == 4
    assert l_max(1, 3) == 6 and l_max(3, 1) == 6
    assert l_max(2, 2) is None and l_max(4, 1) is None


def test_l_max_marks_a_zero_then_negative():
    for c1, c2 in ((0, 0), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1)):
        lm = l_max(c1, c2)
        assert a_sequence(c1, c2, lm) == 0
        assert all(a_sequence(c1, c2, l) > 0 for l in range(1, lm))


def test_rank2_system_affine_display():
    fs = rank2_system(2, 2, weight(1, 1), window=6)
    forms = set(fs.forms)
    assert LinearForm.make(1, {1: -1}) in forms
    for l in range(1, 6):
        assert LinearForm.make(0, {l: l, l + 1: -(l - 1)}) in forms
        assert LinearForm.make(1, {l: l + 1, l + 1: -l}) in forms


def test_rank2_system_requires_dominant_and_window():
    with pytest.raises(ValueError):
        rank2_system(1, 1, weight(-1, 0))
    with pytest.raises(ValueError):
        rank2_system(2, 2, weight(1, 1))
    with pytest.raises(ValueError, match="window must be >= 1"):
        rank2_system(2, 2, weight(1, 1), window=0)
    with pytest.raises(ValueError, match="window must be <= 5000"):
        rank2_system(1, 1, weight(1, 1), window=5001)
    assert len(rank2_system(1, 1, weight(1, 1), window=5000).forms) == 2 * 5000 - 1


def _rank2_rows(c1, c2, lam, cutoff):
    """The rank2_system rows for 1 <= l < cutoff, each coefficient from its own
    a_sequence walk."""
    rows = {LinearForm.make(lam.pairing(1), {1: -1})}
    for l in range(1, cutoff):
        rows.add(LinearForm.make(0, {l: a_sequence(c1, c2, l), l + 1: -a_sequence(c1, c2, l - 1)}))
        rows.add(LinearForm.make(
            lam.pairing(2), {l: a_sequence(c2, c1, l + 1), l + 1: -a_sequence(c2, c1, l)}))
    return rows


def test_rank2_rows_match_the_per_row_coefficients():
    lam = weight(2, 1)
    for name in ("a1xa1", "a2", "b2", "c2", "g2"):
        cartan = get_builtin(name).cartan
        c1, c2 = -cartan.a(1, 2), -cartan.a(2, 1)
        lm = l_max(c1, c2)
        for window in (None, 1, lm, lm + 3):
            forms = set(rank2_system(c1, c2, lam, window).forms)
            win = lm if window is None else window
            pins = {LinearForm.x(k) for k in range(lm + 1, win + 1)}
            pins |= {f.scale(-1) for f in pins}
            assert forms == _rank2_rows(c1, c2, lam, min(lm, win)) | pins
    for window in range(1, 41):
        assert set(rank2_system(2, 2, lam, window).forms) == _rank2_rows(2, 2, lam, window)


def test_rank2_zero_weight_is_origin_only():
    for name in ("a1xa1", "a2", "b2", "c2", "g2"):
        b = get_builtin(name)
        c1, c2 = -b.cartan.a(1, 2), -b.cartan.a(2, 1)
        pts = rank2_system(c1, c2, weight(0, 0)).enumerate_points(5)
        assert [p.label() for p in pts] == ["0"]


def test_rank2_matches_oracle_on_a2():
    lam = weight(1, 0)
    pts = rank2_system(1, 1, lam).enumerate_points(4)
    crystal = SequenceCrystal(get_builtin("a2").cartan, get_builtin("a2").iota, lam)
    assert pts == crystal.bfs(4).node_set()
    assert len(pts) == 3


def test_an_flat_indexing():
    assert an_flat(1, 1, 3) == 1
    assert an_flat(2, 2, 3) == 5
    assert an_flat(3, 1, 3) == 7


def test_an_system_n1():
    fs = an_system(1, weight(2))
    assert set(fs.forms) == {LinearForm.x(1), LinearForm.make(2, {1: -1})}
    assert len(fs.enumerate_points(3)) == 3


def test_an_system_n2_matches_rank2():
    for coeffs in itertools.product((0, 1, 2), repeat=2):
        lam = weight(*coeffs)
        a = {p.coords for p in an_system(2, lam).enumerate_points(5)}
        b = {p.coords for p in rank2_system(1, 1, lam, window=4).enumerate_points(5)}
        assert a == b


def test_an_system_counts_a3():
    assert len(an_system(3, weight(0, 1, 0)).enumerate_points(8)) == 6
    assert len(an_system(3, weight(1, 0, 0)).enumerate_points(8)) == 4


def test_an_system_matches_oracle():
    b = get_builtin("a3")
    for coeffs in itertools.product((0, 1), repeat=3):
        lam = weight(*coeffs)
        crystal = SequenceCrystal(b.cartan, b.iota, lam)
        bfs = {n.coords for n in crystal.bfs(5).node_set()}
        pts = {p.coords for p in an_system(3, lam).enumerate_points(5)}
        assert bfs == pts


def test_truncation_check_examples():
    a2 = get_builtin("a2")
    rep = truncation_check(a2.cartan, (1, 2, 1), 6)
    assert rep.ok and rep.support_bound == 3

    a3 = get_builtin("a3")
    rep = truncation_check(a3.cartan, (1, 2, 3, 1, 2, 1), 6)
    assert rep.ok

    sl2 = get_builtin("a1")
    rep = truncation_check(sl2.cartan, (1,), 6)
    assert rep.ok  # the second coordinate repeats the index and stays zero


def test_truncation_check_flags_short_words():
    # a non-longest opening word does not bound the support
    a2 = get_builtin("a2")
    rep = truncation_check(a2.cartan, (1, 2), 6)
    assert not rep.ok
    assert any(v["kind"] == "support" for v in rep.violations)


def test_builtin_registry():
    g2 = get_builtin("g2")
    assert g2.cartan.matrix == ((2, -1), (-3, 2))
    assert g2.longest_len == 6 and g2.longest_word == (1, 2, 1, 2, 1, 2)
    a1t = get_builtin("a1tilde")
    assert a1t.cartan.matrix == ((2, -2), (-2, 2))
    assert a1t.longest_len is None
    a5 = get_builtin("a5")
    assert a5.cartan.rank == 5 and a5.longest_len == 15
    assert a5.iota.period == (1, 2, 3, 4, 5)
    assert get_builtin("a2").longest_word == (1, 2, 1)
    with pytest.raises(KeyError):
        get_builtin("e8")


def test_builtin_longest_words_open_reduced():
    # every finite builtin's word passes its own truncation predicate
    for name in ("a1xa1", "a2", "b2", "c2", "g2", "a3", "a4"):
        b = get_builtin(name)
        rep = truncation_check(b.cartan, b.longest_word, 4)
        assert rep.ok, (name, rep.violations[:2])


def test_builtins_are_resolved_once_and_frozen():
    from crystalpoly.closed_forms import _RANK2, MAX_CHAIN_RANK, _builtin

    names = {*_RANK2, *(f"a{n}" for n in range(1, MAX_CHAIN_RANK + 1))}  # a2 is in both
    for name in names:
        b = get_builtin(name)
        assert b.name == name
        assert get_builtin(name.upper()) is b
    # spellings of one chain datum share one entry under the normalised name
    assert get_builtin("a3") is get_builtin("A03") is get_builtin("a0003")
    for bad in ("a0", "a00", "e8", "a-1", "a1x"):
        with pytest.raises(KeyError):
            get_builtin(bad)
    assert _builtin.cache_info().currsize == len(names) == 69
    b = get_builtin("g2")
    for obj, attr in ((b, "name"), (b.cartan, "matrix"), (b.iota, "period")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, attr, None)
    assert isinstance(b.cartan.matrix, tuple) and isinstance(b.longest_word, tuple)
