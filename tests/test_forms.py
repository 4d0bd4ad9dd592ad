import copy
import itertools
import json
import pickle
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import crystalpoly.forms as forms_module
from crystalpoly import (
    DescentSystem,
    FormSet,
    IndexSequence,
    LinearForm,
    SequenceCrystal,
    ZVector,
    cartan_from_matrix,
    get_builtin,
    rank2_system,
    weight,
)
from crystalpoly.cli import main

import descent_oracle
from brute_enum import brute_force_points
from enum_oracle import resumming_points

A2 = get_builtin("a2")
A3 = get_builtin("a3")
SL2 = get_builtin("a1")
A1T = get_builtin("a1tilde")
IOTA0 = IndexSequence((1, 2, 3, 2, 1, 2), 3)


def F(const, coeffs=None):
    return LinearForm.make(const, coeffs or {})


def all_int(form):
    return all(type(v) is int for v in (form.const, *(c for _, c in form.coeffs)))


def test_linear_form_canonicalization():
    f = LinearForm.make(1, {3: 2, 5: 0, 1: -1})
    assert f.coeffs == ((1, -1), (3, 2))
    assert f.coeff(5) == 0
    assert f - f == LinearForm.zero()
    assert f.scale(-2) == F(-2, {1: 2, 3: -4})
    assert f.render() == "1 - x1 + 2*x3"
    assert LinearForm.from_json_obj(f.to_json_obj()) == f


def test_linear_form_value_contract():
    f = LinearForm(2, ((1, -1), (3, 2)))
    assert repr(f) == "LinearForm(const=2, coeffs=((1, -1), (3, 2)))"
    assert f == LinearForm.make(2, {3: 2, 1: -1}) == (2, ((1, -1), (3, 2)))
    assert hash(f) == hash((f.const, f.coeffs))
    const, coeffs = f
    assert (const, coeffs) == (2, ((1, -1), (3, 2)))
    for copied in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
        assert type(copied) is LinearForm and copied == f and hash(copied) == hash(f)
        assert copied.render() == "2 - x1 + 2*x3"
    with pytest.raises(AttributeError):
        f.const = 3


def test_beta_plus_examples():
    ds = DescentSystem(A3.cartan, IOTA0)
    assert ds.beta_plus(1) == F(0, {1: 1, 2: -1, 4: -1, 5: 1})
    assert ds.beta_plus(2) == F(0, {2: 1, 3: -1, 4: 1})
    sl2 = DescentSystem(SL2.cartan, SL2.iota)
    for k in (1, 2, 5):
        assert sl2.beta_plus(k) == F(0, {k: 1, k + 1: 1})


def test_beta_minus_examples():
    lam = weight(0, 1, 0)
    ds = DescentSystem(A3.cartan, IOTA0, lam)
    assert ds.beta_minus(2) == F(-1, {1: -1, 2: 1})
    # above a repeat the downward bracket is the upward one there
    for k in (4, 5, 6):
        km = IOTA0.prev_occurrence(k)
        assert km > 0 and ds.beta_minus(k) == ds.beta_plus(km)
    zero = DescentSystem(A3.cartan, IOTA0, weight(0, 0, 0))
    assert zero.beta_minus(IOTA0.first_occurrence(2)).const == 0


def test_descent_words_reproduce_the_counterexample():
    free = DescentSystem(A3.cartan, IOTA0)
    f = LinearForm.x(1)
    f = free.s(f, 1)
    assert f == F(0, {2: 1, 4: 1, 5: -1})
    f = free.s(f, 2)
    assert f == F(0, {3: 1, 5: -1})
    f = free.s(f, 5)
    assert f == F(0, {1: 1, 2: -1, 3: 1, 4: -1})

    lam = weight(0, 1, 0)
    hat = DescentSystem(A3.cartan, IOTA0, lam)
    g = LinearForm.x(1)
    for k in (1, 2, 5):
        g = hat.s(g, k)
    assert g == f  # the two operator families agree along this word
    assert hat.s(g, 2) == F(-1, {3: 1, 4: -1})


def test_weight_seed_is_negated_boundary_bracket():
    lam = weight(2, 1, 1)
    ds = DescentSystem(A3.cartan, IOTA0, lam)
    for i in A3.cartan.indices:
        k = IOTA0.first_occurrence(i)
        assert ds.weight_seed(i) == ds.beta_minus(k).scale(-1)
    assert ds.weight_seed(1) == F(2, {1: -1})


@pytest.mark.parametrize("lam", [None, weight(1, 0, 2)], ids=["free", "102"])
def test_descent_keeps_no_state_across_calls(lam):
    """Every bracket is built on the call that asks for it: no call leaves
    anything on the system."""
    ds = DescentSystem(A3.cartan, IOTA0, lam)
    before = copy.deepcopy(vars(ds))
    fs = ds.generate(6)
    for k in range(1, 8):
        ds.beta_plus(k)
        ds.beta_minus(k)
        for form in fs.forms[:5]:
            ds.s(form, k)
    if lam is not None:
        for i in A3.cartan.indices:
            ds.weight_seed(i)
    assert vars(ds) == before


def test_form_set_lists_each_form_once():
    f, g = F(1, {2: 1}), F(0, {1: 1, 3: -1})
    fs = FormSet(forms=(f, f, g), window=3)
    assert fs.forms == (g, f)  # by coeffs, then const
    assert f in fs and g in fs and F(0, {2: 1}) not in fs


@settings(max_examples=80, deadline=None)
@given(
    st.dictionaries(st.integers(1, 8), st.integers(-3, 5), max_size=5),
    st.integers(1, 8),
)
def test_bracket_forms_are_sigma_differences(coords, k):
    lam = weight(1, 2, 0)
    crystal = SequenceCrystal(A3.cartan, IOTA0, lam)
    ds = DescentSystem(A3.cartan, IOTA0, lam)
    x = ZVector.from_dict(coords, crystal.lam)
    kp = IOTA0.next_occurrence(k)
    assert ds.beta_plus(k).evaluate(x) == crystal.sigma(x, k) - crystal.sigma(x, kp)
    km = IOTA0.prev_occurrence(k)
    if km > 0:
        expected = crystal.sigma(x, km) - crystal.sigma(x, k)
    else:
        expected = crystal.sigma_0(x, IOTA0.index_at(k)) - crystal.sigma(x, k)
    assert ds.beta_minus(k).evaluate(x) == expected


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2),
    st.integers(0, 2),
    st.dictionaries(st.integers(1, 5), st.integers(-3, 3), max_size=4),
    st.integers(1, 5),
)
def test_descent_is_idempotent(l1, l2, coeffs, k):
    ds = DescentSystem(A2.cartan, A2.iota, weight(l1, l2))
    form = LinearForm.make(l1, coeffs)
    once = ds.s(form, k)
    assert ds.s(once, k) == once


def test_generation_a2_free_mode():
    fs = DescentSystem(A2.cartan, A2.iota).generate(4)
    assert fs.saturated
    assert F(0, {4: -1}) in fs  # pins the first position past the cone
    assert F(0, {2: 1, 3: -1}) in fs
    crystal = SequenceCrystal(A2.cartan, A2.iota)
    bfs = {n.coords for n in crystal.bfs(6).node_set()}
    pts = {p.coords for p in fs.enumerate_points(6)}
    assert bfs == pts


def test_generation_reaches_the_positivity_witness():
    fs = DescentSystem(A3.cartan, IOTA0).generate(6)
    assert fs.saturated
    assert F(0, {1: 1, 2: -1, 3: 1, 4: -1}) in fs


def test_generation_stops_past_the_form_cap(monkeypatch):
    import crystalpoly.forms as forms

    full = DescentSystem(A3.cartan, A3.iota).generate(6)
    assert full.saturated and len(full.forms) > 20
    monkeypatch.setattr(forms, "MAX_FORMS", 20)
    capped = DescentSystem(A3.cartan, A3.iota).generate(6)
    assert not capped.saturated
    # checked after each rewritten form, which admits at most one form per position
    assert 20 < len(capped.forms) <= 20 + 6
    assert set(capped.forms) <= set(full.forms) and capped.rounds <= full.rounds


def test_generation_a3_free_mode_matches_oracle():
    fs = DescentSystem(A3.cartan, A3.iota).generate(6)
    assert fs.saturated
    crystal = SequenceCrystal(A3.cartan, A3.iota)
    bfs = {n.coords for n in crystal.bfs(5).node_set()}
    assert {p.coords for p in fs.enumerate_points(5)} == bfs


def test_positivity_reports():
    ok, witnesses = DescentSystem(A2.cartan, A2.iota).generate(4).positivity_report()
    assert ok and not witnesses

    bad, witnesses = DescentSystem(A3.cartan, IOTA0).generate(6).positivity_report()
    assert not bad
    assert (F(0, {1: 1, 2: -1, 3: 1, 4: -1}), 2) in witnesses

    ok, _ = DescentSystem(SL2.cartan, SL2.iota).generate(3).positivity_report()
    assert ok


def test_ampleness_reports():
    lam = weight(0, 1, 0)
    bad, witnesses = DescentSystem(A3.cartan, IOTA0, lam).generate(6).ampleness_report()
    assert not bad
    assert F(-1, {3: 1, 4: -1}) in witnesses

    good, _ = DescentSystem(A3.cartan, A3.iota, weight(1, 1, 1)).generate(6).ampleness_report()
    assert good

    trivial, _ = DescentSystem(A2.cartan, A2.iota, weight(0, 0)).generate(3).ampleness_report()
    assert trivial


def test_report_preconditions():
    fs = DescentSystem(A2.cartan, A2.iota).generate(3)
    with pytest.raises(ValueError):
        fs.ampleness_report()
    lam_fs = DescentSystem(A2.cartan, A2.iota, weight(1, 0)).generate(3)
    with pytest.raises(ValueError):
        lam_fs.positivity_report()
    stuck = DescentSystem(A2.cartan, A2.iota).generate(4, max_rounds=1)
    assert not stuck.saturated
    with pytest.raises(ValueError):
        stuck.positivity_report()


def test_member_examples():
    fs = rank2_system(0, 0, weight(2, 0))
    assert fs.member({1: 2})
    assert not fs.member({1: 3})

    aff = rank2_system(2, 2, weight(1, 1), window=4)
    assert aff.member({1: 1, 2: 2})

    ample = DescentSystem(A2.cartan, A2.iota, weight(1, 1)).generate(3)
    assert ample.member(SequenceCrystal(A2.cartan, A2.iota, weight(1, 1)).zero())
    with pytest.raises(ValueError):
        ample.member({ample.window + 1: 1})


def test_enumerate_points_examples():
    for m in range(4):
        fs = rank2_system(0, 0, weight(m, 0))
        pts = fs.enumerate_points(max(m, 1))
        assert {p.get(1) for p in pts} == set(range(m + 1))
        assert len(pts) == m + 1

    lam = weight(1, 0)
    fs = DescentSystem(A2.cartan, A2.iota, lam).generate(3)
    crystal = SequenceCrystal(A2.cartan, A2.iota, lam)
    assert fs.enumerate_points(2) == crystal.bfs(2).node_set()

    empty = FormSet(forms=(), window=0)
    assert {p.label() for p in empty.enumerate_points(0)} == {"0"}


def test_json_and_text_output():
    fs = DescentSystem(A2.cartan, A2.iota, weight(1, 0)).generate(3)
    listed = fs.to_json_list()
    assert listed == sorted(listed, key=json.dumps) or len(listed) == len(fs.forms)
    rebuilt = {LinearForm.from_json_obj(obj) for obj in listed}
    assert rebuilt == set(fs.forms)
    text = fs.render_text()
    assert "1 - x1 >= 0" in text.splitlines()


def test_generated_forms_are_invariant_under_descent():
    lam = weight(1, 1)
    ds = DescentSystem(A2.cartan, A2.iota, lam)
    fs = ds.generate(3)
    assert fs.saturated
    members = set(fs.forms)
    for form in fs.forms:
        for k in range(1, fs.support_bound + 1):
            assert ds.s(form, k) in members


# -- pruned enumeration against the brute-force oracle --------------------

COEFFS = st.one_of(st.integers(-3, 3), st.integers(-18, 18)).filter(bool)


@st.composite
def small_form_sets(draw):
    window = draw(st.integers(0, 6))
    positions = st.integers(1, window + 2)  # some rows reach past the window
    forms = [
        F(draw(st.integers(-2, 4)), draw(st.dictionaries(positions, COEFFS, max_size=4)))
        for _ in range(draw(st.integers(0, 5)))
    ]
    k = draw(positions)
    if draw(st.booleans()):  # pin pair fixing x_k = 0
        forms += [F(0, {k: 1}), F(0, {k: -1})]
    if draw(st.booleans()):  # one-variable upper bound c - a*x_k >= 0
        forms.append(F(draw(st.integers(0, 4)), {k: -draw(COEFFS.map(abs))}))
    if draw(st.booleans()):  # one-variable lower bound a*x_k - c >= 0
        forms.append(F(-draw(st.integers(0, 3)), {draw(positions): draw(COEFFS.map(abs))}))
    if draw(st.integers(0, 9)) == 0:  # negative constant: no point survives
        forms.append(F(-1))
    return FormSet(forms=tuple(forms), window=window)


@settings(max_examples=150, deadline=None)
@given(small_form_sets(), st.integers(0, 5))
def test_pruned_enumeration_matches_brute_force(fs, budget):
    assert fs.enumerate_points(budget) == brute_force_points(fs, budget)


@st.composite
def shared_support_systems(draw):
    """Several forms filed at one position over a few shared earlier positions,
    a second filing position over the same ones, and lower bounds that can
    lie past the budget, so that a value range comes out empty."""
    window = draw(st.integers(3, 5))
    top = draw(st.integers(3, window))
    shared = draw(st.lists(st.integers(1, top - 1), min_size=1, max_size=3, unique=True))
    forms = []
    for filed in (top, top, top, draw(st.integers(2, window))):
        earlier = [p for p in shared if p < filed] or [1]
        support = draw(st.lists(st.sampled_from(earlier), min_size=1, unique=True))
        coeffs = {p: draw(COEFFS) for p in support}
        coeffs[filed] = draw(COEFFS)
        forms.append(F(draw(st.integers(-3, 4)), coeffs))
    for _ in range(draw(st.integers(0, 2))):  # x_k + x_j - c >= 0 with c up to 7
        k, j = draw(st.lists(st.integers(1, window), min_size=2, max_size=2, unique=True))
        forms.append(F(-draw(st.integers(0, 7)), {k: 1, j: 1}))
    return FormSet(forms=tuple(forms), window=window)


@settings(max_examples=100, deadline=None)
@given(shared_support_systems())
def test_running_partials_match_brute_force(fs):
    # one FormSet, budgets 0..5 in turn: no partial value survives a call
    for budget in range(6):
        assert fs.enumerate_points(budget) == brute_force_points(fs, budget)


def _pin(k, v):
    """The pair x_k - v >= 0 and v - x_k >= 0."""
    return [F(-v, {k: 1}), F(v, {k: -1})]


@st.composite
def presolve_systems(draw):
    """Pinned positions (possibly every one) with values up to 3, so their sum
    can pass the budget; pairs x_j - x_k = u that become new pins once x_k is
    substituted; a form over pinned positions only, whose constant after
    substitution can be negative; and a few forms over the rest."""
    window = draw(st.integers(0, 6))
    positions = list(range(1, window + 1))
    pinned = draw(st.lists(st.sampled_from(positions), unique=True)) if positions else []
    pins = {k: draw(st.integers(0, 3)) for k in pinned}
    forms = [form for k, v in pins.items() for form in _pin(k, v)]
    for k in pinned:
        if draw(st.booleans()):  # x_j - x_k = u: a new pin at j after substitution
            j = draw(st.sampled_from(positions))
            u = draw(st.integers(-1, 2))
            forms += [F(-u, {j: 1, k: -1}), F(u, {j: -1, k: 1})]
        if draw(st.booleans()):  # c - a*x_j + b*x_k >= 0: a new upper or lower bound at j
            j = draw(st.sampled_from(positions))
            forms.append(F(draw(st.integers(-2, 4)), {j: draw(COEFFS), k: draw(COEFFS)}))
    if len(pinned) >= 2 and draw(st.booleans()):  # only pinned support: a constant check
        k, j = pinned[:2]
        a, b = draw(COEFFS), draw(COEFFS)
        slack = draw(st.integers(-2, 2))  # negative: the substituted constant is negative
        forms.append(F(slack - a * pins[k] - b * pins[j], {k: a, j: b}))
    support = st.integers(1, window + 1)
    for _ in range(draw(st.integers(0, 3))):
        forms.append(F(draw(st.integers(-2, 4)), draw(st.dictionaries(support, COEFFS, max_size=3))))
    return FormSet(forms=tuple(forms), window=window)


@settings(max_examples=200, deadline=None)
@given(presolve_systems(), st.integers(0, 7))
def test_presolve_matches_brute_force(fs, budget):
    assert fs.enumerate_points(budget) == brute_force_points(fs, budget)


def _descent(name, lam, bound, seq=None):
    builtin = get_builtin(name)
    mode = None if lam is None else weight(*lam)
    return DescentSystem(builtin.cartan, seq or builtin.iota, mode).generate(bound)


def _g2_rank2():
    c = get_builtin("g2").cartan
    return rank2_system(-c.a(1, 2), -c.a(2, 1), weight(2, 2))


# Systems too big for the brute force, against the re-summing search:
# (label, system builder, budget, point count).  The a5 bound 16 is the
# smallest whose window covers the depth-10 BFS, as `verify` would pick it.
LARGE_SYSTEMS = [
    ("a4-rho-8", lambda: _descent("a4", (1, 1, 1, 1), 10), 8, 351),
    ("a4-rho-10", lambda: _descent("a4", (1, 1, 1, 1), 10), 10, 567),
    ("a5-10001-10", lambda: _descent("a5", (1, 0, 0, 0, 1), 16), 10, 35),
    ("a3-free-iota0-6", lambda: _descent("a3", None, 6, IOTA0), 6, 97),
    ("g2-rank2-22-8", _g2_rank2, 8, 86),
]


@pytest.mark.parametrize("build, budget, count", [case[1:] for case in LARGE_SYSTEMS],
                         ids=[case[0] for case in LARGE_SYSTEMS])
def test_running_partials_match_the_resumming_search(build, budget, count):
    fs = build()
    points = fs.enumerate_points(budget)
    assert points == resumming_points(fs, budget)
    assert len(points) == count


def _nonzero_pin_system():
    """Pins x1 = 1, x4 = 2 and, through x3 - x1 = 1, x3 = 2; free x2, x5 and
    x6 under a form filed at x6; x7 = 1 is a pin past the last free position."""
    forms = _pin(1, 1) + _pin(4, 2) + _pin(7, 1) + [
        F(-1, {1: -1, 3: 1}), F(1, {1: 1, 3: -1}),
        F(3, {2: -1, 5: 1, 6: -1}), F(2, {4: 1, 5: -1}),
    ]
    return FormSet(forms=tuple(forms), window=7)


@pytest.mark.parametrize(
    "build, budget",
    [case[1:3] for case in LARGE_SYSTEMS] + [(_nonzero_pin_system, 11)],
    ids=[case[0] for case in LARGE_SYSTEMS] + ["nonzero-pins"])
def test_enumerated_points_are_canonical(build, budget):
    fs = build()
    points = fs.enumerate_points(budget)
    assert points
    for p in points:
        assert p.coords == tuple(sorted(p.coords))
        assert p == ZVector.from_dict(dict(p.coords), p.lam)
    if build is _nonzero_pin_system:
        assert points == brute_force_points(fs, budget)
        assert all(dict(p.coords).items() >= {(1, 1), (3, 2), (4, 2), (7, 1)} for p in points)


def _all_pinned_system():
    """x1 = 2 and x2 = 0 pinned by their bounds, and x3 = 1 through
    x3 - x1 = -1: no position is left free."""
    forms = _pin(1, 2) + _pin(2, 0) + [F(1, {1: -1, 3: 1}), F(-1, {1: 1, 3: -1})]
    return FormSet(forms=tuple(forms), window=3)


def _two_pin_system():
    """x2 = 2 and x4 = 2 pinned, x1 and x3 free under x1 + x3 <= 1."""
    forms = _pin(2, 2) + _pin(4, 2) + [F(1, {1: -1, 3: -1})]
    return FormSet(forms=tuple(forms), window=4)


def _first_position_pin_system():
    """x1 = 1 pinned, x2 and x3 free under x3 <= x2 + x1."""
    forms = _pin(1, 1) + [F(0, {1: 1, 2: 1, 3: -1})]
    return FormSet(forms=tuple(forms), window=3)


@pytest.mark.parametrize("build, budget, count", [
    (_all_pinned_system, 5, 1),
    (_all_pinned_system, 2, 0),  # the pins alone pass the budget
    (_two_pin_system, 5, 3),
    (_two_pin_system, 3, 0),  # the pins alone pass the budget
    (_first_position_pin_system, 4, 8),
], ids=["all-pinned", "all-pinned-past-budget", "two-pins", "two-pins-past-budget",
        "first-position-pin"])
def test_nonzero_pins_match_brute_force(build, budget, count):
    fs = build()
    coords = fs.lattice_coords(budget)
    assert coords == {p.coords for p in brute_force_points(fs, budget)}
    assert len(coords) == count


# The systems `crystalpoly verify` builds on the benchmark grid: (method,
# builtin, weight or None for free mode, budget).
VERIFY_GRID = (
    [("rank2", t, lam, 8) for t in ("a2", "b2", "c2", "g2")
     for lam in itertools.product(range(3), repeat=2)]
    + [("rank2", "a1tilde", (1, 1), 5)]
    + [("generate", "a3", lam, 6) for lam in itertools.product(range(2), repeat=3)]
    + [("iota0", "a3", (0, 1, 0), 6), ("iota0", "a3", None, 6)]
    + [("generate", "a4", lam, 6) for lam in ((1, 0, 0, 0), (1, 1, 1, 1))]
)


@pytest.mark.parametrize(
    "method, name, lam, budget", VERIFY_GRID,
    ids=lambda v: "".join(map(str, v)) if isinstance(v, tuple) else str(v),
)
def test_verify_grid_enumeration_matches_brute_force(method, name, lam, budget):
    builtin = get_builtin(name)
    mode = None if lam is None else weight(*lam)
    if method == "rank2":
        c = builtin.cartan
        window = 6 if name == "a1tilde" else None
        fs = rank2_system(-c.a(1, 2), -c.a(2, 1), mode, window=window)
    else:
        seq = IOTA0 if method == "iota0" else builtin.iota
        fs = DescentSystem(builtin.cartan, seq, mode).generate(max(budget, builtin.longest_len))
    assert fs.enumerate_points(budget) == brute_force_points(fs, budget)


# -- generation against the old Fraction loop ----------------------------

PAIRINGS = [(0, 0), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]  # products <= 3


@st.composite
def descent_inputs(draw):
    """Rank-2/3 Cartan data, a shuffled period with up to 3 extra letters,
    free or highest-weight mode, a support bound <= 6 and a round cap."""
    rank = draw(st.integers(2, 3))
    matrix = [[2 if a == b else 0 for b in range(rank)] for a in range(rank)]
    for a in range(rank):
        for b in range(a + 1, rank):
            c1, c2 = draw(st.sampled_from(PAIRINGS))
            matrix[a][b], matrix[b][a] = -c1, -c2
    cartan = cartan_from_matrix(matrix)
    extra = draw(st.lists(st.integers(1, rank), max_size=3))
    period = draw(st.permutations(list(range(1, rank + 1)) + extra))
    lam = draw(st.one_of(st.none(), st.lists(st.integers(0, 2), min_size=rank, max_size=rank)))
    return (
        cartan,
        IndexSequence(tuple(period), rank),
        None if lam is None else weight(*lam),
        draw(st.integers(1, 6)),
        draw(st.sampled_from([1, 2, 3, 60])),
    )


@settings(max_examples=300, deadline=None)
@given(descent_inputs())
def test_generation_matches_fraction_oracle(inputs):
    cartan, seq, lam, bound, max_rounds = inputs
    # a small cap keeps wild data quick and exercises the unsaturated stop
    with mock.patch.object(forms_module, "MAX_FORMS", 300):
        expected = descent_oracle.generate(cartan, seq, lam, bound, max_rounds)
        fs = DescentSystem(cartan, seq, lam).generate(bound, max_rounds=max_rounds)
    assert_matches_oracle(fs, expected)


def assert_matches_oracle(fs, expected):
    assert set(fs.forms) == expected["forms"]
    assert list(fs.trace.items()) == expected["trace"]
    assert (fs.rounds, fs.saturated, fs.window) == (
        expected["rounds"], expected["saturated"], expected["window"]
    )
    assert all(all_int(f) for f in fs.forms)


# every system the closure workload generates (its default support bound
# is the longest length), free and at one weight
CLOSURE_SYSTEMS = [
    *((name, None, None, lam) for name in ("a3", "a4", "a5", "a6", "b2", "c2", "g2")
      for lam in (None, "rho")),
    *(("a1tilde", None, bound, lam) for bound in (6, 12) for lam in (None, "rho")),
    ("a3", IOTA0.period, 6, None),
    ("a3", IOTA0.period, 6, (0, 1, 0)),
]


@pytest.mark.parametrize(
    "name, period, bound, lam", CLOSURE_SYSTEMS,
    ids=lambda v: "".join(map(str, v)) if isinstance(v, tuple) else str(v),
)
def test_generation_matches_oracle_on_closure_systems(name, period, bound, lam):
    builtin = get_builtin(name)
    rank = builtin.cartan.rank
    seq = builtin.iota if period is None else IndexSequence(period, rank)
    bound = bound or builtin.longest_len
    mode = None if lam is None else weight(*((1,) * rank if lam == "rho" else lam))
    expected = descent_oracle.generate(builtin.cartan, seq, mode, bound)
    assert_matches_oracle(DescentSystem(builtin.cartan, seq, mode).generate(bound), expected)


@pytest.mark.parametrize("name, lam, window, top", [
    ("a3", None, 6, 7), ("a3", (1, 1, 1), 7, 8), ("a1tilde", None, 6, 7),
], ids=lambda v: "".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_generation_refuses_a_form_past_the_window(name, lam, window, top):
    # the true window covers every bracket, so only a narrowed one reaches the guard
    builtin = get_builtin(name)
    system = DescentSystem(builtin.cartan, builtin.iota, None if lam is None else weight(*lam))
    with mock.patch.object(DescentSystem, "window_for", return_value=window):
        with pytest.raises(forms_module.GenerationError) as err:
            system.generate(6)
    assert str(err.value) == f"support overflow at position {top} > window {window}"


# -- integer values only ---------------------------------------------------

def test_evaluate_and_member_stay_exact():
    f = F(-1, {1: 1, 2: 3})
    assert f.evaluate({1: 1}) == 0 and f.evaluate({}) == -1
    fs = FormSet(forms=(f, F(1, {1: -1})), window=2)
    assert fs.member({1: 1}) and not fs.member({})
    assert fs.member({2: 1})
    assert not fs.member({1: 2})


def dict_add(f, g, factor=1):
    """f + factor * g through a dict and `make`, as `__add__` computed sums before the merge."""
    d = dict(f.coeffs)
    for pos, val in g.coeffs:
        d[pos] = d.get(pos, 0) + factor * val
    return LinearForm.make(f.const + factor * g.const, d)


exact_values = st.integers(-6, 6)
made_forms = st.builds(
    F, exact_values, st.dictionaries(st.integers(1, 9), exact_values, max_size=6)
)
factors = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-6, 6))


def assert_same_form(total, ref):
    # normalised like `make`: sorted, no zero coefficient, every value an int
    assert total == ref and hash(total) == hash(ref) and all_int(total)


@settings(max_examples=200, deadline=None)
@given(made_forms, made_forms, factors)
def test_sorted_merge_add_matches_dict_version(f, g, factor):
    assert_same_form(f.add_scaled(g, factor), dict_add(f, g, factor))
    assert_same_form(f + g, dict_add(f, g))
    assert_same_form(f - g, dict_add(f, g, -1))
    assert_same_form(f + f.scale(-1), LinearForm.zero())


def test_s_returns_the_form_itself_when_unchanged():
    # free a2 on 1 2: x1 and x2 are first occurrences, so the downward bracket is zero
    system = DescentSystem(A2.cartan, A2.iota)
    for form, k in ((F(0, {1: -1, 3: 1}), 1), (F(0, {2: -2, 3: 1}), 2), (F(1, {3: 1}), 1)):
        assert system.s(form, k) is form
    # a nonzero bracket clears phi_k, so the rewrite is a different form
    rewritten = system.s(F(0, {1: 1}), 1)
    assert rewritten.coeff(1) == 0 and rewritten != F(0, {1: 1})


@pytest.mark.parametrize(
    "value", [Fraction(1, 2), 0.5, "1/2", "\u0661", "+1", "1_0"],
    ids=["fraction", "float", "str", "arabic-indic-str", "plus-str", "underscored-str"])
def test_non_integral_values_are_refused(value):
    form = F(1, {1: 2})
    for build in (
        lambda: LinearForm.make(value),
        lambda: LinearForm.make(0, {1: value}),
        lambda: form.scale(value),
        lambda: form.add_scaled(F(0, {2: 1}), value),
        lambda: LinearForm.from_json_obj({"const": value, "coeffs": {}}),
        lambda: LinearForm.from_json_obj({"const": "0", "coeffs": {"1": value}}),
    ):
        with pytest.raises(ValueError):
            build()


@pytest.mark.parametrize("build, message", [
    (lambda: LinearForm.from_json_obj(
        {"const": "0", "coeffs": {"1_0": "2", "1": "1", "01": "5"}}),
     "a coordinate key must be an ASCII decimal position, got '1_0'"),
    (lambda: LinearForm.from_json_obj({"const": "0", "coeffs": {"1": "1", "01": "5"}}),
     "position 1 is given twice"),
    (lambda: LinearForm.from_json_obj({"const": "0", "coeffs": {"\u0663": "1"}}),
     "a coordinate key must be an ASCII decimal position, got '\u0663'"),
    (lambda: LinearForm.from_json_obj({"const": "0", "coeffs": {1: "1"}}),
     "a coordinate key must be an ASCII decimal position, got 1"),
    (lambda: LinearForm.make(0, {1.7: 1, True: 2}), "expected an integer, got 1.7"),
    (lambda: LinearForm.make(0, {True: 2}), "expected an integer, got True"),
    # below 1, as `ZVector` refuses them; a zero value there is refused too
    (lambda: LinearForm.from_json_obj({"const": "0", "coeffs": {"-1": "1", "0": "2"}}),
     "positions are 1-based"),
    (lambda: LinearForm.from_json_obj({"const": "0", "coeffs": {"0": "0"}}),
     "positions are 1-based"),
    (lambda: LinearForm.make(0, {2: 1, 0: 3}), "positions are 1-based"),
    (lambda: LinearForm.make(0, {-4: 0}), "positions are 1-based"),
    (lambda: LinearForm.make(0, {0.0: 1}), "positions are 1-based"),
], ids=["underscored-and-repeated", "repeated", "arabic-indic", "int-key", "float-and-bool",
        "bool", "json-below-one", "json-zero-value-at-zero", "make-zero",
        "make-negative-zero-value", "make-float-zero"])
def test_form_positions_are_read_as_vector_positions(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_integral_values_are_taken_as_ints():
    two = Fraction(4, 2)
    form = F(1, {1: 3})
    for built, expected in (
        (LinearForm.make(two, {1: two}), F(2, {1: 2})),
        (form.scale(two), F(2, {1: 6})),
        (form.add_scaled(F(1, {2: 1}), two), F(3, {1: 3, 2: 2})),
        (LinearForm.from_json_obj({"const": two, "coeffs": {"1": two}}), F(2, {1: 2})),
    ):
        assert built == expected and all_int(built)


@pytest.mark.parametrize("lam", [(0, 1, 0), None], ids=["010", "free"])
def test_cli_json_forms_round_trip(capsys, lam):
    argv = ["inequalities", "--builtin", "a3", "--iota", "1 2 3 2 1 2", "--format", "json"]
    argv += ["--binf"] if lam is None else ["--lambda", ",".join(map(str, lam))]
    assert main(argv) == 0
    listed = json.loads(capsys.readouterr().out)["forms"]
    rebuilt = [LinearForm.from_json_obj(obj) for obj in listed]
    assert all(all_int(f) for f in rebuilt)
    expected = _descent("a3", lam, 6, IOTA0)
    assert len(set(rebuilt)) == len(listed) and set(rebuilt) == set(expected.forms)
