"""Per-factor tensor folds: the test oracle for TensorWord's single fold.

The statistics and the operator targets are folded separately, one
`_factor_data` call per factor, with NEG_INF arithmetic throughout, as
TensorWord computed them before the fold was shared.  Nothing is kept
between calls.  `connected_component` is the breadth-first closure of a
word under its lowering operators, for the tests that need tensor crystals.
"""

from crystalpoly import NEG_INF
from crystalpoly.crystals import bfs_graph


def eps_phi_wt(word, i):
    """String statistics and the i-pairing of the weight, in one fold."""
    eps = NEG_INF
    phi = NEG_INF
    wtp = 0
    for m in range(len(word)):
        le, lp, lw = word._factor_data(m, i)
        cand = le - wtp
        if eps < cand:
            eps = cand
        cand = phi + lw
        phi = lp if lp >= cand else cand
        wtp += lw
    return eps, phi, wtp


def action_target(word, i, lowering):
    """Factor the operator acts on: the last one whose eps beats the prefix phi."""
    target = 0
    phi = NEG_INF  # phi_i of the factors before m
    for m in range(len(word)):
        le, lp, lw = word._factor_data(m, i)
        # at m = 0 this can only set the default target 0
        if phi <= le if lowering else phi < le:
            target = m
        cand = phi + lw
        phi = lp if lp >= cand else cand
    return target


def f(word, i):
    if len(word) == 0:
        return None
    return word._apply(i, action_target(word, i, lowering=True), -1)


def e(word, i):
    if len(word) == 0:
        return None
    return word._apply(i, action_target(word, i, lowering=False), +1)


def connected_component(seed, depth):
    """All lowering descendants of a tensor word, with labelled edges."""
    return bfs_graph(seed, seed.cartan.indices, lambda w, i: w.f(i), depth)
