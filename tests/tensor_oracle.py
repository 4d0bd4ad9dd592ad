"""Per-factor tensor folds: the test oracle for TensorWord's single fold.

The statistics and the operator targets are folded separately, one
`factor_data` call per factor, with NEG_INF arithmetic throughout, as
TensorWord computed them before the fold was shared.  Nothing is kept
between calls.  `bfs_graph` is the generic breadth-first closure of a seed
under any lowering map: the oracle for `SequenceCrystal.bfs`, and through
`connected_component` the closure of a word for the tests that need tensor
crystals.

`to_tensor_word`, `from_tensor_word` and `tensor_transport` are the tensor
route across a braid window: truncate a vector to a word, apply the map
with `apply_at`, and read the coordinates back.  They are the oracle for
`transport` and for the vector operators.
"""

from collections import deque

from crystalpoly import NEG_INF, SequenceCrystal, ZVector, apply_at
from crystalpoly.crystals import CrystalGraph, TensorWord


def factor_data(word, m, i):
    """(eps_i, phi_i, <h_i, wt>) of the m-th factor (0-based) of a tensor word."""
    if m < len(word.values):
        index, value = word.indices[m], word.values[m]
        wtp = value * word.cartan.a(i, index)
        if index == i:
            return -value, value, wtp
        return NEG_INF, NEG_INF, wtp
    lam = word.unit.pairing(i)
    return -lam, 0, lam


def eps_phi_wt(word, i):
    """String statistics and the i-pairing of the weight, in one fold."""
    eps = NEG_INF
    phi = NEG_INF
    wtp = 0
    for m in range(len(word)):
        le, lp, lw = factor_data(word, m, i)
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
        le, lp, lw = factor_data(word, m, i)
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


def bfs_graph(seed, indices, lower, depth: int) -> CrystalGraph:
    """Close `seed` under the lowering maps, up to `depth` applications."""
    if seed is None:
        raise ValueError("seed must be a crystal element, not the absorbing 0")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    nodes = [seed]
    index = {seed: 0}
    depths = [0]
    edges = []
    queue = deque([0])
    while queue:
        src = queue.popleft()
        if depths[src] >= depth:
            continue
        for i in indices:
            child = lower(nodes[src], i)
            if child is None:
                continue
            dst = index.get(child)
            if dst is None:
                dst = len(nodes)
                index[child] = dst
                nodes.append(child)
                depths.append(depths[src] + 1)
                queue.append(dst)
            edges.append((src, i, dst))
    return CrystalGraph(nodes, edges, depths)


def connected_component(seed, depth):
    """All lowering descendants of a tensor word, with labelled edges."""
    return bfs_graph(seed, seed.cartan.indices, lambda w, i: w.f(i), depth)


def to_tensor_word(crystal, x, length):
    """Truncate to a finite tensor word; coordinate x_k becomes (-x_k)_{i_k}."""
    if x.lam != crystal.lam:
        raise ValueError("vector weight does not match this crystal")
    if x.coords and x.coords[0][0] < 1:
        raise ValueError("positions are 1-based")
    if x.max_pos > length:
        raise ValueError("truncation length does not cover the support")
    positions = range(length, 0, -1)
    return TensorWord(crystal.cartan, map(crystal.seq.index_at, positions),
                      (-x.get(k) for k in positions), crystal.lam)


def from_tensor_word(crystal, word):
    """Inverse of to_tensor_word for words shaped like the crystal's sequence."""
    n = len(word.values)
    coords = {}
    for offset, (index, value) in enumerate(zip(word.indices, word.values)):
        pos = n - offset
        if index != crystal.seq.index_at(pos):
            raise ValueError("letter indices do not follow the sequence")
        if value:
            coords[pos] = -value
    return ZVector.from_dict(coords, crystal.lam)


def tensor_transport(ctx, cartan, seq, x, positions):
    """A vector across a braid window by the tensor round trip.

    The word covers the window and the support; the image is read back by
    position, since its window letters carry the braided sequence's indices.
    """
    crystal = SequenceCrystal(cartan, seq, x.lam)
    word = to_tensor_word(crystal, x, max(max(positions), x.max_pos))
    image = apply_at(ctx, word, positions)
    n = len(image.values)
    coords = {n - off: -v for off, v in enumerate(image.values) if v}
    return ZVector.from_dict(coords, x.lam)
