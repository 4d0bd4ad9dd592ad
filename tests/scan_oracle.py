"""Per-position sigma statistics: the test oracle for SequenceCrystal's scan.

Every statistic is written straight from its definition: the max of
`sigma` over the positions of index i up to the top of the support, each
position summed on its own.  Quadratic in the support; keep inputs small.
The bump and the weight are rebuilt here too (a dict round-trip and a
sparse pairing sum), so the oracle shares neither with the code under test.
"""

from crystalpoly import MSet, ZVector


def bumped(x, k, delta):
    d = dict(x.coords)
    d[k] = d.get(k, 0) + delta
    return ZVector(tuple(sorted((p, v) for p, v in d.items() if v)), x.lam)


def weight_pairings(crystal, x):
    out = []
    for j in crystal.cartan.indices:
        total = crystal.lam.pairing(j) if crystal.lam is not None else 0
        for pos, val in x.coords:
            total -= crystal.cartan.a(j, crystal.seq.index_at(pos)) * val
        out.append(total)
    return tuple(out)


def m_set(crystal, x, i):
    top = x.max_pos
    best = 0
    best_positions = []
    for k in crystal.seq.positions_of(i, top):
        s = crystal.sigma(x, k)
        if s > best:
            best = s
            best_positions = [k]
        elif s == best:
            best_positions.append(k)
    if best > 0:
        return MSet(best, best_positions[0], best_positions[-1])
    min_pos = best_positions[0] if best_positions else crystal.seq.next_position_of(i, top)
    return MSet(0, min_pos, None)


def sigma_0(crystal, x, i):
    total = -crystal.lam.pairing(i)
    for pos, val in x.coords:
        total += crystal.cartan.a(i, crystal.seq.index_at(pos)) * val
    return total


def f(crystal, x, i):
    ms = m_set(crystal, x, i)
    if crystal.lam is not None and not ms.sigma > sigma_0(crystal, x, i):
        return None
    return bumped(x, ms.min_pos, +1)


def e(crystal, x, i):
    ms = m_set(crystal, x, i)
    if ms.sigma <= 0:
        return None
    if crystal.lam is not None and not ms.sigma >= sigma_0(crystal, x, i):
        return None
    return bumped(x, ms.max_pos, -1)


def epsilon(crystal, x, i):
    s = m_set(crystal, x, i).sigma
    if crystal.lam is None:
        return s
    return max(s, sigma_0(crystal, x, i))


def phi(crystal, x, i):
    return weight_pairings(crystal, x)[i - 1] + epsilon(crystal, x, i)
