"""Re-summing lattice enumeration: the test oracle for FormSet.enumerate_points.

The depth-first search over the window positions as it ran before forms
kept running partial values: every form filed at a position re-sums its
whole earlier support at every node.  The filing, the one-variable bounds
and the integer rows are the ones `enumerate_points` uses, so this oracle
pins the bookkeeping of the running values, not the pruning; it reaches
systems far too big for `brute_enum`.
"""

from crystalpoly import ZVector


def resumming_points(system, budget: int) -> set:
    lam = system.lam
    window = system.window
    rows = system._int_rows()
    low = [0] * (window + 1)
    high = [budget] * (window + 1)
    buckets: list[list] = [[] for _ in range(window + 1)]
    for const, coeffs in rows:
        inside = [(p, c) for p, c in coeffs if 0 < p <= window]
        if not inside:
            if const < 0:
                return set()
        elif len(inside) == 1:
            k, a = inside[0]
            if a > 0:
                low[k] = max(low[k], -(const // a))
            else:
                high[k] = min(high[k], const // -a)
        else:
            k, a = inside[-1]
            buckets[k].append((const, a, inside[:-1]))

    found: set = set()
    x = [0] * (window + 1)

    def rec(k: int, remaining: int):
        if k > window:
            found.add(ZVector(tuple((p, v) for p, v in enumerate(x) if v), lam))
            return
        lo, hi = low[k], min(high[k], remaining)
        for const, a, rest in buckets[k]:
            value = const + sum(c * x[p] for p, c in rest)
            if a > 0:
                lo = max(lo, -(value // a))
            else:
                hi = min(hi, value // -a)
        for val in range(lo, hi + 1):
            x[k] = val
            rec(k + 1, remaining - val)
        x[k] = 0

    rec(1, budget)
    return found
