"""Brute-force lattice enumeration: the test oracle for FormSet.enumerate_points.

Tries every composition of the budget over the whole window and checks
every form only at the leaves.  Exponential in the window; keep inputs small.
"""

from crystalpoly import ZVector


def brute_force_points(system, budget: int) -> set:
    rows = [(f.const, f.coeffs) for f in system.forms]
    found = set()
    assignment: dict[int, int] = {}

    def rec(pos: int, remaining: int):
        if pos > system.window:
            if all(
                const + sum(c * assignment.get(p, 0) for p, c in coeffs) >= 0
                for const, coeffs in rows
            ):
                found.add(ZVector.from_dict(assignment, system.lam))
            return
        for val in range(remaining + 1):
            if val:
                assignment[pos] = val
            elif pos in assignment:
                del assignment[pos]
            rec(pos + 1, remaining - val)
        if pos in assignment:
            del assignment[pos]

    rec(1, budget)
    return found
