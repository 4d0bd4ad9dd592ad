"""The only generic crystal axiom checker: every (element, index) evaluates
f and e through the accessors and then re-evaluates the weight of each
image and the operator back.  It checks tensor words, and it is the test
oracle for `crystalpoly.zvectors.check_crystal_axioms`, which checks a graph that
a `SequenceCrystal`'s BFS built, on coordinate tuples, and must report
the same violations in the same order.
"""

from operator import add, sub

from crystalpoly import NEG_INF


def check_crystal_axioms(crystal, elements) -> list[dict]:
    """Check the defining crystal axioms on the given elements.

    `crystal` carries its Cartan datum as `crystal.cartan` and the
    accessors epsilon(b, i), phi(b, i), weight_pairings(b) -> pairing
    tuple, f(b, i) and e(b, i), with None playing the role of 0: a
    SequenceCrystal as it is, tensor words through a small adapter.
    """
    cartan = crystal.cartan
    eps, phi, weight = crystal.epsilon, crystal.phi, crystal.weight_pairings
    f, e = crystal.f, crystal.e
    # column i - 1 holds <h_j, alpha_i> for every j: the weight shift of an i-arrow
    columns = tuple(zip(*cartan.matrix))
    violations = []

    def bad(kind, b, i, detail=""):
        violations.append({"kind": kind, "element": b, "index": i, "detail": detail})

    for b in elements:
        wb = weight(b)
        for i in cartan.indices:
            ev = eps(b, i)
            pv = phi(b, i)
            if (ev == NEG_INF) != (pv == NEG_INF):
                bad("eps-phi-finiteness", b, i)
            elif ev != NEG_INF and pv != ev + wb[i - 1]:
                bad("phi=eps+wt", b, i, f"phi={pv} eps={ev} wtp={wb[i - 1]}")
            fb = f(b, i)
            eb = e(b, i)
            if ev == NEG_INF and (fb is not None or eb is not None):
                bad("neginf-kills", b, i)
            if fb is not None:
                if weight(fb) != tuple(map(sub, wb, columns[i - 1])):
                    bad("wt-shift-f", b, i)
                if e(fb, i) != b:
                    bad("ef-adjoint", b, i)
            if eb is not None:
                if weight(eb) != tuple(map(add, wb, columns[i - 1])):
                    bad("wt-shift-e", b, i)
                if f(eb, i) != b:
                    bad("fe-adjoint", b, i)
    return violations
