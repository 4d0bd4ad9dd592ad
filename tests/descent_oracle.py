"""Descent generation on {position: Fraction} dicts: the test oracle for
DescentSystem.generate.

The loop tries every position 1..bound on every form and rebuilds the
bracket form at every rewrite, in Fraction arithmetic throughout, as
generation worked before forms kept integer coefficients and brackets
were built once per position.  A form is (const, sorted ((pos, coeff), ..))
with no zero coefficient.
"""

from fractions import Fraction

import crystalpoly.forms as forms
from crystalpoly.forms import GenerationError, LinearForm


def _form(const, coeffs):
    return Fraction(const), tuple(sorted((p, Fraction(v)) for p, v in coeffs.items() if v))


def _pairings(cartan, seq, i, lo, hi):
    return {j: cartan.a(i, seq.index_at(j)) for j in range(lo, hi)}


def beta_plus(cartan, seq, k):
    ik = seq.index_at(k)
    kp = seq.next_occurrence(k)
    return _form(0, {k: 1, **_pairings(cartan, seq, ik, k + 1, kp), kp: 1})


def beta_minus(cartan, seq, lam, k):
    km = seq.prev_occurrence(k)
    if km > 0:
        return beta_plus(cartan, seq, km)
    if lam is None:
        return _form(0, {})
    ik = seq.index_at(k)
    return _form(-lam.pairing(ik), {**_pairings(cartan, seq, ik, 1, k), k: 1})


def rewrite(cartan, seq, lam, form, k):
    """form - phi_k * (beta_plus(k) if phi_k > 0 else beta_minus(k))."""
    const, coeffs = form
    c = dict(coeffs).get(k, Fraction(0))
    if c == 0:
        return form
    b_const, b_coeffs = beta_plus(cartan, seq, k) if c > 0 else beta_minus(cartan, seq, lam, k)
    new = dict(coeffs)
    for pos, val in b_coeffs:
        new[pos] = new.get(pos, Fraction(0)) - c * val
    return _form(const - c * b_const, new)


def generate(cartan, seq, lam, support_bound, max_rounds=60):
    """{"forms", "trace", "rounds", "saturated", "window"} of the closure.

    `trace` lists (LinearForm, origin) in admission order.
    """
    reach = [seq.next_occurrence(k) for k in range(1, support_bound + 1)]
    if lam is not None:
        reach += [seq.first_occurrence(i) for i in cartan.indices]
    window = max(support_bound, *reach)
    trace = {}
    frontier = []

    def admit(form, origin):
        if form not in trace:
            trace[form] = origin
            frontier.append(form)

    for j in range(1, support_bound + 1):
        admit(_form(0, {j: 1}), ("x", j, ()))
    if lam is not None:
        for i in cartan.indices:
            const, coeffs = beta_minus(cartan, seq, lam, seq.first_occurrence(i))
            admit(_form(-const, {p: -v for p, v in coeffs}), ("wt", i, ()))

    rounds = 0
    saturated = True
    while frontier and saturated:
        if rounds >= max_rounds:
            saturated = False
            break
        rounds += 1
        layer, frontier = frontier, []
        for form in layer:
            kind, seed, word = trace[form]
            for k in range(1, support_bound + 1):
                new = rewrite(cartan, seq, lam, form, k)
                if new == form:
                    continue
                top = new[1][-1][0] if new[1] else 0
                if top > window:
                    raise GenerationError(f"support overflow at position {top} > window {window}")
                admit(new, (kind, seed, word + (k,)))
            if len(trace) > forms.MAX_FORMS:
                saturated = False
                break
    listed = [(LinearForm.make(c, dict(coeffs)), origin) for (c, coeffs), origin in trace.items()]
    return {
        "forms": {form for form, _ in listed},
        "trace": listed,
        "rounds": rounds,
        "saturated": saturated,
        "window": window,
    }
