"""Exact affine forms and the piecewise-linear generation of inequality systems.

A LinearForm is c + sum phi_k x_k with exact rational coefficients on a
sparse, finitely supported set of positions; a value is kept as an int when
it is integral and as a Fraction only when it is not, so the integer forms
that Cartan data produce are rewritten in machine integers.  DescentSystem
extends the SequenceCrystal of a Cartan datum, an index sequence and an optional
highest weight with the sign-split update that rewrites a form against
the local bracket form at a position; iterating those updates from the
coordinate seeds (plus the weight seeds in highest-weight mode) closes
the system.

Generation is truncated: operators act at positions 1..K and every
produced form provably lives inside the window 1..W where W is the
furthest next-occurrence reachable from 1..K.  Membership and lattice
enumeration work over that window.  It is also bounded: once more than
MAX_FORMS forms are admitted, generation stops unsaturated, because
wild Cartan data can double the form set every round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .cartan import CartanData, IndexSequence, Weight
from .zvectors import SequenceCrystal, ZVector

MAX_FORMS = 5000  # admitted forms before generation gives up unsaturated


def _exact(value) -> int | Fraction:
    """`value` as an int when it is integral, otherwise as a Fraction."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


@dataclass(frozen=True)
class LinearForm:
    """Affine form: constant plus sparse rational coefficients by position.

    Every value is an int unless it is non-integral; since Fraction(n) == n
    and hash(Fraction(n)) == hash(n), equality and hashing do not see the
    difference.
    """

    const: int | Fraction
    coeffs: tuple[tuple[int, int | Fraction], ...]  # sorted, no zero coefficients

    @classmethod
    def make(cls, const=0, coeffs=None) -> "LinearForm":
        items = []
        for pos, val in (coeffs or {}).items():
            v = _exact(val)
            if v:
                items.append((int(pos), v))
        return cls(_exact(const), tuple(sorted(items)))

    @classmethod
    def x(cls, k: int) -> "LinearForm":
        """The coordinate form taking x -> x_k."""
        return cls(0, ((k, 1),))

    @classmethod
    def zero(cls) -> "LinearForm":
        return cls(0, ())

    def coeff(self, k: int) -> int | Fraction:
        for pos, val in self.coeffs:
            if pos == k:
                return val
        return 0

    @property
    def support_max(self) -> int:
        return self.coeffs[-1][0] if self.coeffs else 0

    def add_scaled(self, other: "LinearForm", factor) -> "LinearForm":
        """self + factor * other, in one merge of the two sorted coefficient tuples.

        Zero sums are dropped; an int result is kept as it is and any other
        value goes through `_exact`, so the result is normalised like `make`.
        """
        if type(factor) is not int:
            factor = _exact(factor)
        a, b = self.coeffs, other.coeffs
        na, nb = len(a), len(b)
        out = []
        x = y = 0
        while x < na and y < nb:
            pa, pb = a[x][0], b[y][0]
            if pa < pb:
                out.append(a[x])
                x += 1
            elif pb < pa:
                v = b[y][1] * factor
                if v:
                    out.append((pb, v if type(v) is int else _exact(v)))
                y += 1
            else:
                v = a[x][1] + b[y][1] * factor
                if v:
                    out.append((pa, v if type(v) is int else _exact(v)))
                x += 1
                y += 1
        out += a[x:]
        for pb, vb in b[y:]:
            v = vb * factor
            if v:
                out.append((pb, v if type(v) is int else _exact(v)))
        const = self.const + other.const * factor
        return LinearForm(const if type(const) is int else _exact(const), tuple(out))

    def __add__(self, other: "LinearForm") -> "LinearForm":
        return self.add_scaled(other, 1)

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return self.add_scaled(other, -1)

    def scale(self, factor) -> "LinearForm":
        return LinearForm.zero().add_scaled(self, factor)

    def evaluate(self, x) -> int | Fraction:
        """Value at a ZVector or a {position: value} mapping."""
        if isinstance(x, dict):
            get = lambda k: x.get(k, 0)
        else:
            get = x.get
        total = self.const
        for pos, val in self.coeffs:
            total += val * get(pos)
        return total

    def render(self) -> str:
        def num(v):
            return str(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"

        parts = []
        if self.const:
            parts.append(num(self.const))
        for pos, val in self.coeffs:
            sign = "-" if val < 0 else "+"
            mag = abs(val)
            term = f"x{pos}" if mag == 1 else f"{num(mag)}*x{pos}"
            if not parts:
                parts.append(term if sign == "+" else f"-{term}")
            else:
                parts.append(f"{sign} {term}")
        return " ".join(parts) if parts else "0"

    def sort_key(self):
        return (self.coeffs, self.const)

    def to_json_obj(self) -> dict:
        return {
            "const": str(self.const),
            "coeffs": {str(pos): str(val) for pos, val in self.coeffs},
        }

    @classmethod
    def from_json_obj(cls, obj) -> "LinearForm":
        return cls.make(
            Fraction(obj["const"]),
            {int(k): Fraction(v) for k, v in obj["coeffs"].items()},
        )


class GenerationError(RuntimeError):
    pass


class DescentSystem(SequenceCrystal):
    """Bracket forms and the sign-split rewriting operator at each position."""

    def __init__(self, cartan: CartanData, seq: IndexSequence, lam: Weight | None = None):
        super().__init__(cartan, seq, lam)
        self._brackets: dict[tuple[int, bool], LinearForm] = {}  # (k, upward) -> bracket

    def _pairings(self, i: int, lo: int, hi: int) -> dict[int, int]:
        """<h_i, alpha_{i_j}> at each position lo <= j < hi."""
        return {j: self.cartan.a(i, self.seq.index_at(j)) for j in range(lo, hi)}

    def beta_plus(self, k: int) -> LinearForm:
        """x_k + pairing-weighted middle + x at the next occurrence of i_k."""
        kept = self._brackets.get((k, True))
        if kept is None:
            ik = self.seq.index_at(k)
            kp = self.seq.next_occurrence(k)
            kept = LinearForm.make(0, {k: 1, **self._pairings(ik, k + 1, kp), kp: 1})
            self._brackets[k, True] = kept
        return kept

    def beta_minus(self, k: int) -> LinearForm:
        """Downward companion of beta_plus.

        At a position with an earlier occurrence this is beta_plus there;
        at a first occurrence it is the zero form in free mode and the
        weight-bearing boundary form in highest-weight mode.
        """
        kept = self._brackets.get((k, False))
        if kept is None:
            km = self.seq.prev_occurrence(k)
            if km > 0:
                kept = self.beta_plus(km)
            elif self.lam is None:
                kept = LinearForm.zero()
            else:
                ik = self.seq.index_at(k)
                kept = LinearForm.make(-self.lam.pairing(ik), {**self._pairings(ik, 1, k), k: 1})
            self._brackets[k, False] = kept
        return kept

    def weight_seed(self, i: int) -> LinearForm:
        """Seed form bounding the first coordinate of index i by the weight."""
        if self.lam is None:
            raise ValueError("weight seeds exist only in highest-weight mode")
        return self.beta_minus(self.seq.first_occurrence(i)).scale(-1)

    def s(self, form: LinearForm, k: int) -> LinearForm:
        """Rewrite `form` against the bracket at k, split on the sign of phi_k.

        Returns `form` itself when phi_k is 0 or the bracket is the zero form;
        any other bracket has coefficient 1 at k, so the rewrite clears phi_k
        and returns a different form.
        """
        c = form.coeff(k)
        if c > 0:
            bracket = self.beta_plus(k)
        elif c < 0:
            bracket = self.beta_minus(k)
        else:
            return form
        if not bracket.coeffs and not bracket.const:
            return form
        return form.add_scaled(bracket, -c)

    def window_for(self, support_bound: int) -> int:
        """Furthest position any operator at 1..support_bound or weight seed can reach."""
        reach = [self.seq.next_occurrence(k) for k in range(1, support_bound + 1)]
        if self.lam is not None:
            reach += [self.seq.first_occurrence(i) for i in self.cartan.indices]
        return max(support_bound, *reach)

    def generate(self, support_bound: int, max_rounds: int = 60) -> "FormSet":
        """Close the seed forms under the rewriting operators at 1..support_bound.

        A form is rewritten only at its own support positions up to the
        bound, in ascending order: at any other position s returns it
        unchanged.  Stops unsaturated after `max_rounds` rounds, or in the
        round whose admitted forms pass MAX_FORMS.
        """
        if support_bound < 1:
            raise ValueError("support bound must be >= 1")
        window = self.window_for(support_bound)
        trace: dict[LinearForm, tuple] = {}
        frontier: list[LinearForm] = []

        def admit(form, origin):
            if form not in trace:
                trace[form] = origin
                frontier.append(form)

        for j in range(1, support_bound + 1):
            admit(LinearForm.x(j), ("x", j, ()))
        if self.lam is not None:
            for i in self.cartan.indices:
                admit(self.weight_seed(i), ("wt", i, ()))

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
                for k, _ in form.coeffs:
                    if k > support_bound:
                        break
                    new = self.s(form, k)
                    if new is form:
                        continue
                    if new.support_max > window:
                        raise GenerationError(
                            f"support overflow at position {new.support_max} > window {window}"
                        )
                    admit(new, (kind, seed, word + (k,)))
                if len(trace) > MAX_FORMS:
                    saturated = False
                    break
        return FormSet(
            forms=tuple(trace),
            window=window,
            lam=self.lam,
            seq=self.seq,
            saturated=saturated,
            rounds=rounds,
            support_bound=support_bound,
            trace=trace,
        )


@dataclass
class FormSet:
    """A deduplicated inequality system over a finite window of positions."""

    forms: tuple[LinearForm, ...]
    window: int
    lam: Weight | None = None
    seq: IndexSequence | None = None
    saturated: bool = True
    rounds: int = 0
    support_bound: int = 0
    trace: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._members = frozenset(self.forms)
        self.forms = tuple(sorted(self._members, key=LinearForm.sort_key))

    def __contains__(self, form: LinearForm) -> bool:
        return form in self._members

    def member(self, x) -> bool:
        """True when every form is nonnegative at x (support within window)."""
        if isinstance(x, ZVector):
            if x.max_pos > self.window:
                raise ValueError("vector support exceeds the system window")
            x = dict(x.coords)
        elif isinstance(x, dict):
            if any(k > self.window and v for k, v in x.items()):
                raise ValueError("vector support exceeds the system window")
        return all(f.evaluate(x) >= 0 for f in self.forms)

    def _int_rows(self):
        """(const, ((pos, coeff), ...)) rows in machine ints.

        An all-int form passes through as its own (const, coeffs).  A form
        holding a Fraction is multiplied by the lcm of its denominators,
        which is positive, so the sign of every value stays.
        """
        rows = []
        for f in self.forms:
            const, coeffs = f.const, f.coeffs
            if type(const) is int:
                for _, v in coeffs:
                    if type(v) is not int:
                        break
                else:
                    rows.append((const, coeffs))
                    continue
            scale = lcm(const.denominator, *(v.denominator for _, v in coeffs))
            rows.append((
                const.numerator * (scale // const.denominator),
                tuple((p, v.numerator * (scale // v.denominator)) for p, v in coeffs),
            ))
        return rows

    def enumerate_points(self, budget: int) -> set[ZVector]:
        """Nonnegative window-supported lattice points with coordinate sum <= budget
        satisfying every form.

        Depth-first search over the positions 1..window, assigning x_1, x_2, ...
        in turn; positions outside the window are 0.  Each form is filed under the
        largest position of its support inside the window and is solved for
        that coordinate as soon as every earlier one is set: with the rest of
        the form evaluated exactly in integers (`_int_rows`) it leaves an
        interval of admissible values, so a value is skipped exactly when it
        would make a fully assigned form negative.
        That rest is kept as a running partial value per form: each position
        lists the (form, coefficient) pairs whose earlier support holds it,
        setting x_p moves those partials by their coefficient per step of
        x_p's value loop, and backtracking takes the steps back out, so a
        form filed at k reads one integer.
        Forms in a single coordinate (the zero pins and the weight bounds
        `lambda_i - x_k >= 0`) become fixed bounds on that coordinate, and a
        form with no support in the window is just its constant.
        """
        lam = self.lam
        window = self.window
        low = [0] * (window + 1)
        high = [budget] * (window + 1)
        buckets: list[list] = [[] for _ in range(window + 1)]  # by k: (slot, coeff) filed at k
        touches: list[list] = [[] for _ in range(window + 1)]  # by p: (slot, coeff) filed past p
        partial: list[int] = []  # by slot: const plus the terms of the positions set so far
        for const, coeffs in self._int_rows():
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
                k, a = inside.pop()
                slot = len(partial)
                partial.append(const)
                buckets[k].append((slot, a))
                for p, c in inside:
                    touches[p].append((slot, c))

        found: set[ZVector] = set()
        x = [0] * (window + 1)

        def rec(k: int, remaining: int):
            if k > window:
                found.add(ZVector(tuple((p, v) for p, v in enumerate(x) if v), lam))
                return
            lo, hi = low[k], min(high[k], remaining)
            for slot, a in buckets[k]:
                if a > 0:
                    bound = -(partial[slot] // a)
                    if bound > lo:
                        lo = bound
                else:
                    bound = partial[slot] // -a
                    if bound < hi:
                        hi = bound
            if lo > hi:
                return
            moves = touches[k]
            if lo:
                for slot, c in moves:
                    partial[slot] += c * lo
            for val in range(lo, hi + 1):
                x[k] = val
                rec(k + 1, remaining - val)
                for slot, c in moves:
                    partial[slot] += c
            for slot, c in moves:  # the lo shift and the hi - lo + 1 steps
                partial[slot] -= c * (hi + 1)
            x[k] = 0

        rec(1, budget)
        return found

    def _require(self, mode_binf: bool):
        if self.seq is None:
            raise ValueError("this system carries no index sequence")
        if not self.saturated:
            raise ValueError("refusing to judge an unsaturated system")
        if mode_binf and self.lam is not None:
            raise ValueError("positivity applies to free-mode systems")
        if not mode_binf and self.lam is None:
            raise ValueError("ampleness applies to highest-weight systems")

    def positivity_report(self):
        """Nonnegative coefficient at every first-occurrence position, or witnesses."""
        self._require(mode_binf=True)
        witnesses = []
        for form in self.forms:
            for pos, val in form.coeffs:
                if self.seq.prev_occurrence(pos) == 0 and val < 0:
                    witnesses.append((form, pos))
        return not witnesses, witnesses

    def ampleness_report(self):
        """Nonnegative constant term on every form, or the failing forms."""
        self._require(mode_binf=False)
        witnesses = [form for form in self.forms if form.const < 0]
        return not witnesses, witnesses

    def render_text(self) -> str:
        return "\n".join(f"{form.render()} >= 0" for form in self.forms)

    def to_json_list(self) -> list:
        return [form.to_json_obj() for form in self.forms]
