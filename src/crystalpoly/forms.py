"""Exact affine forms and the piecewise-linear generation of inequality systems.

A LinearForm is c + sum phi_k x_k with an integer constant and integer
coefficients on a sparse, finitely supported set of positions: Cartan
pairings and weights make every form integral, so forms are rewritten,
evaluated and enumerated in machine integers.  A form is the plain tuple
(const, coeffs) with a few methods, so it hashes, compares and unpacks as
that tuple.  DescentSystem
extends the SequenceCrystal of a Cartan datum, an index sequence and an optional
highest weight with the sign-split update that rewrites a form against
the local bracket form at a position; the brackets are read from the
crystal's pairing table, and iterating those updates from the
coordinate seeds (plus the weight seeds in highest-weight mode) closes
the system, merging coefficient tuples directly.

Generation is truncated: operators act at positions 1..K and every
produced form provably lives inside the window 1..W where W is the
furthest next-occurrence reachable from 1..K.  Membership and lattice
enumeration work over that window.  It is also bounded: once more than
MAX_FORMS forms are admitted, generation stops unsaturated, because
wild Cartan data can double the form set every round.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from operator import itemgetter

from .cartan import IndexSequence, Weight, decimal_int, exact_int
from .zvectors import Coords, SequenceCrystal, ZVector, dict_coords, json_positions

MAX_FORMS = 5000  # admitted forms before generation gives up unsaturated


def _merged(a: Coords, b: Coords, factor: int) -> Coords:
    """a + factor * b, in one merge of the two sorted coefficient tuples; zero sums drop."""
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
                out.append((pb, v))
            y += 1
        else:
            v = a[x][1] + b[y][1] * factor
            if v:
                out.append((pa, v))
            x += 1
            y += 1
    out += a[x:]
    for pb, vb in b[y:]:
        v = vb * factor
        if v:
            out.append((pb, v))
    return tuple(out)


class LinearForm(tuple):
    """Affine form: integer constant plus sparse integer coefficients by position.

    A form is the tuple (const, coeffs), with coeffs sorted by position and
    free of zero values: it equals, hashes and unpacks as that plain tuple.
    `make`, `scale` and `add_scaled` take a value that equals an int, such
    as 2.0, as that int, and refuse one that does not, such as 0.5, with
    ValueError; `make` refuses a position below 1 the same way.
    """

    __slots__ = ()

    const = property(itemgetter(0), doc="The integer constant.")
    coeffs = property(itemgetter(1), doc="Sorted (position, value) pairs, no zero value.")

    def __new__(cls, const: int, coeffs: Coords):
        return tuple.__new__(cls, (const, coeffs))

    def __getnewargs__(self):
        return tuple(self)  # pickle and copy rebuild through the two-argument __new__

    def __repr__(self):
        return f"LinearForm(const={self[0]!r}, coeffs={self[1]!r})"

    @classmethod
    def make(cls, const=0, coeffs=None) -> "LinearForm":
        return cls(exact_int(const), dict_coords(coeffs or {}))

    @classmethod
    def x(cls, k: int) -> "LinearForm":
        """The coordinate form taking x -> x_k."""
        return cls(0, ((k, 1),))

    @classmethod
    def zero(cls) -> "LinearForm":
        return cls(0, ())

    def coeff(self, k: int) -> int:
        for pos, val in self[1]:
            if pos == k:
                return val
        return 0

    def add_scaled(self, other: "LinearForm", factor) -> "LinearForm":
        """self + factor * other, normalised like `make`."""
        if type(factor) is not int:
            factor = exact_int(factor)
        return LinearForm(self[0] + other[0] * factor, _merged(self[1], other[1], factor))

    def __add__(self, other: "LinearForm") -> "LinearForm":
        return self.add_scaled(other, 1)

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return self.add_scaled(other, -1)

    def scale(self, factor) -> "LinearForm":
        return LinearForm.zero().add_scaled(self, factor)

    def evaluate(self, x) -> int:
        """Value at a ZVector or a {position: value} mapping."""
        if isinstance(x, dict):
            get = lambda k: x.get(k, 0)
        else:
            get = x.get
        total, coeffs = self
        for pos, val in coeffs:
            total += val * get(pos)
        return total

    def render(self) -> str:
        parts = []
        if self.const:
            parts.append(str(self.const))
        for pos, val in self.coeffs:
            sign = "-" if val < 0 else "+"
            mag = abs(val)
            term = f"x{pos}" if mag == 1 else f"{mag}*x{pos}"
            if not parts:
                parts.append(term if sign == "+" else f"-{term}")
            else:
                parts.append(f"{sign} {term}")
        return " ".join(parts) if parts else "0"

    def to_json_obj(self) -> dict:
        return {
            "const": str(self.const),
            "coeffs": {str(pos): str(val) for pos, val in self.coeffs},
        }

    @classmethod
    def from_json_obj(cls, obj) -> "LinearForm":
        """The form `to_json_obj` wrote, its values as decimal integer strings
        or numbers, keyed as `json_positions` reads keys; a value that is not
        an integer raises ValueError."""

        def num(v):
            return decimal_int(v) if type(v) is str else v

        coeffs = json_positions(obj["coeffs"])
        return cls.make(num(obj["const"]), {pos: num(v) for pos, v in coeffs.items()})


class GenerationError(RuntimeError):
    pass


class DescentSystem(SequenceCrystal):
    """Bracket forms and the sign-split rewriting operator at each position."""

    def _middle(self, i: int, lo: int, hi: int) -> Coords:
        """(j, <h_i, alpha_{i_j}>) for lo <= j < hi, read from the step table;
        zero pairings are left out."""
        steps = self._per_index[i - 1][0]
        m = len(steps)
        return tuple((j, a) for j in range(lo, hi) if (a := steps[j % m][2]))

    def beta_plus(self, k: int) -> LinearForm:
        """x_k + pairing-weighted middle + x at the next occurrence of i_k."""
        kp = self.seq.next_occurrence(k)
        return LinearForm(0, ((k, 1), *self._middle(self.seq.index_at(k), k + 1, kp), (kp, 1)))

    def beta_minus(self, k: int) -> LinearForm:
        """Downward companion of beta_plus.

        At a position with an earlier occurrence this is beta_plus there;
        at a first occurrence it is the zero form in free mode and the
        weight-bearing boundary form in highest-weight mode.
        """
        km = self.seq.prev_occurrence(k)
        if km > 0:
            return self.beta_plus(km)
        return LinearForm.zero() if self.lam is None else self._boundary(self.seq.index_at(k))

    def _boundary(self, i: int) -> LinearForm:
        """-lambda_i + pairing-weighted middle + x at the first occurrence of index i."""
        k = self.seq.first_occurrence(i)
        return LinearForm(-self.lam.pairing(i), (*self._middle(i, 1, k), (k, 1)))

    def weight_seed(self, i: int) -> LinearForm:
        """Seed form bounding the first coordinate of index i by the weight."""
        if self.lam is None:
            raise ValueError("weight seeds exist only in highest-weight mode")
        return self._boundary(i).scale(-1)

    def s(self, form: LinearForm, k: int) -> LinearForm:
        """Rewrite `form` against the bracket at k, split on the sign of phi_k.

        Returns `form` itself when phi_k is 0 or the bracket is the zero form;
        any other bracket has coefficient 1 at k, so the rewrite clears phi_k
        and returns a different form.  `generate` makes the same rewrite
        inline on the form's tuples.
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
        unchanged.  The loop rewrites as `s` does, on the tuples directly:
        each (k, phi_k) of the form's coefficients picks the bracket at k
        by the sign of phi_k (none for the zero bracket), one `_merged`
        call gives the new coefficients, and the new form is admitted
        unless it is already traced.  Stops unsaturated after `max_rounds`
        rounds, or in the round whose admitted forms pass MAX_FORMS.
        """
        if support_bound < 1:
            raise ValueError("support bound must be >= 1")
        if support_bound > MAX_FORMS:  # its coordinate seeds alone would pass the cap
            raise ValueError(f"support bound must be <= {MAX_FORMS}")
        window = self.window_for(support_bound)
        positions = range(1, support_bound + 1)
        prev, index_at = self.seq.prev_occurrence, self.seq.index_at
        up = [None] + [self.beta_plus(k) for k in positions]  # by position
        # beta_minus is up at the previous occurrence; at a first one, up[0]'s None in free mode
        down = [None] + [up[km] if (km := prev(k)) or self.lam is None
                         else self._boundary(index_at(k)) for k in positions]
        trace: dict[LinearForm, tuple] = {}
        frontier: list[LinearForm] = []

        def admit(form, origin):
            if form not in trace:
                trace[form] = origin
                frontier.append(form)

        for j in positions:
            admit(LinearForm.x(j), ("x", j, ()))
        if self.lam is not None:
            for i in self.cartan.indices:
                admit(self.weight_seed(i), ("wt", i, ()))

        new_form = tuple.__new__
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
                const, coeffs = form
                for k, c in coeffs:
                    if k > support_bound:
                        break
                    bracket = up[k] if c > 0 else down[k]
                    if bracket is None:
                        continue
                    merged = _merged(coeffs, bracket[1], -c)
                    if merged and merged[-1][0] > window:
                        raise GenerationError(
                            f"support overflow at position {merged[-1][0]} > window {window}"
                        )
                    new = new_form(LinearForm, (const - c * bracket[0], merged))
                    if new not in trace:
                        trace[new] = (kind, seed, word + (k,))
                        frontier.append(new)
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
        self.forms = tuple(sorted(set(self.forms), key=itemgetter(1, 0)))  # by coeffs, then const

    def __contains__(self, form: LinearForm) -> bool:
        return form in self.forms

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

    def enumerate_points(self, budget: int) -> set[ZVector]:
        """The points of `lattice_coords`, as vectors in this system's mode."""
        return {ZVector(coords, self.lam) for coords in self.lattice_coords(budget)}

    def lattice_coords(self, budget: int) -> set[Coords]:
        """Nonnegative window-supported lattice points with coordinate sum <= budget
        satisfying every form, as ZVector coords tuples.

        Positions outside the window are 0, and each form is read as its
        integer row (const, coeffs).  A presolve comes first.  Forms in a single
        coordinate (the zero pins and the weight bounds `lambda_i - x_k >= 0`)
        become fixed bounds on that coordinate, and a form with no support in
        the window is just its constant.  A position whose bounds meet is
        pinned: its value is substituted into the other forms, which can
        leave new one-coordinate bounds and so new pins, until none appears.
        Then a depth-first search assigns the positions in increasing order;
        a position pinned to 0 is left out, and one pinned to a nonzero value
        is a level whose bounds meet, so the budget counts it as it counts
        any other.  Each form left with two or more free coordinates is filed
        under the largest and solved for it once the earlier ones are set:
        the rest of the form leaves an interval of admissible values, so a
        value is skipped exactly when it would make a fully assigned form
        negative.  That rest is kept as a running partial value per form:
        each free position lists the (form, coefficient) pairs whose earlier
        support holds it, setting the position moves those partials by their
        coefficient per step of its value loop, and backtracking takes the
        steps back out, so a form filed at k reads one integer.
        Each level hands the next the sorted tuple of nonzero (position,
        value) pairs set so far, and the last level adds its points directly.
        """
        window = self.window
        low = [0] * (window + 1)
        high = [budget] * (window + 1)
        pins: dict[int, int] = {}
        rows = [(f.const, f.coeffs) for f in self.forms]
        while True:
            multi = []  # (const, ((pos, coeff), ...)) with two or more free positions
            for const, coeffs in rows:
                inside = []
                for p, c in coeffs:
                    if 0 < p <= window:
                        if p in pins:
                            const += c * pins[p]
                        else:
                            inside.append((p, c))
                if len(inside) > 1:
                    multi.append((const, inside))
                elif inside:
                    k, a = inside[0]
                    if a > 0:
                        low[k] = max(low[k], -(const // a))
                    else:
                        high[k] = min(high[k], const // -a)
                elif const < 0:
                    return set()
            rows = multi
            new = [k for k in range(1, window + 1) if low[k] >= high[k] and k not in pins]
            if not new:
                break
            for k in new:
                if low[k] > high[k]:
                    return set()
                pins[k] = low[k]

        # the search levels: every position not pinned to 0, a nonzero pin as lo == hi
        searched = [k for k in range(1, window + 1) if pins.get(k) != 0]
        level = {k: n for n, k in enumerate(searched)}
        lows = [low[k] for k in searched]
        highs = [high[k] for k in searched]
        buckets: list[list] = [[] for _ in searched]  # by level: (slot, coeff) filed there
        touches: list[list] = [[] for _ in searched]  # by level: (slot, coeff) filed later
        partial: list[int] = []  # by slot: const plus the terms of the positions set so far
        for const, inside in rows:
            k, a = inside.pop()
            slot = len(partial)
            partial.append(const)
            buckets[level[k]].append((slot, a))
            for p, c in inside:
                touches[level[p]].append((slot, c))
        if not searched:
            return {()} if budget >= 0 else set()

        found: set[Coords] = set()
        add = found.add
        last = len(searched) - 1

        def rec(n: int, remaining: int, coords: tuple):
            lo, hi = lows[n], highs[n]
            if remaining < hi:
                hi = remaining
            for slot, a in buckets[n]:
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
            k = searched[n]
            if n == last:
                if not lo:
                    add(coords)
                    lo = 1
                for val in range(lo, hi + 1):
                    add(coords + ((k, val),))
                return
            moves = touches[n]
            if lo:
                for slot, c in moves:
                    partial[slot] += c * lo
            n += 1
            for val in range(lo, hi + 1):
                rec(n, remaining - val, coords + ((k, val),) if val else coords)
                for slot, c in moves:
                    partial[slot] += c
            for slot, c in moves:  # the lo shift and the hi - lo + 1 steps
                partial[slot] -= c * (hi + 1)

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + len(searched))  # rec nests one frame per level
        try:
            rec(0, budget, ())
        finally:
            sys.setrecursionlimit(limit)
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
