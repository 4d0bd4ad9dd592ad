"""Closed-form inequality systems and the builtin Cartan data.

The rank-2 system is driven by an integer coefficient sequence whose
three-term recurrence alternates the two negated pairings; it truncates
at the first sign change (l_max), which is finite exactly for the five
finite rank-2 types.  The A_n system lives on a doubly-indexed triangle
of coordinates.  Both are cross-checked against the breadth-first oracle
in the tests, and so are the builtins' longest words; this module only
writes them down.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache

from .cartan import CartanData, CartanError, IndexSequence, Weight, an_cartan, rank2_cartan
from .forms import MAX_FORMS, FormSet, LinearForm


def a_sequence(c1: int, c2: int, l: int) -> int:
    """Coefficient a_l of a_{-1} = -1, a_0 = 0, a_{m+1} = c a_m - a_{m-1},
    where c is c2 at even m and c1 at odd m."""
    if l < 0:
        raise ValueError("l must be >= 0")
    return _a_terms(c1, c2, l + 1)[l]


def _a_terms(c1: int, c2: int, count: int) -> list[int]:
    """a_0 .. a_{count-1} of `a_sequence`, in one walk of the recurrence."""
    terms = []
    prev, cur = -1, 0
    for m in range(count):
        terms.append(cur)
        prev, cur = cur, (c1 if m % 2 else c2) * cur - prev
    return terms


def l_max(c1: int, c2: int) -> int | None:
    """Minimal l with a_{l+1} < 0; None flags that all a_l stay nonnegative."""
    if c1 * c2 >= 4:
        return None
    for l in range(0, 8):
        if a_sequence(c1, c2, l + 1) < 0:
            return l
    raise AssertionError("a sign change occurs by l=7 whenever c1*c2 <= 3")


def rank2_system(c1: int, c2: int, lam: Weight, window: int | None = None) -> FormSet:
    """The two-index inequality system for a dominant weight.

    Rows per 1 <= l < cutoff: a_l x_l - a_{l-1} x_{l+1} >= 0 and
    lam_2 + a'_{l+1} x_l - a'_l x_{l+1} >= 0, plus lam_1 >= x_1; positions
    beyond a finite l_max are pinned to zero by paired forms.  When l_max
    is infinite a window must be supplied and rows are emitted while they
    fit inside it.
    """
    if lam.rank != 2:
        raise ValueError("the rank-2 system needs a rank-2 weight")
    if not lam.dominant:
        raise ValueError("the closed-form system assumes a dominant weight")
    lm = l_max(c1, c2)
    if lm is None and window is None:
        raise ValueError("infinite-type system needs an explicit window")
    if window is not None and window < 1:
        raise ValueError("window must be >= 1")
    if window is not None and window > MAX_FORMS:  # a window builds two forms per position
        raise ValueError(f"window must be <= {MAX_FORMS}")
    win = lm if window is None else window
    cutoff = min(lm, win) if lm is not None else win
    a, a_prime = _a_terms(c1, c2, cutoff), _a_terms(c2, c1, cutoff + 1)
    forms = [LinearForm.make(lam.pairing(1), {1: -1})]
    for l in range(1, cutoff):
        forms.append(LinearForm.make(0, {l: a[l], l + 1: -a[l - 1]}))
        forms.append(LinearForm.make(lam.pairing(2), {l: a_prime[l + 1], l + 1: -a_prime[l]}))
    if lm is not None:
        for k in range(lm + 1, win + 1):
            forms.append(LinearForm.x(k))
            forms.append(LinearForm.x(k).scale(-1))
    return FormSet(
        forms=tuple(forms),
        window=win,
        lam=lam,
        seq=IndexSequence((1, 2), 2),
        saturated=True,
    )


def an_flat(j: int, i: int, n: int) -> int:
    """Flat position of the doubly-indexed coordinate (j; i)."""
    return (j - 1) * n + i


def an_system(n: int, lam: Weight) -> FormSet:
    """Interlacing triangle system for the straight-cycle sequence on A_n.

    Coordinates carry a row index j and a column index i; row chains
    x_{1;i} >= x_{2;i-1} >= .. >= x_{i;1} >= 0 interlace, entries with
    i + j > n + 1 vanish (paired forms), and the weight bounds successive
    differences along each chain.
    """
    if lam.rank != n:
        raise ValueError("weight rank must equal n")
    if not lam.dominant:
        raise ValueError("the closed-form system assumes a dominant weight")
    forms = []
    for i in range(1, n + 1):
        chain = [an_flat(j, i - j + 1, n) for j in range(1, i + 1)]
        for a, b in zip(chain, chain[1:]):
            forms.append(LinearForm.make(0, {a: 1, b: -1}))
        forms.append(LinearForm.x(chain[-1]))
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            if i + j > n + 1:
                pos = an_flat(j, i, n)
                forms.append(LinearForm.x(pos))
                forms.append(LinearForm.x(pos).scale(-1))
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            coeffs = {an_flat(j, i - j + 1, n): -1}
            if i - j >= 1:
                coeffs[an_flat(j, i - j, n)] = 1
            forms.append(LinearForm.make(lam.pairing(i), coeffs))
    return FormSet(
        forms=tuple(forms),
        window=n * n,
        lam=lam,
        seq=IndexSequence(tuple(range(1, n + 1)), n),
        saturated=True,
    )


@dataclass(frozen=True)
class Builtin:
    """A named Cartan datum with its canonical sequence and longest-word data."""

    name: str
    cartan: CartanData
    iota: IndexSequence
    longest_len: int | None
    longest_word: tuple[int, ...] | None


_RANK2 = {
    "a1xa1": (0, 0),
    "a2": (1, 1),
    "b2": (1, 2),
    "c2": (2, 1),
    "g2": (1, 3),
    "a1tilde": (2, 2),
}


# chain builtins stop here, so a name like a99999999 cannot ask for a huge matrix
MAX_CHAIN_RANK = 64


def get_builtin(name: str) -> Builtin:
    """Resolve a builtin name to its Cartan datum, sequence, and word data.

    Case is ignored and so are leading zeros in the N of `aN`.  Each datum
    is built once per process and shared: a Builtin and everything in it
    is frozen.
    """
    key = name.lower()
    if key in _RANK2:
        return _builtin(key)
    match = re.fullmatch(r"a(\d+)", key)
    if match:
        digits = match.group(1).lstrip("0") or "0"
        # length first: int() refuses strings past a few thousand digits
        if len(digits) > len(str(MAX_CHAIN_RANK)) or int(digits) > MAX_CHAIN_RANK:
            raise CartanError(f"chain builtins go up to a{MAX_CHAIN_RANK}, got {name!r}")
        n = int(digits)
        if n >= 1:
            return _builtin(f"a{n}")
    raise KeyError(name)


@cache
def _builtin(key: str) -> Builtin:
    """The builtin of a normalised name: one of _RANK2, or aN with 1 <= N <= MAX_CHAIN_RANK."""
    if key in _RANK2:
        c1, c2 = _RANK2[key]
        length = l_max(c1, c2)
        word = None
        if length is not None:
            word = tuple(1 if m % 2 == 0 else 2 for m in range(length))
        return Builtin(key, rank2_cartan(c1, c2), IndexSequence((1, 2), 2), length, word)
    n = int(key[1:])
    word = []
    for block in range(1, n + 1):
        word.extend(range(block, 0, -1))
    return Builtin(
        key,
        an_cartan(n),
        IndexSequence(tuple(range(1, n + 1)), n),
        n * (n + 1) // 2,
        tuple(word),
    )
