"""Closed-form inequality systems and finite-type support predicates.

The rank-2 system is driven by an integer coefficient sequence built
from Chebyshev-style polynomials of the product of the two negated
pairings; it truncates at the first sign change (l_max), which is finite
exactly for the five finite rank-2 types.  The A_n system lives on a
doubly-indexed triangle of coordinates.  Both are cross-checked against
the breadth-first oracle elsewhere; this module only writes them down.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .cartan import CartanData, CartanError, IndexSequence, Weight, an_cartan, rank2_cartan
from .forms import FormSet, LinearForm
from .zvectors import SequenceCrystal


def chebyshev(k: int, x: int) -> int:
    """P_k(x) with P_0 = 1, P_1 = x, P_k = x*P_{k-1} - P_{k-2}."""
    if k < 0:
        raise ValueError("k must be >= 0")
    prev, cur = 1, x
    if k == 0:
        return 1
    for _ in range(k - 1):
        prev, cur = cur, x * cur - prev
    return cur


def a_sequence(c1: int, c2: int, l: int) -> int:
    """Coefficient a_l: 0, 1, then Chebyshev combinations split by parity."""
    if l < 0:
        raise ValueError("l must be >= 0")
    if l == 0:
        return 0
    if l == 1:
        return 1
    x = c1 * c2 - 2
    k, odd = divmod(l, 2)
    if odd:
        return chebyshev(k, x) + chebyshev(k - 1, x)
    return c1 * chebyshev(k - 1, x)


def a_prime(c1: int, c2: int, l: int) -> int:
    return a_sequence(c2, c1, l)


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
    win = lm if window is None else max(window, 1)
    cutoff = min(lm, win) if lm is not None else win
    forms = [LinearForm.make(lam.pairing(1), {1: -1})]
    for l in range(1, cutoff):
        forms.append(
            LinearForm.make(0, {l: a_sequence(c1, c2, l), l + 1: -a_sequence(c1, c2, l - 1)})
        )
        forms.append(
            LinearForm.make(lam.pairing(2), {l: a_prime(c1, c2, l + 1), l + 1: -a_prime(c1, c2, l)})
        )
    if lm is not None:
        for k in range(lm + 1, win + 1):
            forms.append(LinearForm.x(k))
            forms.append(LinearForm.x(k).scale(-1))
    return FormSet(
        forms=tuple(forms),
        window=win,
        lam=lam,
        seq=IndexSequence((1, 2), 2),
        cartan=rank2_cartan(c1, c2),
        saturated=True,
        notes=("closed-form rank-2 system",),
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
        cartan=an_cartan(n),
        saturated=True,
        notes=("closed-form triangle system",),
    )


@dataclass(frozen=True)
class TruncationReport:
    support_bound: int
    node_count: int
    violations: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def truncation_check(
    cartan: CartanData, word, depth: int, expected_length: int | None = None
) -> TruncationReport:
    """Free-mode BFS facts for a sequence opening with the given word.

    Checks every node to the given depth for (a) vanishing beyond the
    word length and (b) vanishing at any position whose index repeats the
    previous one.  The tail of the sequence repeats the word, which does
    not affect either predicate.  Reduced-ness of the word is taken on
    trust; pass `expected_length` (the longest-element length for the
    type) to at least pin the word length.
    """
    word = tuple(int(w) for w in word)
    if expected_length is not None and len(word) != expected_length:
        raise ValueError(
            f"word has length {len(word)}, expected {expected_length} for this type"
        )
    seq = IndexSequence(word, cartan.rank)
    crystal = SequenceCrystal(cartan, seq)
    graph = crystal.bfs(depth)
    bound = len(word)
    repeats = [
        l
        for l in range(2, bound + len(word) + 1)
        if seq.index_at(l) == seq.index_at(l - 1)
    ]
    violations = []
    for node in graph.nodes:
        if node.max_pos > bound:
            violations.append({"kind": "support", "node": node, "position": node.max_pos})
        for l in repeats:
            if node.get(l):
                violations.append({"kind": "repeat", "node": node, "position": l})
    return TruncationReport(bound, len(graph), tuple(violations))


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
    """Resolve a builtin name to its Cartan datum, sequence, and word data."""
    key = name.lower()
    if key in _RANK2:
        c1, c2 = _RANK2[key]
        length = l_max(c1, c2)
        word = None
        if length is not None:
            word = tuple(1 if m % 2 == 0 else 2 for m in range(length))
        return Builtin(key, rank2_cartan(c1, c2), IndexSequence((1, 2), 2), length, word)
    match = re.fullmatch(r"a(\d+)", key)
    if match:
        n = int(match.group(1))
        if n < 1:
            raise KeyError(name)
        if n > MAX_CHAIN_RANK:
            raise CartanError(f"chain builtins go up to a{MAX_CHAIN_RANK}, got {name!r}")
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
    raise KeyError(name)
