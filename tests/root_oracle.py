"""Root-system counts for finite types: the test oracle for the BFS's sizes.

Exact and standard-library only.  The positive roots come from the Cartan
matrix by root strings, the symmetrizer makes the matrix symmetric, and
from those follow the Weyl dimension of V(lambda) and Kostant's partition
function, the number of elements of B(infinity) of weight -beta.

A root or a weight is a tuple of coordinates: a root in simple roots, a
weight in pairings <h_i, lambda>, as `Weight` stores it.

`weyl_length` counts the positive roots a word's product makes negative.
`truncation_check` states the support facts of a sequence that opens
with a reduced longest word: its free-mode BFS never leaves the word's
positions, nor touches a position whose index repeats the previous one.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm, prod

from crystalpoly import IndexSequence, SequenceCrystal


def positive_roots(cartan) -> list[tuple[int, ...]]:
    """The positive roots, by height, grown from the simple roots by root strings.

    The alpha_i-string through beta runs from beta - p*alpha_i to
    beta + q*alpha_i with p - q = <h_i, beta>, so beta + alpha_i is a root
    exactly when q > 0.  Every root of height h + 1 is a root of height h
    plus a simple root, so growing by height finds them all.  Raises
    ValueError when the heights pass every finite type's (not finite type).
    """
    n, a = cartan.rank, cartan.matrix
    layer = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    roots = list(layer)
    known = set(layer)
    height = 1
    while layer:
        height += 1
        if height > 4 * n + 30:  # the longest finite root system, E8, stops at height 29
            raise ValueError("the Cartan matrix is not of finite type")
        grown = []
        for beta in layer:
            for i in range(n):
                p, down = 0, list(beta)
                while True:
                    down[i] -= 1
                    if tuple(down) not in known:
                        break
                    p += 1
                q = p - sum(a[i][j] * beta[j] for j in range(n))
                up = tuple(b + (j == i) for j, b in enumerate(beta))
                if q > 0 and up not in known:
                    known.add(up)
                    grown.append(up)
        roots += sorted(grown)
        layer = grown
    return roots


def weyl_length(cartan, word) -> int:
    """The length of s_{i_1} .. s_{i_k}: the number of positive roots it makes negative.

    Each positive root is carried through the reflections from the right,
    s_i(beta) = beta - <h_i, beta> alpha_i; the word is reduced exactly
    when this count is its length.
    """
    n, a = cartan.rank, cartan.matrix
    negated = 0
    for beta in positive_roots(cartan):
        image = list(beta)
        for i in reversed(word):
            image[i - 1] -= sum(a[i - 1][j] * image[j] for j in range(n))
        negated += min(image) < 0
    return negated


def symmetrizer(cartan) -> tuple[int, ...]:
    """Positive integers d_i, coprime on each component, with d_i a_ij = d_j a_ji."""
    n, a = cartan.rank, cartan.matrix
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j == i or a[i][j] == 0:
                    continue
                want = d[i] * a[i][j] / a[j][i]
                if d[j] is None:
                    d[j] = want
                    stack.append(j)
                elif d[j] != want:
                    raise ValueError("the Cartan matrix is not symmetrizable")
    scale = lcm(*(v.denominator for v in d))
    return tuple(int(v * scale) for v in d)


def weyl_dimension(cartan, lam) -> int:
    """dim V(lambda): the product over positive roots beta of (lambda + rho, beta) / (rho, beta).

    With (alpha_j, alpha_j) = 2 d_j, (lambda, alpha_j) = d_j <h_j, lambda>,
    and rho pairs to 1 with every h_j.
    """
    d = symmetrizer(cartan)
    roots = positive_roots(cartan)
    top = prod(sum(b * dj * (l + 1) for b, dj, l in zip(beta, d, lam)) for beta in roots)
    bottom = prod(sum(b * dj for b, dj in zip(beta, d)) for beta in roots)
    dim = Fraction(top, bottom)
    assert dim.denominator == 1, "the Weyl dimension formula gave a fraction"
    return int(dim)


def kostant(cartan, max_height: int) -> dict[tuple[int, ...], int]:
    """K(beta) for every beta >= 0 of height <= max_height.

    K(beta) counts the ways to write beta as a sum of positive roots,
    repetition allowed and order ignored: the coefficients of the product
    of 1 / (1 - e^alpha) over the positive roots, one root at a time.
    """
    n = cartan.rank
    betas = sorted(
        (beta for beta in product(range(max_height + 1), repeat=n) if sum(beta) <= max_height),
        key=lambda beta: (sum(beta), beta),
    )
    count = {beta: int(not any(beta)) for beta in betas}
    for alpha in positive_roots(cartan):
        for beta in betas:  # by height, so beta - alpha already counts alpha's copies
            rest = tuple(b - c for b, c in zip(beta, alpha))
            if min(rest) >= 0:
                count[beta] += count[rest]
    return count


@dataclass(frozen=True)
class TruncationReport:
    support_bound: int
    node_count: int
    violations: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def truncation_check(cartan, word, depth: int) -> TruncationReport:
    """Free-mode BFS facts for a sequence opening with the given word.

    Checks every node to the given depth for (a) vanishing beyond the
    word length and (b) vanishing at any position whose index repeats the
    previous one.  The tail of the sequence repeats the word, which does
    not affect either predicate.  Reduced-ness of the word, and its
    length, are taken on trust.
    """
    word = tuple(int(w) for w in word)
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
