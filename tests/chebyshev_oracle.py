"""The rank-2 coefficients a_l from Chebyshev polynomials split by parity:
the test oracle for closed_forms.a_sequence, which runs their recurrence."""


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
