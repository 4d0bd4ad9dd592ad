"""Scanning occurrence lookups: the test oracle for IndexSequence's offset tables.

These are the loops IndexSequence ran before it kept per-slot tables: each
answer walks the positions one by one through `index_at`, at most one
period away.
"""


def next_position_of(seq, i, after):
    """First position strictly beyond `after` carrying index i."""
    for l in range(after + 1, after + len(seq.period) + 1):
        if seq.index_at(l) == i:
            return l
    raise AssertionError("periodicity guarantees an occurrence")


def next_occurrence(seq, k):
    """Smallest position l > k with i_l = i_k."""
    return next_position_of(seq, seq.index_at(k), k)


def prev_occurrence(seq, k):
    """Largest position l < k with i_l = i_k, or 0 when there is none."""
    target = seq.index_at(k)
    for l in range(k - 1, max(0, k - len(seq.period) - 1), -1):
        if seq.index_at(l) == target:
            return l
    return 0
