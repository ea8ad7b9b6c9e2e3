"""Permutation enumeration for S_n: the test oracle for the class algebra.

The package computes class-sum structure constants from the character table;
these helpers compute them the slow, independent way, by walking the
permutations of each class.
"""

import itertools

from fockcalc.class_algebra import check_partition, partitions_of


def cycle_type(perm):
    n = len(perm)
    seen = [False] * n
    parts = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        parts.append(length)
    parts.sort(reverse=True)
    return tuple(parts)


def representative(lam, n):
    """The permutation with cycles (0..l1-1)(l1..l1+l2-1)... of type lam."""
    perm = list(range(n))
    pos = 0
    for part in lam:
        for k in range(part):
            perm[pos + k] = pos + (k + 1) % part
        pos += part
    return tuple(perm)


def permutations_of_type(lam, n):
    """All permutations of S_n with cycle type lam (each exactly once).

    Cycles are anchored at their smallest unplaced element, which makes the
    enumeration duplicate-free across equal part sizes.
    """
    lam = check_partition(lam, n)

    def rec(remaining_parts, unused, perm):
        if not remaining_parts:
            yield tuple(perm)
            return
        anchor = unused[0]
        rest = unused[1:]
        for size in sorted(set(remaining_parts), reverse=True):
            nxt = list(remaining_parts)
            nxt.remove(size)
            for tail in itertools.permutations(rest, size - 1):
                cycle = (anchor,) + tail
                for k in range(size):
                    perm[cycle[k]] = cycle[(k + 1) % size]
                leftover = [x for x in rest if x not in tail]
                yield from rec(nxt, leftover, perm)

    yield from rec(list(lam), list(range(n)), list(range(n)))


def enumerated_product_row(lam, n):
    """row[nu][mu] = #{(g', h) in C_lam x C_mu : g' h = w} for a fixed w of
    type nu, by representative-and-count: walk g over C_lam, so that
    g' = g^-1 runs over C_lam too, and bucket the cycle type of h = g w."""
    reps = {nu: representative(nu, n) for nu in partitions_of(n)}
    row = {nu: {} for nu in reps}
    for g in permutations_of_type(lam, n):
        for nu, w in reps.items():
            mu = cycle_type(tuple(g[w[i]] for i in range(n)))
            row[nu][mu] = row[nu].get(mu, 0) + 1
    return row
