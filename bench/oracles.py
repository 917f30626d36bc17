"""Independent oracles for the benchmark's output checks.

Pure Python on tuples; nothing here imports adual, so a defect in the
program cannot hide behind the same defect in its oracle.
"""

from __future__ import annotations

import functools
import itertools
from math import gcd, prod


def gaussian_binomial(n, k, q):
    """The number of k-dimensional subspaces of GF(q)^n."""
    if not 0 <= k <= n:
        return 0
    num = prod(q ** (n - i) - 1 for i in range(k))
    den = prod(q ** (k - i) - 1 for i in range(k))
    return num // den


def subspace_count(n, q):
    """All subspaces of GF(q)^n, the zero space and the whole space included."""
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def hom_count(source, target):
    """|Hom(A, B)| for A = sum of Z_m (m in source), B = sum of Z_n (n in target)."""
    return prod(gcd(m, n) for m in source for n in target)


def span(moduli, gens):
    """The subgroup of Z_m1 x .. x Z_mk generated by `gens`, as sorted tuples."""
    zero = tuple(0 for _ in moduli)
    found = {zero}
    frontier = [zero]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % m for a, b, m in zip(x, g, moduli))
                if y not in found:
                    found.add(y)
                    fresh.append(y)
        frontier = fresh
    return sorted(found)


@functools.cache
def subgroup_count(moduli):
    """Brute-force count of the subgroups of Z_m1 x .. x Z_mk (`moduli` a tuple)."""
    elements = list(itertools.product(*(range(m) for m in moduli)))
    seen = {frozenset(span(moduli, []))}
    frontier = list(seen)
    while frontier:
        fresh = []
        for sub in frontier:
            for x in elements:
                if x not in sub:
                    bigger = frozenset(span(moduli, list(sub) + [x]))
                    if bigger not in seen:
                        seen.add(bigger)
                        fresh.append(bigger)
        frontier = fresh
    return len(seen)


def arity_bound(size):
    """max(4, 1 + a^3) for a the largest prime exponent of `size`."""
    exponents = []
    n, p = size, 2
    while n > 1:
        a = 0
        while n % p == 0:
            n //= p
            a += 1
        if a:
            exponents.append(a)
        p += 1
    return max([4] + [1 + a**3 for a in exponents])


def preserves(f, relation):
    """Whether the unary map `f` (a table) sends every tuple of `relation` into it."""
    return all(tuple(f[x] for x in t) in relation for t in relation)


def unary_refuter_exists(size, premises, target):
    """Whether some unary map preserves every premise but not the target."""
    return any(
        all(preserves(f, R) for R in premises) and not preserves(f, target)
        for f in itertools.product(range(size), repeat=size)
    )
