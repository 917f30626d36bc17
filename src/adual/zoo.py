"""Ready-made small algebras used by tests, docs and the command line."""

from __future__ import annotations

import itertools

from .core import FiniteAlgebra, Operation, product_operations


def cyclic_group(n, name=None):
    """The cyclic group Z_n with signature add/neg/zero."""
    add = [(i + j) % n for i in range(n) for j in range(n)]
    neg = [(-i) % n for i in range(n)]
    return FiniteAlgebra(
        name or f"z{n}",
        n,
        [
            Operation("add", 2, n, add),
            Operation("neg", 1, n, neg),
            Operation("zero", 0, n, [0]),
        ],
    )


def direct_product(A, B, name=None):
    """Direct product of two same-signature algebras, codes a*|B| + b."""
    if A.signature() != B.signature():
        raise ValueError("direct product needs identical signatures")
    return FiniteAlgebra(name or f"{A.name}x{B.name}", A.size * B.size, product_operations([A, B]))


def klein_group(name="v4"):
    z2 = cyclic_group(2)
    return direct_product(z2, z2, name=name)


def two_element_semilattice(name="meet2"):
    """The meet semilattice on {0, 1}; the standard non-affine example."""
    return FiniteAlgebra(name, 2, [Operation("meet", 2, 2, [0, 0, 0, 1])])


def symmetric_group_3(name="s3"):
    """S_3 as a multiplication table; a group that is not Abelian."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    mul = []
    for a in perms:
        for b in perms:
            mul.append(index[tuple(a[b[i]] for i in range(3))])
    inv = [index[tuple(sorted(range(3), key=lambda i: p[i]))] for p in perms]
    return FiniteAlgebra(
        name,
        6,
        [
            Operation("mul", 2, 6, mul),
            Operation("inv", 1, 6, inv),
            Operation("e", 0, 6, [0]),
        ],
    )
