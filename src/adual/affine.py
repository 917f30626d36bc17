"""Affine structure: Mal'cev term discovery and integer-coefficient term evaluation.

A finite algebra is affine when its term clone contains a ternary operation t
with t(x,y,y) = t(y,y,x) = x that commutes with every basic operation; all
Abelian group structures x +^c y = t(x,c,y) derived from such a t share the
same term map, and integer combinations sum(u_k * x_k) with sum(u_k) = 1 are
again terms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .core import (
    BudgetExceededError,
    Congruence,
    DEFAULT_BUDGET,
    FiniteAlgebra,
    Operation,
    VerificationError,
    apply_coordinatewise,
    closed_product_subset,
    decode_code,
    encode_tuple,
    grid_blocks,
)


class AffineStructureError(ValueError):
    """A claimed affine term failed the group axioms it must induce."""


@dataclass(frozen=True)
class TernaryTermOperation:
    """A ternary operation table, optionally with a derivation over basic ops.

    The table is flat of length base_size**3, indexed like an operation table
    (first argument most significant).  The provenance, when present, is a
    nested tuple tree: ("proj", i) for a projection or (op_name, children).
    """

    base_size: int
    table: tuple
    provenance: Optional[tuple] = field(default=None, compare=False)

    def __post_init__(self):
        n = self.base_size
        if len(self.table) != n**3:
            raise ValueError("ternary table must have base_size**3 entries")
        if any(not 0 <= v < n for v in self.table):
            raise ValueError("ternary table value outside universe")

    def __call__(self, x, y, z):
        n = self.base_size
        return self.table[(x * n + y) * n + z]

    def as_operation(self, name="t"):
        return Operation(name, 3, self.base_size, self.table)

    @cached_property
    def np_table(self):
        """The table as a read-only int64 array, built once per instance."""
        table = np.array(self.table, dtype=np.int64)
        table.setflags(write=False)
        return table


@dataclass(frozen=True)
class GroupStructure:
    """An Abelian group on {0..base_size-1} given by neutral, add and neg tables."""

    base_size: int
    neutral: int
    add: tuple
    neg: tuple
    exponent: int

    @property
    def size(self):
        return self.base_size

    def add_of(self, x, y):
        return self.add[x * self.base_size + y]

    def neg_of(self, x):
        return self.neg[x]

    def element_order(self, x):
        acc = x
        order = 1
        while acc != self.neutral:
            acc = self.add_of(acc, x)
            order += 1
        return order

    def multiple(self, x, k):
        """k*x in the group, for any integer k."""
        k %= self.exponent
        acc = self.neutral
        for _ in range(k):
            acc = self.add_of(acc, x)
        return acc

    def as_algebra(self, name=None):
        n = self.base_size
        return FiniteAlgebra(
            name or f"group{n}@{self.neutral}",
            n,
            [
                Operation("add", 2, n, self.add),
                Operation("neg", 1, n, self.neg),
                Operation("zero", 0, n, [self.neutral]),
            ],
        )


@dataclass(frozen=True)
class AffineTerm:
    """An integer coefficient vector with sum 1: the term sum(u_k * x_k)."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))
        if sum(self.coeffs) != 1:
            raise ValueError(f"affine coefficients must sum to 1, got {self.coeffs}")

    @property
    def arity(self):
        return len(self.coeffs)


def projection_term(arity, index):
    coeffs = [0] * arity
    coeffs[index] = 1
    return AffineTerm(tuple(coeffs))


def is_malcev(t: TernaryTermOperation):
    n = t.base_size
    return all(
        t(x, y, y) == x and t(y, y, x) == x for x in range(n) for y in range(n)
    )


def commutes_with_algebra(t: TernaryTermOperation, A: FiniteAlgebra):
    """True iff t is a homomorphism A^3 -> A, i.e. compatible with every basic op."""
    if t.base_size != A.size:
        raise ValueError("term and algebra sizes differ")
    n = A.size
    tnp = t.np_table
    triples = decode_code(np.arange(n**3, dtype=np.int64), [n] * 3)
    for o in A.ops:
        blocks = zip(grid_blocks(triples, o.arity), grid_blocks((tnp,), o.arity))
        for lhs_args, rhs_args in blocks:
            # o on A^3 and then t, against t on each argument triple and then o
            lhs = tnp[apply_coordinatewise([o.np_table] * 3, [n] * 3, lhs_args)]
            rhs = apply_coordinatewise([o.np_table], [n], rhs_args)
            if not np.array_equal(lhs, rhs):
                return False
    return True


def find_affine_term(A, budget=DEFAULT_BUDGET):
    """The affine term of A as a table, or None if the clone has none.

    The search has three exact stages.  First, the set of Mal'cev-constrained
    triples G = {(x,y,y)} u {(y,y,x)} must generate A^3: any Mal'cev term m
    reproduces an arbitrary triple as m((x,y,y),(y,y,y),(y,y,z)), so failure
    here already rules out a Mal'cev term.  Second, the graph of the forced
    values on G is closed inside A^4; the closure is functional exactly when
    a compatible Mal'cev operation exists, and then it is the unique one.
    Third, membership of that candidate in the ternary term clone is decided
    by breadth-first generation from the three projections, stopping as soon
    as the candidate appears.
    """
    n = A.size
    if n**4 > budget:
        raise BudgetExceededError(n**4, budget, hint="Mal'cev graph closure space")
    seed = set()
    for x in range(n):
        for y in range(n):
            seed.add(((x * n + y) * n + y) * n + x)
            seed.add(((y * n + y) * n + x) * n + x)
    graph = closed_product_subset([A] * 4, seed)
    prefixes = np.unique(graph // n)
    if prefixes.size < n**3 or graph.size != prefixes.size:
        return None
    table = np.zeros(n**3, dtype=np.int64)
    table[graph // n] = graph % n
    candidate = TernaryTermOperation(n, tuple(int(v) for v in table))
    if not (is_malcev(candidate) and commutes_with_algebra(candidate, A)):
        raise VerificationError(
            f"the Mal'cev graph closure of {A.name} is not a compatible Mal'cev operation"
        )
    provenance = _clone_search(A, candidate.table, budget)
    if provenance is None:
        return None
    term = TernaryTermOperation(n, candidate.table, provenance=provenance)
    if evaluate_provenance(provenance, A) != term.table:
        raise VerificationError(f"the derivation of the affine term of {A.name} misses its table")
    return term


def _clone_search(A, target, budget):
    """Breadth-first generation of the ternary term clone of A.

    Returns the derivation tree of `target` as soon as it is produced, or
    None once the clone is exhausted without meeting it.  With target=None
    the full clone is generated and the table->derivation dict returned.
    """
    n = A.size
    cells = n**3
    max_elements = max(3, budget // cells)
    triples = list(itertools.product(range(n), repeat=3))
    projections = [tuple(tr[i] for tr in triples) for i in range(3)]
    seen = {}
    order = []
    for i, p in enumerate(projections):
        if p not in seen:
            seen[p] = ("proj", i)
            order.append(p)
    if target is not None and target in seen:
        return seen[target]
    arrays = {p: np.array(p, dtype=np.int64) for p in order}
    frontier = list(order)
    while frontier:
        current = list(order)
        fresh = []

        def emit(tab, name, args):
            if tab not in seen:
                seen[tab] = (name, tuple(seen[x] for x in args))
                arrays[tab] = np.array(tab, dtype=np.int64)
                order.append(tab)
                fresh.append(tab)
                if len(seen) > max_elements:
                    raise BudgetExceededError(
                        len(seen) * cells, budget, hint="ternary term clone too large"
                    )
                return tab == target
            return False

        for o in A.ops:
            if o.arity == 0:
                if emit((o.table[0],) * cells, o.name, ()):
                    return seen[target]
                continue
            for a in frontier:
                for rest in itertools.product(current, repeat=o.arity - 1):
                    for pos in range(o.arity):
                        args = rest[:pos] + (a,) + rest[pos:]
                        tab = o.np_table[encode_tuple([arrays[x] for x in args], n)]
                        if emit(tuple(tab.tolist()), o.name, args):
                            return seen[target]
        frontier = fresh
    if target is None:
        return dict(seen)
    return None


def ternary_term_clone(A, budget=DEFAULT_BUDGET):
    """The full ternary term clone as a dict table -> derivation tree."""
    return _clone_search(A, None, budget)


def evaluate_provenance(expr, A):
    """Re-evaluate a derivation tree to its ternary table."""
    n = A.size
    if expr[0] == "proj":
        triples = itertools.product(range(n), repeat=3)
        return tuple(tr[expr[1]] for tr in triples)
    name, children = expr
    tables = [np.array(evaluate_provenance(c, A), dtype=np.int64) for c in children]
    values = A.op(name).np_table[encode_tuple(tables, n)]
    return tuple(np.broadcast_to(values, n**3).tolist())


def group_from_affine(t: TernaryTermOperation, c: int) -> GroupStructure:
    """The Abelian group with neutral c derived from t: x + y = t(x,c,y).

    All group axioms are verified exhaustively; a failure means t was not an
    affine term and raises AffineStructureError.
    """
    n = t.base_size
    if not 0 <= c < n:
        raise ValueError(f"neutral element {c} outside universe")
    add = tuple(t(x, c, y) for x in range(n) for y in range(n))
    neg = tuple(t(c, x, c) for x in range(n))

    def plus(x, y):
        return add[x * n + y]

    for x in range(n):
        if plus(x, c) != x or plus(c, x) != x:
            raise AffineStructureError(f"{c} is not neutral at {x}")
        if plus(x, neg[x]) != c:
            raise AffineStructureError(f"no inverse for {x}")
        for y in range(n):
            if plus(x, y) != plus(y, x):
                raise AffineStructureError(f"not commutative at ({x},{y})")
            for z in range(n):
                if plus(plus(x, y), z) != plus(x, plus(y, z)):
                    raise AffineStructureError(f"not associative at ({x},{y},{z})")
    exponent = 1
    for x in range(n):
        acc, k = x, 1
        while acc != c:
            acc = plus(acc, x)
            k += 1
        exponent = exponent * k // _gcd(exponent, k)
    return GroupStructure(n, c, add, neg, exponent)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


@lru_cache(maxsize=None)
def _cached_group(t: TernaryTermOperation, c: int) -> GroupStructure:
    return group_from_affine(t, c)


def eval_affine_combination(term: AffineTerm, t: TernaryTermOperation, c: int, args):
    """Evaluate sum(u_k * x_k) in the group (t, c); the result is c-independent.

    Coefficients are reduced modulo the group exponent first, and negative
    coefficients go through the neg table (reduction makes them nonnegative).
    """
    args = tuple(args)
    if len(args) != term.arity:
        raise ValueError(f"expected {term.arity} arguments, got {len(args)}")
    G = _cached_group(t, c)
    acc = G.neutral
    for u, x in zip(term.coeffs, args):
        acc = G.add_of(acc, G.multiple(x, u))
    return acc


def affine_combination_array(term: AffineTerm, t: TernaryTermOperation, c: int, args):
    """`eval_affine_combination` elementwise on integer arrays that broadcast together."""
    if len(args) != term.arity:
        raise ValueError(f"expected {term.arity} arguments, got {len(args)}")
    G = _cached_group(t, c)
    add = np.array(G.add, dtype=np.int64)
    acc = np.full(np.broadcast_shapes(*(np.shape(x) for x in args)), G.neutral, dtype=np.int64)
    for u, x in zip(term.coeffs, args):
        for _ in range(u % G.exponent):
            acc = add[acc * G.base_size + x]
    return acc


def induced_term(t: TernaryTermOperation, theta: Congruence) -> TernaryTermOperation:
    """The image of t on the quotient by theta, verified total and well-defined."""
    if theta.base_size != t.base_size:
        raise ValueError("congruence base does not match term base")
    m = theta.num_classes
    C = np.array(theta.class_of, dtype=np.int64)
    reps = np.array([block[0] for block in theta.classes()], dtype=np.int64)
    tnp = t.np_table
    table = tuple(
        v
        for args in grid_blocks((reps,), 3)
        for v in np.ravel(C[apply_coordinatewise([tnp], [t.base_size], args)]).tolist()
    )
    quotient = np.array(table, dtype=np.int64)
    # the class of t on every triple, against the quotient table on its classes
    start = 0
    for args in grid_blocks((C,), 3):
        descended = np.ravel(apply_coordinatewise([quotient], [m], args))
        if not np.array_equal(C[tnp[start : start + descended.size]], descended):
            raise ValueError("term does not descend to the quotient")
        start += descended.size
    return TernaryTermOperation(m, table)


def lift_term_to_power(t: TernaryTermOperation, n: int, budget=DEFAULT_BUDGET):
    """t applied coordinatewise on the n-th power, as a ternary table over codes."""
    s = t.base_size
    N = s**n
    if N**3 > budget:
        raise BudgetExceededError(N**3, budget, hint="lifted ternary table")
    sizes, tables = [s] * n, [t.np_table] * n
    digits = decode_code(np.arange(N, dtype=np.int64), sizes)
    blocks = grid_blocks(digits, 3)
    table = tuple(v for args in blocks for v in np.ravel(apply_coordinatewise(tables, sizes, args)).tolist())
    return TernaryTermOperation(N, table)
