"""Alter-egos built from bounded-arity compatible relations, and the double dual.

The candidate dualizing structure on A collects every N-ary compatible
relation for N = max(4, 1 + a^3) with a the largest prime exponent of |A|.
For a subalgebra B of a small power, the dual carries Hom(B, A) with the
alter-ego relations lifted pointwise; the double dual consists of the maps
Hom(B, A) -> A preserving every lifted relation.  Evaluation at elements of
B always lands there injectively; the desk-scale duality check is that
nothing else does, i.e. the double dual has exactly |B| members.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .core import (
    CHUNK_CELLS,
    BudgetExceededError,
    DEFAULT_BUDGET,
    FiniteAlgebra,
    VerificationError,
    encode_tuple,
    enumerate_homs,
    enumerate_subuniverses,
    is_compatible_relation,
    power_algebra,
    sorted_member,
    subuniverse_carriers,
)
from .homgroups import prime_signature
from .subcong import SubalgebraWitness


def arity_bound(A) -> int:
    """max(4, 1 + max prime exponent cubed) from the size of A.

    A one-element algebra has no prime exponents; it gets 4 by convention.
    """
    exponents = [a for _, a in prime_signature(A.size).factorization]
    if not exponents:
        return 4
    return max(4, 1 + max(a**3 for a in exponents))


@dataclass
class AlterEgo:
    """The base algebra plus a family of compatible relations.

    The topology on a finite set is discrete and carried implicitly.
    `complete` records whether the relations are all compatible relations of
    the stated arity or a caller-supplied subset ("partial" mode).
    """

    base: FiniteAlgebra
    relations: tuple
    arity: int
    complete: bool = True

    def __post_init__(self):
        for r in self.relations:
            if r.arity != self.arity:
                raise ValueError(f"alter-ego relation has arity {r.arity}, expected {self.arity}")
            if not is_compatible_relation(self.base, r):
                raise ValueError("alter-ego relation is not compatible with the base algebra")

    @cached_property
    def tagged_codes(self):
        """Sorted codes of every relation tuple, plus size**arity times the relation's index."""
        size, r = self.base.size, self.arity
        parts = [
            encode_tuple(np.array(rel.tuples, dtype=np.int64).T, size) + i * size**r
            for i, rel in enumerate(self.relations)
        ]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def build_alter_ego(A, N, budget=DEFAULT_BUDGET, relations=None) -> AlterEgo:
    """All N-ary compatible relations of A, or a supplied subset (partial mode)."""
    if relations is not None:
        return AlterEgo(A, tuple(relations), N, complete=False)
    try:
        P = power_algebra(A, N, budget)
    except BudgetExceededError as e:
        raise BudgetExceededError(
            e.count, budget, hint="supply a relation subset via relations= (partial mode)"
        ) from None
    return AlterEgo(A, tuple(enumerate_subuniverses(P, budget)), N, complete=True)


@dataclass
class DualStructure:
    """Hom(B, A) with each alter-ego relation lifted pointwise.

    lifted[i] is an integer array of shape (count, arity) holding, in
    lexicographic order, the index tuples into `homs` that satisfy relation
    i at every point of B.
    """

    witness: SubalgebraWitness
    algebra: FiniteAlgebra
    homs: tuple
    ego: AlterEgo
    lifted: tuple


def dual_of(B: SubalgebraWitness, ego: AlterEgo, budget=DEFAULT_BUDGET) -> DualStructure:
    """The dual of B: homs into the base plus the pointwise-lifted relations.

    The lifted relations are built by a prefix join.  Index tuples grow one
    position at a time, and a prefix (i_1..i_j) survives only if at every
    point b of B the tuple (h_i1(b)..h_ij(b)) is the prefix of a tuple of
    the relation.  All relations extend together, each prefix code tagged
    with its relation's position, and rows stay in lexicographic order.
    """
    B_alg, _, carrier = B.as_algebra()
    homs = tuple(enumerate_homs(B_alg, ego.base, budget))
    h = len(homs)
    size, r = ego.base.size, ego.arity
    count = len(ego.relations)
    values = np.array([hom.mapping for hom in homs], dtype=np.int64).reshape(h, len(carrier))
    full = ego.tagged_codes
    # One row per surviving prefix: its relation and its indices.
    rel = np.arange(count, dtype=np.int64)
    idx = np.zeros((count, 0), dtype=np.int64)
    step = max(1, CHUNK_CELLS // max(1, h * len(carrier)))
    for j in range(1, r + 1):
        reach = np.bincount(rel, minlength=count).max(initial=0) * h
        if reach > budget:
            raise BudgetExceededError(reach, budget, hint="lifted relation tuples")
        prefixes = np.unique(full // size ** (r - j))  # tagged as rel * size**j + prefix
        rels, idxs = [rel[:0]], [np.zeros((0, j), dtype=np.int64)]
        for s in range(0, len(rel), step):
            block_rel, block_idx = rel[s : s + step], idx[s : s + step]
            # tagged prefix code of each row at each point of B, then one more index
            prefix = encode_tuple((values[block_idx[:, c]] for c in range(j - 1)), size)
            tagged = prefix + (block_rel * size ** (j - 1))[:, None]
            ext = np.repeat(tagged, h, axis=0) * size + np.tile(values, (len(block_rel), 1))
            row, new = np.divmod(np.flatnonzero(sorted_member(prefixes, ext).all(axis=1)), h)
            rels.append(block_rel[row])
            idxs.append(np.column_stack((block_idx[row], new)))
        rel, idx = np.concatenate(rels), np.concatenate(idxs)
    bounds = np.searchsorted(rel, np.arange(count + 1))
    lifted = tuple(idx[bounds[i] : bounds[i + 1]] for i in range(count))
    return DualStructure(B, B_alg, homs, ego, lifted)


def double_dual(D: DualStructure, budget=DEFAULT_BUDGET):
    """All maps Hom(B,A) -> A preserving every lifted relation, sorted.

    Continuity is vacuous on a finite discrete space.  The values phi(0),
    phi(1), ... are assigned in turn; a lifted tuple is checked as soon as
    its largest index is assigned, so only partial maps that preserve every
    fully assigned tuple are extended.  A relation holding every tuple
    constrains nothing and is skipped.
    """
    h = len(D.homs)
    size, r = D.ego.base.size, D.ego.arity
    full = D.ego.tagged_codes
    binding = [i for i, rel in enumerate(D.ego.relations) if len(rel) < size**r]
    tuples = np.concatenate([D.lifted[i] for i in binding] + [np.zeros((0, r), dtype=np.int64)])
    tags = np.repeat(
        np.array(binding, dtype=np.int64) * size**r, [len(D.lifted[i]) for i in binding]
    )
    last = tuples.max(axis=1, initial=0)  # the index assigned last
    order = np.argsort(last, kind="stable")
    bounds = np.searchsorted(last, np.arange(h + 1), sorter=order)
    group = max(1, CHUNK_CELLS // r)  # tuples per gather
    maps = np.zeros((1, 0), dtype=np.int64)
    for j in range(h):
        reach = len(maps) * size
        if reach > budget:
            raise BudgetExceededError(reach, budget, hint="double dual partial maps")
        rows = order[bounds[j] : bounds[j + 1]]
        T, offsets = tuples[rows], tags[rows]
        step = max(1, CHUNK_CELLS // (size * max(j + 1, r * min(len(T), group))))
        parts = [np.zeros((0, j + 1), dtype=np.int64)]
        for s in range(0, len(maps), step):
            block = maps[s : s + step]
            ext = np.empty((len(block) * size, j + 1), dtype=np.int64)
            ext[:, :-1] = np.repeat(block, size, axis=0)
            ext[:, -1] = np.tile(np.arange(size), len(block))
            ok = np.ones(len(ext), dtype=bool)
            for t in range(0, len(T), group):
                cols = T[t : t + group]
                codes = encode_tuple((ext[:, cols[:, c]] for c in range(r)), size)
                ok &= sorted_member(full, codes + offsets[t : t + group]).all(axis=1)
            parts.append(ext[ok])
        maps = np.concatenate(parts)
    return [tuple(row) for row in maps.tolist()]


@dataclass
class EvaluationReport:
    """Sizes and verdict for one subalgebra B of a power."""

    power: int
    carrier: tuple
    b_size: int
    hom_count: int
    double_dual_size: int
    bijective: bool
    missing: tuple = ()

    def lines(self):
        out = [
            f"B <= A^{self.power}, |B| = {self.b_size}, carrier {list(self.carrier)}",
            f"|Hom(B,A)| = {self.hom_count}",
            f"|B*+| = {self.double_dual_size}",
            "evaluation map: " + ("bijective" if self.bijective else "NOT surjective"),
        ]
        for phi in self.missing:
            out.append(f"  extra double-dual map not hit: {phi}")
        return out


def evaluate_subalgebra(B: SubalgebraWitness, ego: AlterEgo, power, budget=DEFAULT_BUDGET):
    """Check the evaluation map on one B: embed, then compare cardinalities."""
    D = dual_of(B, ego, budget)
    images = [tuple(hom(x) for hom in D.homs) for x in range(D.algebra.size)]
    image_set = set(images)
    if len(image_set) != len(images):
        raise VerificationError("evaluation map is not injective")
    dd = double_dual(D, budget)
    escaped = image_set.difference(dd)
    if escaped:
        raise VerificationError(f"evaluation image {min(escaped)} escaped the double dual")
    missing = tuple(phi for phi in dd if phi not in image_set)
    return EvaluationReport(
        power=power,
        carrier=B.carrier,
        b_size=len(B.carrier),
        hom_count=len(D.homs),
        double_dual_size=len(dd),
        bijective=len(dd) == D.algebra.size,
        missing=missing[:4],
    )


def verify_duality(A, k_max=2, budget=DEFAULT_BUDGET, ego: Optional[AlterEgo] = None):
    """Evaluation-map reports for every subalgebra of A^k, k <= k_max.

    The overall verdict is the conjunction of the per-B verdicts; the
    evaluation map is injective always, so bijectivity is a cardinality
    comparison.
    """
    if ego is None:
        ego = build_alter_ego(A, arity_bound(A), budget)
    reports = []
    for k in range(1, k_max + 1):
        P = power_algebra(A, k, budget)
        for carrier in subuniverse_carriers(P, budget):
            B = SubalgebraWitness(P, carrier)
            reports.append(evaluate_subalgebra(B, ego, k, budget))
    return reports
