"""Alter-egos built from bounded-arity compatible relations, and the double dual.

The candidate dualizing structure on A collects every N-ary compatible
relation for N = max(4, 1 + a^3) with a the largest prime exponent of |A|.
For a subalgebra B of a small power, the dual carries Hom(B, A); the double
dual consists of the maps phi: Hom(B, A) -> A preserving every alter-ego
relation lifted pointwise.  Evaluation at elements of B always lands there
injectively; the desk-scale duality check is that nothing else does, i.e.
the double dual has exactly |B| members.

One constraint engine, `double_dual`, decides the double dual.  A constraint
is a scope, a tuple of hom indices, with the codes phi may take on it.  For a
caller-supplied subset of relations (partial mode) the scopes are the lifted
tuples of each relation, built by `dual_of`, and the codes are the
relation's.  The complete alter ego lifts nothing: phi preserves every
compatible N-ary relation exactly when, for every set S of N homs, phi
restricted to S lies in pr_S e(B), the projection of the evaluation image
(the interpolation condition of Clark and Davey, "Natural Dualities for the
Working Algebraist", 1998).  pr_S e(B) is a compatible relation whose lift
holds S, and every relation whose lift holds S contains it.  So complete
mode reads its constraints off the table of hom values and lists no
relation: the alter ego carries only their number, |Sub(A^N)|, which
`relation_count` reads off the subgroup formula when A is affine over an
Abelian group in the way it states, and counts by enumeration otherwise.

`verify_duality` decides each subalgebra once up to isomorphism.  The
evaluation map is natural, so isomorphic B have the same |Hom(B, A)|,
double dual and verdict.  A B <= A^k on which deleting a coordinate is
injective is isomorphic to a subuniverse of A^(k-1) checked one level
before; it takes that report when it passed, and is evaluated directly
when it failed, so a FAIL lists B's own extra maps.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property
from itertools import chain, combinations, islice
from math import comb, gcd
from typing import Optional

import numpy as np

from .affine import AbelianGroup, find_affine_term, operation_parts
from .core import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    FiniteAlgebra,
    VerificationError,
    decode_code,
    encode_tuple,
    enumerate_homs,
    hom_table,
    is_compatible_relation,
    power_algebra,
    row_blocks,
    sorted_member,
    subuniverse_carriers,
)
from .homgroups import prime_signature
from .subcong import SubalgebraWitness


def arity_bound(A) -> int:
    """max(4, 1 + max prime exponent cubed) from the size of A.

    A one-element algebra has no prime exponents; it gets 4 by convention.
    """
    return max(4, 1 + max(prime_signature(A.size).values(), default=0) ** 3)


@dataclass
class AlterEgo:
    """The base algebra plus a family of compatible relations.

    The topology on a finite set is discrete and carried implicitly.
    `count` is the number of relations of the alter ego: `len(relations)`
    unless given.  An ego lists all its relations or none of them.  One that
    lists them is lifted (partial mode, a caller-supplied subset); one that
    only counts them is the complete alter ego of `build_alter_ego`, every
    compatible relation of the arity, decided by interpolation.  Listing
    some but not all of the count is refused.
    """

    base: FiniteAlgebra
    relations: tuple
    arity: int
    count: Optional[int] = None
    budget: InitVar[int] = DEFAULT_BUDGET

    def __post_init__(self, budget):
        if self.count is None:
            self.count = len(self.relations)
        if self.relations and len(self.relations) != self.count:
            raise ValueError(f"the alter ego lists {len(self.relations)} of its {self.count} relations")
        for r in self.relations:
            if r.arity != self.arity:
                raise ValueError(f"alter-ego relation has arity {r.arity}, expected {self.arity}")
            if not is_compatible_relation(self.base, r, budget):
                raise ValueError("alter-ego relation is not compatible with the base algebra")

    @property
    def complete(self):
        """True for the counted ego, which lists fewer relations than its count."""
        return len(self.relations) < self.count

    @cached_property
    def tagged_codes(self):
        """Sorted codes of every relation tuple, plus size**arity times the relation's index."""
        size, r = self.base.size, self.arity
        parts = [
            rel.codes() + i * size**r
            for i, rel in enumerate(self.relations)
        ]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def build_alter_ego(A, N, budget=DEFAULT_BUDGET, relations=None) -> AlterEgo:
    """The complete alter ego of arity N, counted, or a supplied subset (partial mode)."""
    if relations is not None:
        return AlterEgo(A, tuple(relations), N, budget=budget)
    return AlterEgo(A, (), N, count=relation_count(A, N, subgroup_formula(A, budget), budget))


def affine_gcd(A, budget=DEFAULT_BUDGET):
    """(G, g) when every basic operation of A is an integer combination in G, else None.

    G is the group x + y = t(x, 0, y) of the affine term t, from
    `operation_parts`, which gives each basic operation f as
    sum(alpha_i(x_i)) + c_f.  With e the value of A's constants, or 0 if A
    has none, f must be sum(m_i * x_i) in the group x + y = t(x, e, y) of
    neutral e, that is sum(m_i * x_i) + (1 - s_f) * e in G with s_f the sum
    of the m_i (0 for a constant): each alpha_i is the row m_i of
    `G.multiples`, and c_f = (1 - s_f) * e.  Then g = gcd(exp G, s_f - 1
    over every f).  None for no affine term, constants of two values, an
    alpha_i that is no multiple map, a c_f that does not fit, or a term
    search the budget refuses.
    """
    try:
        t = find_affine_term(A, budget)
    except BudgetExceededError:
        return None
    constants = set(A.constants())
    # run again on purpose: it checks the found t itself, so a wrong term search cannot pass here
    parts = None if t is None or len(constants) > 1 else operation_parts(t, A)
    if parts is None:
        return None
    e = constants.pop() if constants else 0
    G, offsets, alphas = parts
    hits = (alphas[:, None, :] == G.multiples).all(axis=2)  # [alpha_i, m]
    if not hits.any(axis=1).all():
        return None
    owner = np.repeat(np.arange(len(A.ops)), [f.arity for f in A.ops])
    sums = np.bincount(owner, hits.argmax(axis=1), len(A.ops)).astype(np.int64)
    if (G.multiples[(1 - sums) % G.exponent, e] != offsets).any():
        return None
    return G, gcd(G.exponent, *(sums - 1).tolist())


def subgroup_formula(A, budget=DEFAULT_BUDGET):
    """(G, cosets) when `relation_count` counts Sub(A^N) by formula, else None.

    With (G, g) from `affine_gcd`, the formula counts the subgroups of G^N
    when g = 1 and their cosets when g = exp G; `cosets` says which.  It
    does not apply for 1 < g < exp G.
    """
    found = affine_gcd(A, budget)
    if found is None or found[1] not in (1, found[0].exponent):
        return None
    G, g = found
    return G, g != 1


def relation_count(A, N, formula, budget=DEFAULT_BUDGET) -> int:
    """The number of N-ary compatible relations of A, that is |Sub(A^N)|.

    `formula` is what `subgroup_formula(A)` returns; where it is not None,
    no power of A is built.  The affine term t is a term, so a nonempty
    subuniverse S of A^N is closed under t(x, y, z) = x - y + z, computed
    coordinatewise in G^N: for a in S, S - a is a subgroup H.  So S is a
    coset a + H.  An operation
    f = sum(m_i * x_i) maps (a + h_1, .., a + h_k) to s_f * a + sum(m_i * h_i),
    and the sum ranges over H.  Hence a + H is closed under f iff
    (s_f - 1) * a lies in H, and it is a subuniverse iff g * a lies in H,
    since the k with k * a in H form a subgroup of Z holding exp G.  With
    g = 1 that is a in H: one subuniverse per subgroup.  With g = exp G it
    always holds: one per coset, |G^N : H| per subgroup.  Both sums are
    computed prime by prime (`_subgroup_sum`).  Every other algebra gets
    the nonempty subuniverses of A^N enumerated and counted.
    """
    if formula is not None:
        return _subgroup_sum(*formula, N)
    try:
        P = power_algebra(A, N, budget)
    except BudgetExceededError as e:
        raise BudgetExceededError(
            e.count, budget, hint="supply a relation subset via relations= (partial mode)"
        ) from None
    return len(subuniverse_carriers(P, budget))


def _subgroup_sum(G: AbelianGroup, cosets, N) -> int:
    """The sum over the subgroups H of G^N of 1, or of |G^N : H| with `cosets`.

    G^N and each H are the direct sums of their p-parts, so the sum is a
    product over the primes p of |G|.  Describe a p-group by the conjugate
    lam' of its type lam: lam'_i = log_p |G[p^i] : G[p^(i-1)]|, and G^N has
    N times the lam' of G.  The group of type lam has
    alpha(mu) = prod_i p^(mu'_(i+1) (lam'_i - mu'_i)) [lam'_i - mu'_(i+1), mu'_i - mu'_(i+1)]_p
    subgroups of type mu, each of index p^(|lam| - |mu|), for every mu inside
    lam (L. M. Butler, "Subgroup Lattices and Symmetric Functions", Mem. AMS
    539, 1994).  Each factor ties only the columns mu'_i and mu'_(i+1), so
    the sum over mu runs column by column from the last.
    """
    total = 1
    for p in prime_signature(G.size):
        logs = [0]  # log_p |G[p^i]| for i = 0, 1, .. until it stops growing
        while True:
            size = int((G.multiples[p ** len(logs) % G.exponent] == G.neutral).sum())
            log = prime_signature(size).get(p, 0)
            if log == logs[-1]:
                break
            logs.append(log)
        conjugate = [N * (b - a) for a, b in zip(logs, logs[1:])]
        tail = {0: 1}  # mu'_(i+1) -> the sum over the columns after i
        for lam in reversed(conjugate):
            tail = {
                mu: sum(
                    s
                    * p ** (m * (lam - mu) + (lam - mu if cosets else 0))
                    * _gaussian_binomial(lam - m, mu - m, p)
                    for m, s in tail.items()
                    if m <= mu
                )
                for mu in range(lam + 1)
            }
        total *= sum(tail.values())
    return total


def _gaussian_binomial(n, k, q):
    """The number of k-dimensional subspaces of GF(q)^n, for 0 <= k <= n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@dataclass
class DualStructure:
    """Hom(B, A), with each listed alter-ego relation lifted pointwise.

    lifted[i] is an integer array of shape (count, arity) holding, in
    lexicographic order, the index tuples into `homs` that satisfy relation
    i at every point of B.  The complete alter ego lists no relation, so it
    lifts nothing; `double_dual` reads its constraints off `values`.
    """

    algebra: FiniteAlgebra
    homs: tuple
    ego: AlterEgo
    lifted: tuple = ()

    @cached_property
    def values(self):
        """values[i, b] = homs[i](b), an array of shape (|Hom(B, A)|, |B|)."""
        return hom_table(self.homs, self.algebra.size)


def dual_of(B: SubalgebraWitness, ego: AlterEgo, budget=DEFAULT_BUDGET) -> DualStructure:
    """The dual of B: homs into the base plus the pointwise-lifted relations.

    The lifted relations are built by a prefix join.  Index tuples grow one
    position at a time, and a prefix (i_1..i_j) survives only if at every
    point b of B the tuple (h_i1(b)..h_ij(b)) is the prefix of a tuple of
    the relation.  All relations extend together, each prefix code tagged
    with its relation's position, and rows stay in lexicographic order.
    The complete alter ego lists no relation and lifts nothing.
    """
    B_alg = B.as_algebra()
    D = DualStructure(B_alg, tuple(enumerate_homs(B_alg, ego.base, budget)), ego)
    values = D.values
    h, width = values.shape
    size, r = ego.base.size, ego.arity
    count = len(ego.relations)
    full = ego.tagged_codes
    # One row per surviving prefix: its relation and its indices.
    rel = np.arange(count, dtype=np.int64)
    idx = np.zeros((count, 0), dtype=np.int64)
    for j in range(1, r + 1):
        reach = np.bincount(rel, minlength=count).max(initial=0) * h
        if reach > budget:
            raise BudgetExceededError(reach, budget, hint="lifted relation tuples")
        prefixes = np.unique(full // size ** (r - j))  # tagged as rel * size**j + prefix
        rels, idxs = [rel[:0]], [np.zeros((0, j), dtype=np.int64)]
        for rows in row_blocks(len(rel), h * width):
            block_rel, block_idx = rel[rows], idx[rows]
            # tagged prefix code of each row at each point of B, then one more index
            prefix = encode_tuple((values[block_idx[:, c]] for c in range(j - 1)), size)
            tagged = prefix + (block_rel * size ** (j - 1))[:, None]
            ext = np.repeat(tagged, h, axis=0) * size + np.tile(values, (len(block_rel), 1))
            row, new = np.divmod(np.flatnonzero(sorted_member(prefixes, ext).all(axis=1)), h)
            rels.append(block_rel[row])
            idxs.append(np.column_stack((block_idx[row], new)))
        rel, idx = np.concatenate(rels), np.concatenate(idxs)
    bounds = np.searchsorted(rel, np.arange(count + 1))
    D.lifted = tuple(idx[bounds[i] : bounds[i + 1]] for i in range(count))
    return D


def _lifted_constraints(D: DualStructure):
    """Partial mode: at step j, the lifted tuples whose largest index is j.

    Each tuple is tagged with its relation's position, so the tagged codes
    of the alter ego serve every relation at once.  A relation holding every
    tuple constrains nothing and is skipped.
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

    def at(j):
        rows = order[bounds[j] : bounds[j + 1]]
        return [(tuples[rows[b]], tags[rows[b]], full) for b in row_blocks(len(rows), r)]

    return at


def _interpolation_constraints(D: DualStructure, budget):
    """Complete mode: at step j, the M-sets with largest index j and pr_S e(B).

    M = min(N, |Hom(B, A)|): with fewer homs than N, the one set of all homs
    already pins phi to e(B).  The C(j, M-1) sets of step j are built only
    after the budget admits their C(j, M-1)·|B| projection codes, in
    `row_blocks` of sets.  Within a block the codes of the k-th set
    are tagged with k·|A|^M, so one sorted array serves the block.  A set
    whose projection is all of A^M constrains nothing and is dropped.
    """
    values = D.values
    h, width = values.shape
    size = D.ego.base.size
    M = min(D.ego.arity, h)
    span = size**M
    if span > budget:
        raise BudgetExceededError(span, budget, hint=f"codes of A^{M}")

    def at(j):
        count = comb(j, M - 1)
        if count * width > budget:
            raise BudgetExceededError(count * width, budget, hint="projection codes")
        heads = combinations(range(j), M - 1)
        blocks = []
        for rows in row_blocks(count, max(width, M)):
            c = rows.stop - rows.start
            flat = np.fromiter(chain.from_iterable(islice(heads, c)), np.int64, c * (M - 1))
            scopes = np.column_stack((flat.reshape(c, M - 1), np.full(c, j, dtype=np.int64)))
            codes = np.sort(encode_tuple((values[col] for col in scopes.T), size), axis=1)
            new = np.ones(codes.shape, dtype=bool)
            np.not_equal(codes[:, 1:], codes[:, :-1], out=new[:, 1:])
            binding = new.sum(axis=1) < span
            if binding.any():
                scopes, codes, new = scopes[binding], codes[binding], new[binding]
                offsets = np.arange(len(scopes), dtype=np.int64) * span
                blocks.append((scopes, offsets, (codes + offsets[:, None])[new]))
        return blocks

    return at


def double_dual(D: DualStructure, budget=DEFAULT_BUDGET):
    """All maps Hom(B,A) -> A meeting every constraint of D, sorted.

    Continuity is vacuous on a finite discrete space.  The values phi(0),
    phi(1), ... are assigned in turn; at index j every constraint whose
    largest index is j is checked, so only partial maps that meet every
    fully assigned constraint are extended.  The constraints are the lifted
    tuples of D in partial mode and the N-sets of homs with the projections
    of the evaluation image in complete mode.  Each step is refused before
    it builds anything: its partial maps times |A|, and its projection
    codes, must fit the budget.
    """
    h, size = len(D.homs), D.ego.base.size
    if D.ego.complete:
        constraints = _interpolation_constraints(D, budget)
    else:
        constraints = _lifted_constraints(D)
    maps = np.zeros((1, 0), dtype=np.int64)
    for j in range(h):
        reach = len(maps) * size
        if reach > budget:
            raise BudgetExceededError(reach, budget, hint="double dual partial maps")
        blocks = constraints(j)
        widest = max((scopes.size for scopes, _, _ in blocks), default=0)
        parts = [np.zeros((0, j + 1), dtype=np.int64)]
        for rows in row_blocks(len(maps), size * max(j + 1, widest)):
            block = maps[rows]
            ext = np.empty((len(block) * size, j + 1), dtype=np.int64)
            ext[:, :-1] = np.repeat(block, size, axis=0)
            ext[:, -1] = np.tile(np.arange(size), len(block))
            ok = np.ones(len(ext), dtype=bool)
            for scopes, offsets, allowed in blocks:
                codes = encode_tuple((ext[:, col] for col in scopes.T), size)
                ok &= sorted_member(allowed, codes + offsets).all(axis=1)
            parts.append(ext[ok])
        maps = np.concatenate(parts)
    return [tuple(row) for row in maps.tolist()]


@dataclass
class EvaluationReport:
    """Sizes and verdict for one subalgebra B of a power."""

    power: int
    carrier: tuple
    hom_count: int
    double_dual_size: int
    missing: tuple = ()

    @property
    def b_size(self):
        return len(self.carrier)

    @property
    def bijective(self):
        """The evaluation map is injective, so it is onto exactly when |B*+| = |B|."""
        return self.double_dual_size == self.b_size

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
    images = [tuple(column) for column in D.values.T.tolist()]
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
        hom_count=len(D.homs),
        double_dual_size=len(dd),
        missing=missing[:4],
    )


def _injective_deletion(carrier, size, k):
    """The carrier's image in A^(k-1) under the first injective coordinate deletion.

    `carrier` holds codes of A^k, |A| = size.  Deleting coordinate i maps
    A^k onto A^(k-1) as a homomorphism; where it is injective on the
    carrier it is an isomorphism of B onto its image, returned as a sorted
    tuple of codes.  None when no deletion is injective, or when k = 1.
    """
    if k < 2:
        return None
    digits = decode_code(np.array(carrier, dtype=np.int64), [size] * k)
    for i in range(k):
        image = np.unique(encode_tuple(digits[:i] + digits[i + 1 :], size))
        if len(image) == len(carrier):
            return tuple(image.tolist())
    return None


def verify_duality(A, k_max=2, budget=DEFAULT_BUDGET, ego: Optional[AlterEgo] = None):
    """Evaluation-map reports for every subalgebra of A^k, k <= k_max.

    The overall verdict is the conjunction of the per-B verdicts; the
    evaluation map is injective always, so bijectivity is a cardinality
    comparison.

    Each B is decided once up to isomorphism.  The evaluation map is
    natural: an isomorphism u: B -> B' gives the bijection h -> h u from
    Hom(B', A) onto Hom(B, A), which carries every lifted relation, and so
    the double dual, of B' onto that of B.  When deleting a coordinate is
    injective on B <= A^k, it is such an isomorphism onto a subuniverse B'
    of A^(k-1), which the run has already decided.  A B whose image passed
    takes its report from the image's: the same |Hom(B, A)|, |B*+| and
    verdict.  The image must be one of the level's carriers, or
    VerificationError is raised.  Every other B is evaluated directly,
    those whose image failed included, so a failing B lists its extra maps
    in its own hom order.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if ego is None:
        ego = build_alter_ego(A, arity_bound(A), budget)
    reports, below = [], {}
    for k in range(1, k_max + 1):
        P = power_algebra(A, k, budget)
        level = {}
        for carrier in subuniverse_carriers(P, budget):
            image = _injective_deletion(carrier, A.size, k)
            if image is not None and image not in below:
                raise VerificationError(
                    f"the image {list(image)} of carrier {list(carrier)} is no subuniverse of A^{k - 1}"
                )
            if image is not None and below[image].bijective:
                seen = below[image]
                report = EvaluationReport(k, carrier, seen.hom_count, seen.double_dual_size)
            else:
                report = evaluate_subalgebra(SubalgebraWitness(P, carrier), ego, k, budget)
            level[carrier] = report
            reports.append(report)
        below = level
    return reports
