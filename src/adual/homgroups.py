"""Counting homomorphisms and the Abelian groups living on Hom(A^2, S).

For affine algebras the hom sets between powers carry group structure: the
maps f: A^2 -> S with f(x,x) = k(x) form an Abelian group under the affine
term applied pointwise, with neutral (x,y) |-> k(y).  Their cardinalities
obey prime-wise divisibility bounds, and small generating families of these
groups are what make morphism factorization through bounded powers work.

That group is an `HkGroup`, an `AbelianGroup` that also keeps the maps as
the rows of one int64 table, so `generating_family` takes it like any other
group; its sums and checks are gathers of t_S's table over those rows.
`generating_family` reads spans and expressions off the group's addition
and multiples tables, as the sums over a grid of coefficients.  The
group-mode probe of `hom` asks `AbelianGroup` whether a binary operation is a group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    DEFAULT_BUDGET,
    Homomorphism,
    Operation,
    VerificationError,
    _same_tables,
    apply_coordinatewise,
    decode_code,
    enumerate_homs,
    hom_table,
    power_algebra,
    row_blocks,
)
from .affine import AbelianGroup, find_affine_term, group_from_affine


@dataclass(frozen=True)
class PrimeSignature:
    """The prime factorization of a positive integer as ((p, exponent), ...)."""

    factorization: tuple

    def __post_init__(self):
        primes = [p for p, _ in self.factorization]
        if len(set(primes)) != len(primes):
            raise ValueError("repeated primes in factorization")
        if any(a < 1 for _, a in self.factorization):
            raise ValueError("exponents must be >= 1")

    @property
    def value(self):
        out = 1
        for p, a in self.factorization:
            out *= p**a
        return out

    def exponent_of(self, p):
        for q, a in self.factorization:
            if q == p:
                return a
        return 0

    def max_exponent(self):
        return max((a for _, a in self.factorization), default=0)


def prime_signature(n: int) -> PrimeSignature:
    """Trial-division factorization of n >= 1; 1 has the empty signature."""
    if n < 1:
        raise ValueError("prime signature needs n >= 1")
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            factors.append((p, a))
        p += 1
    if n > 1:
        factors.append((n, 1))
    return PrimeSignature(tuple(factors))


@dataclass
class DivisibilityReport:
    claim: str
    computed: int
    bound: int
    passed: bool

    def lines(self):
        return [
            self.claim,
            f"computed value: {self.computed}",
            f"must divide:    {self.bound}",
            "verdict: " + ("PASS" if self.passed else "FAIL"),
        ]


def _shared_prime_bound(size_a, size_b, exponent_rule):
    sig_a, sig_b = prime_signature(size_a), prime_signature(size_b)
    primes = sorted({p for p, _ in sig_a.factorization} | {p for p, _ in sig_b.factorization})
    bound = 1
    for p in primes:
        bound *= p ** exponent_rule(sig_a.exponent_of(p), sig_b.exponent_of(p))
    return bound


def hom_count_bound(size_a, size_b, mode):
    """The prime-wise divisor bound on |Hom(A,B)| for the given mode."""
    if mode == "group":
        return _shared_prime_bound(size_a, size_b, lambda a, b: a * b)
    if mode == "abelian":
        return _shared_prime_bound(size_a, size_b, lambda a, b: (a + 1) * b)
    raise ValueError(f"mode must be 'group' or 'abelian', got {mode!r}")


def _has_abelian_group_op(A):
    """True iff some binary operation of A is an Abelian group operation."""
    x = np.arange(A.size)
    for o in A.ops:
        if o.arity != 2:
            continue
        # a group has one left neutral element: the row that copies the universe
        left = np.flatnonzero((o.np_table.reshape(A.size, A.size) == x).all(axis=1))
        if left.size:
            try:
                AbelianGroup(A.size, int(left[0]), o.np_table)
                return True
            except ValueError:
                pass
    return False


def hom_divisibility_check(A, B, count, mode="abelian", budget=DEFAULT_BUDGET):
    """Check that `count`, the size of Hom(A,B), divides the prime-wise bound for the mode.

    The caller enumerates Hom(A, B) once and passes its size in, so the check
    searches no homs; `budget` serves the affine-term search of abelian mode.
    Raises ValueError where the mode does not apply or Hom(A, B) is empty.
    """
    if mode == "abelian":
        if find_affine_term(A, budget) is None or (B is not A and find_affine_term(B, budget) is None):
            raise ValueError("abelian mode needs affine algebras on both sides")
    elif mode == "group":
        if not (_has_abelian_group_op(A) and _has_abelian_group_op(B)):
            raise ValueError("group mode needs an explicit Abelian group operation")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if count == 0:
        raise ValueError("Hom(A,B) is empty")
    bound = hom_count_bound(A.size, B.size, mode)
    return DivisibilityReport(
        claim=f"|Hom({A.name},{B.name})| divides the {mode}-mode bound",
        computed=count,
        bound=bound,
        passed=bound % count == 0,
    )


# ---------------------------------------------------------------------------
# The group on {f: A^2 -> S with f(x,x) = k(x)}
# ---------------------------------------------------------------------------


class HkGroup(AbelianGroup):
    """Homomorphisms A^2 -> S agreeing with k on the diagonal, as a group.

    Group element i is the map table `elements[i]` over the codes of the
    power A^2: row i of a read-only 2-D int64 array, rows in canonical
    sorted order.  The sum of f and g is t_S(f, kbar, g) pointwise with
    neutral kbar(x, y) = k(y).  build_hk_group also verifies that
    restriction f |-> f(a, .) embeds the group into the hom group of the
    derived group structures, and that changing the base morphism gives an
    isomorphic group.
    """

    def __init__(self, A, S, t_S, k, square, elements, neutral_index, add_table):
        super().__init__(len(elements), neutral_index, add_table)
        self.A = A
        self.S = S
        self.t_S = t_S
        self.k = k
        self.square = square
        self.elements = elements

    def index_of(self, maps):
        """The element index of each map table, a row of `maps`; -1 for a map outside the group."""
        return _find_rows(self.elements, maps)


def _find_rows(rows, queries):
    """The index of each query, a row of `queries`, among the distinct `rows`; -1 where none equals it."""
    _, labels = np.unique(np.concatenate([rows, queries]), axis=0, return_inverse=True)
    labels = labels.reshape(-1)
    position = np.full(len(rows) + len(queries), -1)
    position[labels[: len(rows)]] = np.arange(len(rows))
    return position[labels[len(rows) :]]


def _on_diagonal(maps, size):
    """The value at each (x, x) of every map table on the square of {0..size-1}, a row of `maps`."""
    return apply_coordinatewise(maps.T, size, (np.arange(size),) * 2).T


def build_hk_group(A, S, t_A, t_S, k: Homomorphism, homs, budget=DEFAULT_BUDGET) -> HkGroup:
    """Collect {f: A^2 -> S : f(x,x) = k(x)} and its group structure.

    Raises ValueError when k is not a homomorphism A -> S.  The group is
    defined as soon as one such k exists; different choices give isomorphic
    groups, which is re-verified here through the explicit isomorphisms, one
    for each base hom in `homs`, Hom(A, S) as the caller searched it.  The
    maps are the rows of one table, and each check gathers the table of
    t_S over them, in `row_blocks`.
    """
    if not (_same_tables(k.domain, A) and _same_tables(k.codomain, S)):
        raise ValueError("base morphism must go from A to S")
    square = power_algebra(A, 2, budget)
    homs2 = hom_table(enumerate_homs(square, S, budget), square.size)
    elements = homs2[(_on_diagonal(homs2, A.size) == k.np_mapping).all(axis=1)]
    elements.setflags(write=False)
    kbar = k.np_mapping[decode_code(np.arange(square.size), [A.size] * 2)[1]]
    (neutral_index,) = _find_rows(elements, kbar[None, :])
    if neutral_index < 0:
        raise ValueError("the neutral candidate kbar is not a homomorphism: k is invalid")
    m = len(elements)
    add_table = np.empty(m * m, dtype=np.int64)
    for rows in row_blocks(m, m * square.size):
        sums = apply_coordinatewise(t_S.np_table, S.size, (elements[rows, None], kbar, elements[None, :]))
        add_table.reshape(m, m)[rows] = _find_rows(elements, sums.reshape(-1, square.size)).reshape(-1, m)
    if (add_table < 0).any():
        raise ValueError("hom set not closed under the pointwise term")
    add_table.setflags(write=False)
    try:
        group = HkGroup(A, S, t_S, k, square, elements, int(neutral_index), add_table)
    except ValueError as e:
        raise VerificationError(f"the hom set is not an Abelian group: {e}") from None
    _verify_restriction_embedding(group, t_A)
    _verify_base_change(group, homs2, hom_table(homs, A.size))
    return group


def _verify_restriction_embedding(G: HkGroup, t_A):
    """f |-> f(a, .) embeds G into Hom((A,+^a), (S,+^{k(a)})); kernel is {kbar}.

    A restricted map r is in that hom set iff r(x + y) = r(x) + r(y), checked in `row_blocks`.
    """
    a = 0
    A, S = G.A, G.S
    add_A = group_from_affine(t_A, a).np_add_table
    add_S = group_from_affine(G.t_S, G.k(a)).np_add_table
    restricted = apply_coordinatewise(G.elements.T, A.size, (a, np.arange(A.size))).T
    for rows in row_blocks(G.size, A.size**2):
        r = restricted[rows]
        sums = apply_coordinatewise(add_S, S.size, (r[:, :, None], r[:, None, :])).reshape(len(r), -1)
        if (r[:, add_A] != sums).any():
            raise VerificationError("restriction is not a group homomorphism")
    if len(np.unique(restricted, axis=0)) != G.size:
        raise VerificationError("restriction not injective")
    kernel = np.flatnonzero((restricted == G.k.np_mapping).all(axis=1))
    if (kernel != G.neutral).any():
        raise VerificationError("kernel of the restriction is larger than {kbar}")
    add, t_S = G.np_add_table.reshape(G.size, G.size), G.t_S.np_table
    for rows in row_blocks(G.size, G.size * A.size):
        lhs = restricted[add[rows]]
        rhs = apply_coordinatewise(t_S, S.size, (restricted[rows, None], G.k.np_mapping, restricted[None, :]))
        if not np.array_equal(lhs, rhs):
            raise VerificationError("restriction is not additive")


_BASE_CHANGE_FAILURES = (
    "base change leaves the target hom set",
    "not bijective",
    "base change composed with its inverse is not the identity",
)


def _verify_base_change(G: HkGroup, homs2, js):
    """For every base hom j, f |-> t_S(f, kbar, jbar) is a group isomorphism.

    `homs2` and `js` are the tables of Hom(A^2, S) and Hom(A, S); the target of j is the
    fiber of `homs2` over j on the diagonal, and a map over no j raises.  All j are checked
    in `row_blocks`; the first j that fails raises.
    """
    A, m, width = G.A, G.size, G.square.size
    t_S, s = G.t_S.np_table, G.S.size
    kbar = G.elements[G.neutral]
    jbars = js[:, None, decode_code(np.arange(width), [A.size] * 2)[1]]
    base_of = _find_rows(js, _on_diagonal(homs2, A.size))  # the j each map lies over, or -1
    if (base_of < 0).any():
        raise VerificationError("a map of Hom(A^2, S) has a diagonal outside Hom(A, S)")
    fiber_size = np.bincount(base_of, minlength=len(js))
    for rows in row_blocks(len(js), m * width):
        images = apply_coordinatewise(t_S, s, (G.elements, kbar, jbars[rows]))
        found = _find_rows(homs2, images.reshape(-1, width)).reshape(-1, m)
        distinct = 1 + (np.diff(np.sort(found, axis=1), axis=1) != 0).sum(axis=1)
        stays = ((found >= 0) & (base_of[found] == np.arange(len(js))[rows, None])).all(axis=1)
        onto = (distinct == m) & (fiber_size[rows] == m)
        back = (apply_coordinatewise(t_S, s, (images, jbars[rows], kbar)) == G.elements).all(axis=(1, 2))
        failed = ~np.array([stays, onto, back])  # [check, j]
        if failed.any():
            check = failed[:, failed.any(axis=0).argmax()].argmax()
            raise VerificationError(_BASE_CHANGE_FAILURES[check])


# ---------------------------------------------------------------------------
# Generating families
# ---------------------------------------------------------------------------


@dataclass
class GeneratingFamily:
    """Generators of an Abelian group with an expression for every element.

    `expressions[x]` is the integer vector (u_1..u_N), reduced modulo the
    generator orders, with x = sum(u_j * h_j).
    """

    group: AbelianGroup
    generators: tuple
    orders: tuple
    expressions: dict

    @property
    def size(self):
        return len(self.generators)

    def padded(self, n):
        """The same family padded with neutral elements up to n generators."""
        if n < self.size:
            raise ValueError(f"cannot pad a family of {self.size} down to {n}")
        extra = n - self.size
        gens = self.generators + (self.group.neutral,) * extra
        orders = self.orders + (1,) * extra
        exprs = {x: u + (0,) * extra for x, u in self.expressions.items()}
        return GeneratingFamily(self.group, gens, orders, exprs)


def generating_family(group: AbelianGroup) -> GeneratingFamily:
    """Greedy generators of an Abelian group: largest order outside the span first.

    The span of h_1..h_j is the sums sum(u_i * h_i) over 0 <= u_i < order(h_i)
    in lexicographic order of u; an element's expression is the first u
    reaching it.  The family size never exceeds the largest prime exponent
    of |group|; a violation of that bound means the input was not an Abelian
    group and is raised as an error.
    """
    orders = np.array(group.orders)
    add = group.np_add_table.reshape(group.size, group.size)
    gens, sums = [], np.array([group.neutral])
    outside = np.arange(group.size) != group.neutral
    while outside.any():
        # the largest order outside the span, then the smallest element of that order
        best = int(np.flatnonzero(outside & (orders == orders[outside].max()))[0])
        gens.append(best)
        sums = add[sums[:, None], group.multiples[: orders[best], best]].ravel()
        outside[sums] = False
    bound = prime_signature(group.size).max_exponent()
    if len(gens) > bound:
        raise ValueError(
            f"greedy family has {len(gens)} generators, exceeding the bound {bound}: "
            "the input is not an Abelian group"
        )
    gen_orders = tuple(int(orders[g]) for g in gens)
    elements, first = np.unique(sums, return_index=True)
    digits = np.array(decode_code(first, gen_orders), dtype=np.int64).T.reshape(len(first), len(gens))
    expressions = dict(zip(elements.tolist(), map(tuple, digits.tolist())))
    return GeneratingFamily(group, tuple(gens), gen_orders, expressions)


def decompose_in_group(family: GeneratingFamily, element) -> tuple:
    """Coefficients with sum(u_j * h_j) = element, from the expression table."""
    if element not in family.expressions:
        raise ValueError(f"element {element!r} is not in the group")
    return family.expressions[element]


# ---------------------------------------------------------------------------
# Divisor bounds on subdirectly irreducible quotients
# ---------------------------------------------------------------------------


def cardinal_si_bound(A) -> int:
    """prod p_i**(a_i**2) over the prime signature of |A|."""
    bound = 1
    for p, a in prime_signature(A.size).factorization:
        bound *= p ** (a * a)
    return bound


def kearnes_divisibility_check(
    A, S, t_A: Optional[Operation] = None, budget=DEFAULT_BUDGET
):
    """|S| must divide |Hom((A,+),(A,+))| for the derived group structure on A."""
    if t_A is None:
        t_A = find_affine_term(A, budget)
        if t_A is None:
            raise ValueError(f"{A.name} is not affine")
    ga = group_from_affine(t_A, 0).as_algebra(f"{A.name}+")
    count = len(enumerate_homs(ga, ga, budget))
    return DivisibilityReport(
        claim=f"|{S.name}| divides |Hom(({A.name},+),({A.name},+))|",
        computed=S.size,
        bound=count,
        passed=count % S.size == 0,
    )
