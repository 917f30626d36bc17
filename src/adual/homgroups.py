"""Counting homomorphisms and the Abelian groups living on Hom(A^2, S).

For affine algebras the hom sets between powers carry group structure: the
maps f: A^2 -> S with f(x,x) = k(x) form an Abelian group under the affine
term applied pointwise, with neutral (x,y) |-> k(y).  Their cardinalities
obey prime-wise divisibility bounds, and small generating families of these
groups are what make morphism factorization through bounded powers work.

That group is an `HkGroup`, an `AbelianGroup` that also keeps the maps, so
`generating_family` takes it like any other group, and the group-mode probe
of `hom` asks `AbelianGroup` whether a binary operation is a group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    DEFAULT_BUDGET,
    Homomorphism,
    Operation,
    VerificationError,
    _same_tables,
    enumerate_homs,
    power_algebra,
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


def hom_divisibility_check(A, B, mode="abelian", budget=DEFAULT_BUDGET):
    """Count Hom(A,B) and check it divides the prime-wise bound for the mode."""
    if mode == "abelian":
        if find_affine_term(A, budget) is None or find_affine_term(B, budget) is None:
            raise ValueError("abelian mode needs affine algebras on both sides")
    elif mode == "group":
        if not (_has_abelian_group_op(A) and _has_abelian_group_op(B)):
            raise ValueError("group mode needs an explicit Abelian group operation")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    count = len(enumerate_homs(A, B, budget))
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

    Group element i is the map table elements[i] over the power A^2, in
    canonical sorted order; the sum of f and g is t_S(f, kbar, g) pointwise
    with neutral kbar(x, y) = k(y).  build_hk_group also verifies that
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
        self.index = {m: i for i, m in enumerate(elements)}


def diagonal_restriction(base_size):
    """Codes of the diagonal (x, x) inside the power A^2."""
    return [x * base_size + x for x in range(base_size)]


def build_hk_group(A, S, t_A, t_S, k: Homomorphism, budget=DEFAULT_BUDGET) -> HkGroup:
    """Collect {f: A^2 -> S : f(x,x) = k(x)} and its group structure.

    Raises ValueError when k is not a homomorphism A -> S.  The group is
    defined as soon as one such k exists; different choices give isomorphic
    groups, which is re-verified here through the explicit isomorphisms.
    """
    if not (_same_tables(k.domain, A) and _same_tables(k.codomain, S)):
        raise ValueError("base morphism must go from A to S")
    square = power_algebra(A, 2, budget)
    homs2 = enumerate_homs(square, S, budget)
    diag = diagonal_restriction(A.size)
    elements = tuple(
        h.mapping for h in homs2 if all(h.mapping[diag[x]] == k(x) for x in range(A.size))
    )
    kbar = tuple(k(c % A.size) for c in range(square.size))
    if kbar not in elements:
        raise ValueError("the neutral candidate kbar is not a homomorphism: k is invalid")
    neutral_index = elements.index(kbar)
    index = {m: i for i, m in enumerate(elements)}
    m = len(elements)
    add_table = []
    for f in elements:
        for g in elements:
            s = tuple(t_S(f[u], kbar[u], g[u]) for u in range(square.size))
            if s not in index:
                raise ValueError("hom set not closed under the pointwise term")
            add_table.append(index[s])
    try:
        group = HkGroup(A, S, t_S, k, square, elements, neutral_index, add_table)
    except ValueError as e:
        raise VerificationError(f"the hom set is not an Abelian group: {e}") from None
    _verify_restriction_embedding(group, t_A, budget)
    _verify_base_change(group, homs2, budget)
    return group


def _verify_restriction_embedding(G: HkGroup, t_A, budget):
    """f |-> f(a, .) embeds G into Hom((A,+^a), (S,+^{k(a)})); kernel is {kbar}."""
    a = 0
    A, S = G.A, G.S
    ga = group_from_affine(t_A, a).as_algebra(f"{A.name}+^{a}")
    gs = group_from_affine(G.t_S, G.k(a)).as_algebra(f"{S.name}+^{G.k(a)}")
    K = {h.mapping for h in enumerate_homs(ga, gs, budget)}
    restricted = []
    for f in G.elements:
        fa = tuple(f[a * A.size + x] for x in range(A.size))
        if fa not in K:
            raise VerificationError("restriction is not a group homomorphism")
        restricted.append(fa)
    if len(set(restricted)) != len(restricted):
        raise VerificationError("restriction not injective")
    for i, fa in enumerate(restricted):
        if fa == G.k.mapping and i != G.neutral:
            raise VerificationError("kernel of the restriction is larger than {kbar}")
    for i in range(G.size):
        for j in range(G.size):
            lhs = restricted[G.add(i, j)]
            rhs = tuple(
                G.t_S(restricted[i][x], G.k(x), restricted[j][x]) for x in range(A.size)
            )
            if lhs != rhs:
                raise VerificationError("restriction is not additive")


def _verify_base_change(G: HkGroup, homs2, budget):
    """For every other base hom j, f |-> t_S(f, kbar, jbar) is a group isomorphism.

    `homs2` is Hom(A^2, S); the target of j is its fiber over j on the diagonal.
    """
    A, S = G.A, G.S
    kbar = G.elements[G.neutral]
    diag = diagonal_restriction(A.size)
    fibers = {}
    for h in homs2:
        fibers.setdefault(tuple(h.mapping[d] for d in diag), set()).add(h.mapping)
    for j in enumerate_homs(A, S, budget):
        jbar = tuple(j(c % A.size) for c in range(G.square.size))
        other = fibers.get(j.mapping, set())
        phi = {}
        for f in G.elements:
            img = tuple(G.t_S(f[u], kbar[u], jbar[u]) for u in range(G.square.size))
            if img not in other:
                raise VerificationError("base change leaves the target hom set")
            phi[f] = img
        if not (len(set(phi.values())) == len(G.elements) == len(other)):
            raise VerificationError("not bijective")
        for f in G.elements:
            back = tuple(G.t_S(phi[f][u], jbar[u], kbar[u]) for u in range(G.square.size))
            if back != f:
                raise VerificationError("base change composed with its inverse is not the identity")


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


def _span(group, gens):
    members = {group.neutral}
    frontier = [group.neutral]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = group.add(x, g)
                if y not in members:
                    members.add(y)
                    nxt.append(y)
        frontier = nxt
    return members


def generating_family(group: AbelianGroup) -> GeneratingFamily:
    """Greedy generators of an Abelian group: largest order outside the span first.

    The family size never exceeds the largest prime exponent of |group|; a
    violation of that bound means the input was not an Abelian group and is
    raised as an error.
    """
    orders = [group.element_order(x) for x in range(group.size)]
    gens = []
    span = _span(group, gens)
    while len(span) < group.size:
        best = max(
            (x for x in range(group.size) if x not in span),
            key=lambda x: (orders[x], -x),
        )
        gens.append(best)
        span = _span(group, gens)
    bound = prime_signature(group.size).max_exponent()
    if len(gens) > bound:
        raise ValueError(
            f"greedy family has {len(gens)} generators, exceeding the bound {bound}: "
            "the input is not an Abelian group"
        )
    gen_orders = tuple(orders[g] for g in gens)
    expressions = {}
    for coeffs in itertools.product(*(range(o) for o in gen_orders)):
        x = group.neutral
        for u, g in zip(coeffs, gens):
            for _ in range(u):
                x = group.add(x, g)
        expressions.setdefault(x, tuple(coeffs))
    if len(expressions) != group.size:
        raise VerificationError("generators do not span the group")
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
