"""The subalgebra/congruence correspondence on an affine algebra.

A subalgebra X induces the congruence theta_X = Cg(X x X) collapsing it,
generated from the pairs of X with no term; a congruence above theta_B
recovers a subalgebra C(alpha, B).  Between the subalgebras containing B
and the congruences containing theta_B these two maps are mutually inverse
lattice isomorphisms, meet-irreducible subalgebras give subdirectly
irreducible quotients, and every meet-irreducible B is the preimage of a
one-element subalgebra under the canonical projection of A/theta_B.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    BudgetExceededError,
    Congruence,
    DEFAULT_BUDGET,
    FiniteAlgebra,
    Homomorphism,
    Operation,
    VerificationError,
    _same_tables,
    carrier_tables,
    con_lattice,
    congruence_generated_by,
    principal_congruence,
    quotient_algebra,
    sorted_member,
    subuniverse_carriers,
)


@dataclass(frozen=True)
class SubalgebraWitness:
    """A verified nonempty carrier closed under all ambient operations.

    `tables` keeps the operation tables on the carrier that the closure
    check computed, so `as_algebra` builds the subalgebra from them.
    """

    ambient: FiniteAlgebra
    carrier: tuple
    tables: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        carrier = tuple(sorted(set(int(x) for x in self.carrier)))
        object.__setattr__(self, "carrier", carrier)
        if not carrier:
            raise ValueError("subalgebra carrier must be nonempty")
        if any(not 0 <= x < self.ambient.size for x in carrier):
            raise ValueError("carrier element outside the ambient universe")
        tables = carrier_tables(self.ambient, np.array(carrier, dtype=np.int64))
        object.__setattr__(self, "tables", tables)

    def __len__(self):
        return len(self.carrier)

    def as_algebra(self):
        """The subalgebra on the carrier, its elements numbered in carrier order."""
        arr = np.array(self.carrier, dtype=np.int64)
        ops = [
            Operation(o.name, o.arity, len(arr), np.searchsorted(arr, values))
            for o, values in zip(self.ambient.ops, self.tables)
        ]
        return FiniteAlgebra(f"{self.ambient.name}|{len(arr)}", len(arr), ops)


@dataclass(frozen=True)
class KernelTriple:
    """A subdirectly irreducible quotient S, the projection f and the point c.

    The singleton {c} is a subalgebra of S and the preimage of c under f is
    exactly the carrier the triple was built from.
    """

    quotient: FiniteAlgebra
    projection: Homomorphism
    point: int


def theta_of_subalgebra(A, B: SubalgebraWitness) -> Congruence:
    """theta_B = Cg(B x B), the least congruence of A collapsing the carrier of B.

    In an affine algebra with term t this is {(x, y) : t(x, y, b) in B for
    every b in B}, and Cg(B x B) needs no term.  B must be a subalgebra of A.
    """
    if not _same_tables(B.ambient, A):
        raise ValueError("witness does not live in the given algebra")
    return congruence_generated_by(A, [(B.carrier[0], b) for b in B.carrier])


def c_of_congruence(A, B: SubalgebraWitness, alpha: Congruence) -> SubalgebraWitness:
    """C(alpha, B) = {x : (x,b) in alpha for all b in B}, for alpha above theta_B.

    theta_B is Cg(B x B), and the congruence alpha contains it exactly when
    B lies in one alpha-class, so that is the precondition tested; no
    congruence is generated.  Both forms of C(alpha, B), for all b and for
    some b, are read off alpha's labels and must agree.
    """
    if alpha.base_size != A.size:
        raise ValueError("congruence base does not match algebra")
    carrier = np.array(B.carrier, dtype=np.int64)
    apart = carrier[alpha.labels[carrier] != alpha.labels[carrier[0]]]
    if apart.size:
        raise ValueError(
            f"congruence does not contain the one generated by the carrier: "
            f"pair {(B.carrier[0], int(apart[0]))} is collapsed by theta_B but not by alpha"
        )
    related = alpha.labels[:, None] == alpha.labels[carrier]
    forall = np.flatnonzero(related.all(axis=1))
    if not np.array_equal(forall, np.flatnonzero(related.any(axis=1))):
        raise VerificationError("universal and existential forms of C(alpha,B) disagree")
    if not sorted_member(forall, carrier).all():
        raise VerificationError("C(alpha,B) does not contain B")
    return SubalgebraWitness(A, tuple(forall.tolist()))


@dataclass
class GaloisReport:
    """Outcome of checking the two mutually inverse lattice isomorphisms."""

    carrier: tuple
    subalgebras_above: int
    congruences_above: int
    counterexample: Optional[str] = None
    shared_theta: tuple = ()

    @property
    def passed(self):
        return self.counterexample is None

    def lines(self):
        out = [
            f"B = {list(self.carrier)}",
            f"subalgebras above B:  {self.subalgebras_above}",
            f"congruences above theta_B: {self.congruences_above}",
        ]
        if self.shared_theta:
            for group in self.shared_theta:
                out.append(f"subalgebras sharing one congruence: {[list(c) for c in group]}")
        if self.counterexample:
            out.append(f"counterexample: {self.counterexample}")
        out.append("galois: " + ("PASS" if self.passed else "FAIL"))
        return out


def verify_galois(A, carriers=None, budget=DEFAULT_BUDGET):
    """Check both composites and isotonicity above each carrier B, one report per B.

    `carriers` lists the carriers B to check, all of Sub(A) by default;
    every check passes when A is affine.  One call computes Sub(A), Con(A),
    theta_X and the member set of each X in Sub(A) and the carriers sharing
    one theta_X once, for every B; C(alpha, B) once per B and alpha.
    """
    witnesses = [SubalgebraWitness(A, c) for c in subuniverse_carriers(A, budget)]
    checked = witnesses if carriers is None else [SubalgebraWitness(A, c) for c in carriers]
    theta = {X.carrier: theta_of_subalgebra(A, X) for X in witnesses}
    members = {X.carrier: frozenset(X.carrier) for X in witnesses}
    congruences = con_lattice(A)
    # expose carriers with a common induced congruence (can occur across
    # different B, never inside the lattice above one B)
    fibers = {}
    for carrier, theta_x in theta.items():
        fibers.setdefault(theta_x, []).append(carrier)
    shared = tuple(tuple(v) for v in fibers.values() if len(v) > 1)
    return [_galois_above(A, B, theta, members, congruences, shared) for B in checked]


def _galois_above(A, B: SubalgebraWitness, theta, members, congruences, shared):
    """The report for B, given theta_X and the member set of every X in Sub(A), and Con(A)."""
    S_lat = [c for c in theta if members[B.carrier] <= members[c]]
    C_lat = [alpha for alpha in congruences if theta[B.carrier].refines(alpha)]
    c_by_alpha = {}

    def c_of(alpha):
        if alpha not in c_by_alpha:
            c_by_alpha[alpha] = c_of_congruence(A, B, alpha)
        return c_by_alpha[alpha]

    def counterexamples():  # in the order the checks run; the first one is reported
        for alpha in C_lat:
            if theta[c_of(alpha).carrier] != alpha:
                yield f"theta(C(alpha,B)) != alpha for alpha={alpha.classes()}"
        for carrier in S_lat:
            if c_of(theta[carrier]).carrier != carrier:
                yield f"C(theta_X,B) != X for X={list(carrier)}"
        for c1, c2 in itertools.product(S_lat, repeat=2):
            if members[c1] <= members[c2] and not theta[c1].refines(theta[c2]):
                yield f"theta not isotone at {list(c1)} <= {list(c2)}"
        for a1, a2 in itertools.product(C_lat, repeat=2):
            if a1.refines(a2) and not members[c_of(a1).carrier] <= members[c_of(a2).carrier]:
                yield "C(.,B) not isotone"

    counterexample = next(counterexamples(), None)
    return GaloisReport(
        carrier=B.carrier,
        subalgebras_above=len(S_lat),
        congruences_above=len(C_lat),
        counterexample=counterexample,
        shared_theta=shared,
    )


def meet_irreducibles(A, budget=DEFAULT_BUDGET, above=None):
    """Subuniverses B whose strictly larger subuniverses intersect above B.

    In a finite lattice this is the same as completely meet-irreducible.  The
    top subuniverse is never meet-irreducible.  With `above`, an iterable of
    codes R, only the B that contain R are listed, and only the interval
    [Sg(R), A] is enumerated: every subuniverse strictly above such a B also
    contains R, so B is meet-irreducible in the interval exactly when it is
    in Sub(A).
    """
    carriers = subuniverse_carriers(A, budget, above=above)
    members = [frozenset(c) for c in carriers]
    out = []
    # sorted by (size, carrier), as the result is: every strict superset of a
    # carrier comes after it, and the last carrier, A itself, is above all
    # others; the meet of the strict supersets stops once it reaches the carrier
    for i, c in enumerate(carriers[:-1]):
        below, meet = members[i], members[-1]
        for d in members[i + 1 :]:
            if below < d:
                meet &= d
                if meet == below:
                    break
        else:  # the strict supersets meet strictly above B
            out.append(SubalgebraWitness(A, c))
    return out


def kernel_quotient(A, B: SubalgebraWitness, budget=DEFAULT_BUDGET) -> KernelTriple:
    """Quotient A by theta_B = Cg(B x B) for a completely meet-irreducible B.

    Returns the subdirectly irreducible quotient S, the projection f and the
    point c = f(B) whose singleton is a subalgebra and whose preimage is B.
    theta_B comes from `theta_of_subalgebra`, so no term is needed.  Raises
    ValueError on a B that is not meet-irreducible, or that is not a whole
    class of Cg(B x B), as can happen in a non-affine algebra.  For a
    B below A the subuniverses above B and the congruences above theta_B
    form isomorphic lattices, so B has one upper cover exactly when S has a
    least nonidentity congruence, and the SI check decides it.  Every
    nonidentity congruence contains some Cg(a, b) with a < b, so that least
    congruence is the meet of those principal ones.  The |A|^2 pair codes
    of A must fit the budget before any congruence is generated.
    """
    if A.size**2 > budget:
        raise BudgetExceededError(A.size**2, budget, hint="pair codes of a congruence")
    if len(B.carrier) == A.size:
        raise ValueError(f"carrier {list(B.carrier)} is the whole algebra, not meet-irreducible")
    S, f = quotient_algebra(A, theta_of_subalgebra(A, B))
    c = int(f.np_mapping[B.carrier[0]])
    if (f.np_mapping[list(B.carrier)] != c).any():
        raise VerificationError("the projection does not collapse the carrier to one point")
    if not np.array_equal(np.flatnonzero(f.np_mapping == c), B.carrier):
        raise ValueError(
            f"carrier {list(B.carrier)} is not a class of the congruence it generates: "
            "the preimage of the point is larger"
        )
    for o in S.ops:
        if o.np_table.reshape((S.size,) * o.arity)[(c,) * o.arity] != c:
            raise VerificationError(f"{{c}} not closed under {o.name}")
    # S has two or more elements, as the preimage of c is not all of A
    monolith = Congruence.full(S.size)
    for a, b in itertools.combinations(range(S.size), 2):
        monolith = monolith.meet(principal_congruence(S, a, b))
    if monolith.is_identity():
        raise ValueError(
            f"carrier {list(B.carrier)} is not completely meet-irreducible: "
            "the quotient has no least nonidentity congruence"
        )
    return KernelTriple(S, f, c)
