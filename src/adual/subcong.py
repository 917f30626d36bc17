"""The subalgebra/congruence correspondence on an affine algebra.

A subalgebra B induces the congruence theta_B = Cg(B x B) collapsing it; a
congruence above theta_B recovers a subalgebra C(alpha, B).  Between the
subalgebras containing B and the congruences containing theta_B these two
maps are mutually inverse lattice isomorphisms, meet-irreducible
subalgebras give subdirectly irreducible quotients, and every
meet-irreducible B is the preimage of a one-element subalgebra under the
canonical projection of A/Cg(B x B), which needs no term.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
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
    row_blocks,
    sorted_member,
    subuniverse_carriers,
    verify_congruence,
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


def theta_of_subalgebra(A, t: Operation, B: SubalgebraWitness) -> Congruence:
    """The congruence collapsing B: pairs (x,y) with t(x,y,b) in B for all b in B.

    The universally and existentially quantified forms agree and the result
    is re-verified to be a congruence; both checks fail only when t is not
    affine for A or B is not closed.  Both forms come from one gather of the
    table of t at (x, y, b), in blocks of x.
    """
    if not _same_tables(B.ambient, A):
        raise ValueError("witness does not live in the given algebra")
    if t.base_size != A.size:
        raise ValueError("term base does not match algebra")
    n = A.size
    carrier = np.array(B.carrier, dtype=np.int64)
    member = np.zeros(n, dtype=bool)
    member[carrier] = True
    table = t.np_table.reshape(n, n, n)
    forall = np.empty((n, n), dtype=bool)
    exists = np.empty((n, n), dtype=bool)
    for rows in row_blocks(n, n * carrier.size):
        hits = member[table[rows, :, carrier]]
        forall[rows] = hits.all(axis=2)
        exists[rows] = hits.any(axis=2)
    if not np.array_equal(forall, exists):
        raise ValueError(
            "universal and existential forms disagree: t is not affine for this algebra"
        )
    # an equivalence relation is the kernel of x |-> its first related element
    first = forall.argmax(axis=1)
    if not np.array_equal(forall, first[:, None] == first[None, :]):
        raise ValueError("collapsing relation is not transitive: t is not affine")
    theta = Congruence(n, first)
    verify_congruence(A, theta)
    return theta


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
    passed: bool
    counterexample: Optional[str] = None
    shared_theta: tuple = ()

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


def verify_galois(A, t: Operation, carriers=None, budget=DEFAULT_BUDGET):
    """Check both composites and isotonicity above each carrier B, one report per B.

    `carriers` lists the carriers B to check, all of Sub(A) by default.  One
    call computes Sub(A), Con(A), theta_X for every X in Sub(A) and the
    carriers sharing one theta_X once, for every B; C(alpha, B) is computed
    once per B and alpha.
    """
    witnesses = [SubalgebraWitness(A, c) for c in subuniverse_carriers(A, budget)]
    checked = witnesses if carriers is None else [SubalgebraWitness(A, c) for c in carriers]
    theta = {X.carrier: theta_of_subalgebra(A, t, X) for X in witnesses}
    congruences = con_lattice(A)
    # expose carriers with a common induced congruence (can occur across
    # different B, never inside the lattice above one B)
    fibers = {}
    for carrier, theta_x in theta.items():
        fibers.setdefault(theta_x, []).append(carrier)
    shared = tuple(tuple(v) for v in fibers.values() if len(v) > 1)
    return [_galois_above(A, B, theta, congruences, shared) for B in checked]


def _galois_above(A, B: SubalgebraWitness, theta, congruences, shared):
    """The report for B, given theta_X for every X in Sub(A) and Con(A)."""
    bset = set(B.carrier)
    S_lat = [c for c in theta if bset <= set(c)]
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
            if set(c1) <= set(c2) and not theta[c1].refines(theta[c2]):
                yield f"theta not isotone at {list(c1)} <= {list(c2)}"
        for a1, a2 in itertools.product(C_lat, repeat=2):
            if a1.refines(a2) and not set(c_of(a1).carrier) <= set(c_of(a2).carrier):
                yield "C(.,B) not isotone"

    counterexample = next(counterexamples(), None)
    return GaloisReport(
        carrier=B.carrier,
        subalgebras_above=len(S_lat),
        congruences_above=len(C_lat),
        passed=counterexample is None,
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
    out = []
    for c in carriers:  # sorted by (size, carrier), as the result is
        cset = set(c)
        above = [set(d) for d in carriers if cset < set(d)]
        if above and set.intersection(*above) > cset:
            out.append(SubalgebraWitness(A, c))
    return out


def kernel_quotient(A, B: SubalgebraWitness) -> KernelTriple:
    """Quotient A by theta_B = Cg(B x B) for a completely meet-irreducible B.

    Returns the subdirectly irreducible quotient S, the projection f and the
    point c = f(B) whose singleton is a subalgebra and whose preimage is B.
    In an affine algebra theta_B is Cg(B x B), so no term is needed.  Raises
    ValueError on a B that is not meet-irreducible, or that is not a whole
    class of Cg(B x B), as can happen in a non-affine algebra.  For a
    B below A the subuniverses above B and the congruences above theta_B
    form isomorphic lattices, so B has one upper cover exactly when S has a
    least nonidentity congruence, and the SI check decides it.  Every
    nonidentity congruence contains some Cg(a, b) with a < b, so that least
    congruence is the meet of those principal ones.
    """
    if len(B.carrier) == A.size:
        raise ValueError(f"carrier {list(B.carrier)} is the whole algebra, not meet-irreducible")
    theta = congruence_generated_by(A, [(B.carrier[0], b) for b in B.carrier])
    S, f = quotient_algebra(A, theta)
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
