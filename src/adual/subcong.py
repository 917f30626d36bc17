"""The subalgebra/congruence correspondence on an affine algebra.

A subalgebra B induces the congruence theta_B collapsing it; a congruence
above theta_B recovers a subalgebra C(alpha, B).  Between the subalgebras
containing B and the congruences containing theta_B these two maps are
mutually inverse lattice isomorphisms, meet-irreducible subalgebras give
subdirectly irreducible quotients, and every meet-irreducible B is the
preimage of a one-element subalgebra under the canonical projection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import (
    CHUNK_CELLS,
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
    subalgebra_from_tables,
    subuniverse_carriers,
    verify_congruence,
)
from .affine import induced_term


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

    def as_algebra(self, name=None):
        return subalgebra_from_tables(self.ambient, self.carrier, self.tables, name=name)


@dataclass(frozen=True)
class KernelTriple:
    """A subdirectly irreducible quotient S, the projection f, the point c,
    and the image of the affine term on S.

    The singleton {c} is a subalgebra of S and the preimage of c under f is
    exactly the carrier the triple was built from.
    """

    quotient: FiniteAlgebra
    projection: Homomorphism
    point: int
    term: Operation


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
    step = max(1, CHUNK_CELLS // (n * carrier.size))
    for s in range(0, n, step):
        hits = member[table[s : s + step, :, carrier]]
        forall[s : s + step] = hits.all(axis=2)
        exists[s : s + step] = hits.any(axis=2)
    if not np.array_equal(forall, exists):
        raise ValueError(
            "universal and existential forms disagree: t is not affine for this algebra"
        )
    # an equivalence relation is the kernel of x |-> its first related element
    first = forall.argmax(axis=1)
    if not np.array_equal(forall, first[:, None] == first[None, :]):
        raise ValueError("collapsing relation is not transitive: t is not affine")
    theta = Congruence(n, tuple(first.tolist()))
    verify_congruence(A, theta)
    return theta


def c_of_congruence(A, B: SubalgebraWitness, alpha: Congruence) -> SubalgebraWitness:
    """C(alpha, B) = {x : (x,b) in alpha for all b in B}, for alpha above theta_B."""
    if alpha.base_size != A.size:
        raise ValueError("congruence base does not match algebra")
    theta_b = congruence_generated_by(A, itertools.combinations(B.carrier, 2))
    if not theta_b.refines(alpha):
        witness = next(
            (x, y)
            for x in range(A.size)
            for y in range(A.size)
            if theta_b.related(x, y) and not alpha.related(x, y)
        )
        raise ValueError(
            f"congruence does not contain the one generated by the carrier: "
            f"pair {witness} is collapsed by theta_B but not by alpha"
        )
    forall = [x for x in range(A.size) if all(alpha.related(x, b) for b in B.carrier)]
    exists = [x for x in range(A.size) if any(alpha.related(x, b) for b in B.carrier)]
    if forall != exists:
        raise VerificationError("universal and existential forms of C(alpha,B) disagree")
    if not set(B.carrier) <= set(forall):
        raise VerificationError("C(alpha,B) does not contain B")
    return SubalgebraWitness(A, tuple(forall))


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


def verify_galois(A, t: Operation, B: SubalgebraWitness, budget=DEFAULT_BUDGET):
    """Check both composites and isotonicity on everything above B and theta_B.

    Within one call, theta_X is computed once per carrier X and C(alpha, B)
    once per congruence alpha.
    """
    carriers = subuniverse_carriers(A, budget)
    bset = set(B.carrier)
    S_lat = [c for c in carriers if bset <= set(c)]
    theta_of = lru_cache(maxsize=None)(lambda c: theta_of_subalgebra(A, t, SubalgebraWitness(A, c)))
    c_of = lru_cache(maxsize=None)(lambda alpha: c_of_congruence(A, B, alpha))
    theta_b = theta_of_subalgebra(A, t, B)
    C_lat = [alpha for alpha in con_lattice(A) if theta_b.refines(alpha)]
    counterexample = None

    for alpha in C_lat:
        X = c_of(alpha)
        if theta_of(X.carrier) != alpha:
            counterexample = f"theta(C(alpha,B)) != alpha for alpha={alpha.classes()}"
            break
    if counterexample is None:
        for carrier in S_lat:
            back = c_of(theta_of(carrier))
            if back.carrier != carrier:
                counterexample = f"C(theta_X,B) != X for X={list(carrier)}"
                break
    if counterexample is None:
        for c1 in S_lat:
            for c2 in S_lat:
                if set(c1) <= set(c2):
                    if not theta_of(c1).refines(theta_of(c2)):
                        counterexample = f"theta not isotone at {list(c1)} <= {list(c2)}"
                        break
            if counterexample:
                break
    if counterexample is None:
        for a1 in C_lat:
            for a2 in C_lat:
                if a1.refines(a2):
                    if not set(c_of(a1).carrier) <= set(c_of(a2).carrier):
                        counterexample = "C(.,B) not isotone"
                        break
            if counterexample:
                break
    # expose carriers with a common induced congruence (can occur across
    # different B, never inside the lattice above one B)
    fibers = {}
    for carrier in carriers:
        fibers.setdefault(theta_of(carrier), []).append(carrier)
    shared = tuple(tuple(v) for v in fibers.values() if len(v) > 1)
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


def kernel_quotient(A, t: Operation, B: SubalgebraWitness, budget=DEFAULT_BUDGET) -> KernelTriple:
    """Quotient A by theta_B for a completely meet-irreducible B.

    Returns the subdirectly irreducible quotient S, the projection f, the
    point c = f(B) whose singleton is a subalgebra and whose preimage is B,
    and t induced on S.  Raises ValueError on a B that is not
    meet-irreducible.  For a B below A the subuniverses above B and the
    congruences above theta_B form isomorphic lattices, so B has one upper
    cover exactly when S has a least nonidentity congruence, and the SI
    check decides it.  Every nonidentity congruence contains some Cg(a, b)
    with a < b, so that least congruence is the meet of those principal ones.
    """
    if len(B.carrier) == A.size:
        raise ValueError(f"carrier {list(B.carrier)} is the whole algebra, not meet-irreducible")
    theta = theta_of_subalgebra(A, t, B)
    S, f = quotient_algebra(A, theta)
    c = int(f.np_mapping[B.carrier[0]])
    if (f.np_mapping[list(B.carrier)] != c).any():
        raise VerificationError("the projection does not collapse the carrier to one point")
    if not np.array_equal(np.flatnonzero(f.np_mapping == c), B.carrier):
        raise VerificationError("the preimage of the point is not the carrier")
    for o in S.ops:
        if o(*([c] * o.arity)) != c:
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
    return KernelTriple(S, f, c, induced_term(t, theta))
