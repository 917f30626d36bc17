"""Entailment between compatible relations, with machine-checkable certificates.

Four derivation rules are supported: intersecting a family of same-arity
relations, taking the preimage of a relation under a tuple of terms, removing
a duplicated last coordinate, and reading an operation off its graph.  Each
rule is a node type, and a certificate is its derivation tree: the premises
are its leaves, stored by value, so replaying one needs no algebra, only the
embedded term tables.  A certificate is built by nesting nodes and checked by
replaying it.  The refuter searches for finitary maps that preserve a premise
set but break a target; a found map refutes an entailment, while exhaustion
proves nothing and says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    BudgetExceededError,
    CHUNK_CELLS,
    DEFAULT_BUDGET,
    Operation,
    Relation,
    VerificationError,
    decode_code,
    encode_tuple,
    full_relation,
    graph_relation,
    grid_args,
    is_compatible_relation,
    power_algebra,
    sorted_member,
)
from .affine import (
    AffineTerm,
    TermTree,
    affine_combination_array,
    lift_term_to_power,
)
from .subcong import kernel_quotient, meet_irreducibles
from .factorize import factor_morphism


@dataclass(frozen=True)
class Premise:
    value: object  # Relation or Operation


@dataclass(frozen=True)
class Intersection:
    base_size: int
    arity: int
    children: tuple


@dataclass(frozen=True)
class TermPreimage:
    terms: tuple
    child: object


@dataclass(frozen=True)
class StripPadding:
    child: object


@dataclass(frozen=True)
class GraphToOperation:
    child: object
    name: str = "t"


@dataclass(frozen=True)
class EntailmentCertificate:
    """A derivation tree whose replay gives `conclusion`, checked by value.

    `term_op` and `neutral` fix how affine coefficient vectors inside
    preimage nodes are evaluated; `extra_ops` carries tables for any
    composition-tree terms.  The premises are not stored: `premises` reads
    them off the tree.
    """

    conclusion: object
    derivation: object
    term_op: Optional[Operation] = None
    neutral: int = 0
    extra_ops: tuple = ()

    @property
    def premises(self):
        """The `Premise` values in tree order, then `term_op` when an affine term reads it.

        The tree is walked once, depth first, each node before its children.
        A preimage node with integer-coefficient terms consumes the affine
        operation as an extra premise; composition-tree terms do not.
        """
        values, affine, stack = [], False, [self.derivation]
        while stack:
            node = stack.pop()
            if isinstance(node, Premise):
                values.append(node.value)
            elif isinstance(node, Intersection):
                stack.extend(reversed(node.children))
            elif isinstance(node, (TermPreimage, StripPadding, GraphToOperation)):
                if isinstance(node, TermPreimage):
                    affine = affine or any(isinstance(t, AffineTerm) for t in node.terms)
                stack.append(node.child)
        if affine and self.term_op is not None:
            values.append(self.term_op)
        return tuple(values)

    def ops_by_name(self):
        return {o.name: o for o in self.extra_ops}


def _eval_node(node, cert: EntailmentCertificate, budget=DEFAULT_BUDGET):
    if isinstance(node, Premise):
        return node.value
    if isinstance(node, Intersection):
        values = [_eval_node(c, cert, budget) for c in node.children]
        for v in values:
            if not isinstance(v, Relation) or v.arity != node.arity or v.base_size != node.base_size:
                raise ValueError("intersection inputs must be relations of equal arity")
        if not values:
            return full_relation(node.base_size, node.arity)
        codes = values[0].codes()
        for v in values[1:]:
            codes = codes[sorted_member(v.codes(), codes)]
        return Relation.from_codes(codes, node.base_size, node.arity)
    if isinstance(node, TermPreimage):
        R = _eval_node(node.child, cert, budget)
        if not isinstance(R, Relation):
            raise ValueError("term preimage needs a relation input")
        if len(node.terms) != R.arity:
            raise ValueError(
                f"need {R.arity} terms for a {R.arity}-ary relation, got {len(node.terms)}"
            )
        arities = {t.arity for t in node.terms}
        if len(arities) != 1:
            raise ValueError("all preimage terms must have the same arity")
        n = arities.pop()
        base = R.base_size
        if base**n > budget:
            raise BudgetExceededError(base**n, budget, hint="preimage evaluation")
        ops = cert.ops_by_name()
        # every argument tuple at once, in code order
        args = decode_code(np.arange(base**n), [base] * n)
        images = [np.broadcast_to(_eval_term(t, cert, ops, args), (base**n,)) for t in node.terms]
        kept = np.flatnonzero(sorted_member(R.codes(), encode_tuple(images, base)))
        return Relation.from_codes(kept, base, n)
    if isinstance(node, StripPadding):
        S = _eval_node(node.child, cert, budget)
        if not isinstance(S, Relation) or S.arity < 2:
            raise ValueError("strip needs a relation of arity >= 2")
        sizes = [S.base_size] * S.arity
        *_, before_last, last = decode_code(S.codes(), sizes)
        wrong = before_last != last
        if wrong.any():
            t = decode_code(int(S.codes()[wrong.argmax()]), sizes)
            raise ValueError(f"tuple {t} does not duplicate its last coordinate")
        return Relation.from_codes(S.codes() // S.base_size, S.base_size, S.arity - 1)
    if isinstance(node, GraphToOperation):
        G = _eval_node(node.child, cert, budget)
        if not isinstance(G, Relation) or G.arity < 2:
            raise ValueError("graph rule needs a relation of arity >= 2")
        arity, base = G.arity - 1, G.base_size
        if len(G) != base**arity:
            raise ValueError("relation is not the graph of a total operation")
        # sorted codes with distinct argument prefixes run through every argument tuple
        args = G.codes() // base
        repeated = args[1:] == args[:-1]
        if repeated.any():
            at = decode_code(int(args[repeated.argmax()]), [base] * arity)
            raise ValueError(f"relation is not functional at {at}")
        return Operation(node.name, arity, base, G.codes() % base)
    raise TypeError(f"unknown derivation node {node!r}")


def _eval_term(term, cert, ops, args):
    """The term at `args`, integer arrays that broadcast together."""
    if isinstance(term, AffineTerm):
        if cert.term_op is None:
            raise ValueError("certificate carries no affine operation table")
        return affine_combination_array(term, cert.term_op, cert.neutral, args)
    if isinstance(term, TermTree):
        return term.evaluate(ops, args)
    raise TypeError(f"unknown term {term!r}")


def replay_certificate(cert: EntailmentCertificate, budget=DEFAULT_BUDGET):
    """Recompute the conclusion from the premises; equality is the soundness check."""
    return _eval_node(cert.derivation, cert, budget)


def verify_certificate(cert: EntailmentCertificate, budget=DEFAULT_BUDGET) -> bool:
    return replay_certificate(cert, budget) == cert.conclusion


# ---------------------------------------------------------------------------
# Refutation by exhaustive polymorphism search
# ---------------------------------------------------------------------------


@dataclass
class RefutationOutcome:
    """Either a concrete violating map, or a documented exhaustion bound.

    Exhaustion proves nothing: only certificates claim entailment.
    """

    witness: Optional[Operation]
    searched_arity: int
    maps_checked: int

    @property
    def refuted(self):
        return self.witness is not None

    def message(self):
        if self.refuted:
            return (
                f"entailment refuted by a {self.witness.arity}-ary map "
                f"(checked {self.maps_checked} maps)"
            )
        return (
            f"no witness up to arity {self.searched_arity} "
            f"({self.maps_checked} maps checked); nothing is proved"
        )


def _as_relation(value):
    return graph_relation(value) if isinstance(value, Operation) else value


def _preservation_test(R: Relation, arity):
    """A test of which maps A^arity -> A, given by their flat tables one per row, preserve R."""
    codes = R.codes()
    rows = grid_args(decode_code(codes, [R.base_size] * R.arity), arity)
    # the table index each coordinate reads, for every arity-tuple of rows
    index = [np.ravel(encode_tuple([a[c] for a in rows], R.base_size)) for c in range(R.arity)]
    return lambda tables: sorted_member(
        codes, encode_tuple([tables[:, i] for i in index], R.base_size)
    ).all(axis=1)


def refute_entailment(A, premises, target, max_arity, budget=DEFAULT_BUDGET):
    """Search all maps A^m -> A, m <= max_arity, preserving every premise.

    Returns the first map in canonical order (arity, then table) violating
    the target, or the exhaustion outcome.  The maps of one arity are
    checked in blocks, each against one relation after another, and only
    the maps that preserve every premise against the target.
    """
    premise_rels = [_as_relation(p) for p in premises]
    target_rel = _as_relation(target)
    s = A.size
    checked = 0
    for m in range(1, max_arity + 1):
        count = s ** (s**m)
        if count > budget:
            raise BudgetExceededError(count, budget, hint=f"maps of arity {m}")
        rels = premise_rels + [target_rel]
        grid = max(len(R) ** m for R in rels)
        if grid > budget:
            raise BudgetExceededError(grid, budget, hint=f"argument tuples of arity {m}")
        *kept, broken = [_preservation_test(R, m) for R in rels]
        step = max(1, CHUNK_CELLS // max(grid, s**m))
        for start in range(0, count, step):
            tables = np.stack(decode_code(np.arange(start, min(start + step, count)), [s] * s**m), axis=1)
            survivors = np.arange(len(tables))
            for preserves in kept:
                survivors = survivors[preserves(tables[survivors])]
            hits = survivors[~broken(tables[survivors])]
            if hits.size:
                i = int(hits[0])
                return RefutationOutcome(
                    witness=Operation("witness", m, s, tables[i]),
                    searched_arity=m,
                    maps_checked=checked + i + 1,
                )
            checked += len(tables)
    return RefutationOutcome(witness=None, searched_arity=max_arity, maps_checked=checked)


# ---------------------------------------------------------------------------
# The reduction pipeline: certificates from bounded-arity premises
# ---------------------------------------------------------------------------


@dataclass
class ReductionResult:
    """A compatible relation rewritten over premises of arity at most N+1."""

    bounded_premises: tuple
    certificate: EntailmentCertificate

    def __post_init__(self):
        if not all(isinstance(r, Relation) for r in self.bounded_premises):
            raise VerificationError("a bounded premise is not a relation")


def reduce_to_bounded_arity(
    A,
    t: Operation,
    R: Relation,
    N: int,
    budget=DEFAULT_BUDGET,
) -> ReductionResult:
    """Certify R from (N+1)-ary compatible relations plus the affine operation.

    R is written as the intersection of the completely meet-irreducible
    subuniverses of A^n above it, found in the interval [R, A^n] of Sub(A^n)
    alone; each of those is the kernel class of a
    morphism onto a subdirectly irreducible quotient, which factors through
    A^(N+1), turning the component into a term preimage of an (N+1)-ary
    compatible relation.  N must be at least the generating-family size of
    every hom group met along the way; families are padded up to exactly N.
    """
    if R.base_size != A.size:
        raise ValueError("relation base does not match the algebra")
    if not is_compatible_relation(A, R, budget):
        raise ValueError("input relation is not compatible")
    n = R.arity
    P = power_algebra(A, n, budget)
    t_P = lift_term_to_power(t, n, budget)
    r_codes = R.codes()
    above = meet_irreducibles(P, budget, above=r_codes)
    # an inclusion-minimal subfamily has the same intersection
    components = [w for w in above if not any(set(v.carrier) < set(w.carrier) for v in above)]
    meet = np.arange(P.size)
    for w in components:
        meet = meet[sorted_member(np.array(w.carrier), meet)]
    if not np.array_equal(meet, r_codes):
        raise VerificationError("meet-irreducible decomposition failed")

    nodes = []
    for w in components:
        kt = kernel_quotient(P, t_P, w, budget)
        c = kt.point
        fac = factor_morphism(A, kt.quotient, t, kt.term, kt.projection, N, budget)
        # B = g^-1(c) is the preimage of B_hat = reduced^-1(c) under the
        # projection, a homomorphism, so B is compatible exactly when B_hat is
        b_hat = np.flatnonzero(fac.g.reduced.np_mapping == c)
        B_hat = Relation.from_codes(b_hat, A.size, len(fac.g.coordinates))
        if not is_compatible_relation(A, B_hat, budget):
            raise VerificationError("preimage of the point is not compatible")
        B = Relation.from_codes(np.flatnonzero(fac.g.mapping == c), A.size, N + 1)
        nodes.append(TermPreimage(fac.terms, Premise(B)))

    root = Intersection(A.size, n, tuple(nodes))
    cert = EntailmentCertificate(conclusion=R, derivation=root, term_op=t, neutral=0)
    if replay_certificate(cert, budget) != R:
        raise VerificationError("reduction pipeline did not reproduce the input relation")
    bounded = tuple(node.child.value for node in nodes)
    return ReductionResult(bounded_premises=bounded, certificate=cert)


def pad_relation(R: Relation, arity: int) -> Relation:
    """R with its last coordinate duplicated up to the requested arity."""
    if arity < R.arity:
        raise ValueError("cannot pad downward")
    columns = decode_code(R.codes(), [R.base_size] * R.arity)
    padded = columns + (columns[-1],) * (arity - R.arity)
    return Relation.from_codes(encode_tuple(padded, R.base_size), R.base_size, arity)


def eliminate_t(A, t: Operation, N: int, budget=DEFAULT_BUDGET) -> EntailmentCertificate:
    """Certify the affine operation itself from one N-ary compatible relation.

    The premise is the graph of t padded with duplicated last coordinates up
    to arity N; stripping recovers the graph and the graph rule recovers the
    operation.
    """
    if N < 4:
        raise ValueError(f"need N >= 4 to reach the 4-ary graph, got {N}")
    graph = graph_relation(t)
    padded = pad_relation(graph, N)
    if not is_compatible_relation(A, padded, budget):
        raise VerificationError("padded graph is not compatible")
    node = Premise(padded)
    for _ in range(N - 4):
        node = StripPadding(node)
    node = GraphToOperation(node, name="t")
    cert = EntailmentCertificate(conclusion=t, derivation=node, term_op=t)
    if replay_certificate(cert, budget) != t:
        raise VerificationError("replay did not recover the affine operation")
    return cert
