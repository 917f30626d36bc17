"""Differential tests of congruence generation, join, meet and refinement.

The label-array code in `core` is checked against oracles that work one
argument tuple at a time: a union-find that merges one pair at a time and
applies each operation to one argument tuple per step.  `Congruence`, which
stores only its labels, is checked against the dataclass it replaced, which
stored the canonical ids next to them.  `c_of_congruence` is checked against
the precondition it replaced, alpha refining the congruence generated by
B x B.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adual import core, subcong, zoo
from test_kernel import algebras, reducts
from test_subcong import ZOO


# ---------------------------------------------------------------------------
# Oracles: a union-find, one pair and one argument tuple at a time
# ---------------------------------------------------------------------------


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True


def canonical(class_of):
    """Block ids numbered by first appearance."""
    relabel = {}
    return tuple(relabel.setdefault(c, len(relabel)) for c in class_of)


def oracle_generated(A, pairs):
    """Merge each pair, then each pair of values at argument tuples that differ in one place."""
    uf = UnionFind(A.size)
    todo = [(a, b) for a, b in pairs if uf.union(a, b)]
    unary_like = [(o, pos) for o in A.ops for pos in range(o.arity)]
    while todo:
        a, b = todo.pop()
        for o, pos in unary_like:
            for rest in itertools.product(range(A.size), repeat=o.arity - 1):
                va = o(*rest[:pos], a, *rest[pos:])
                vb = o(*rest[:pos], b, *rest[pos:])
                if uf.union(va, vb):
                    todo.append((va, vb))
    return canonical(uf.find(x) for x in range(A.size))


def oracle_join(x, y):
    uf = UnionFind(len(x))
    for class_of in (x, y):
        first = {}
        for e, c in enumerate(class_of):
            uf.union(first.setdefault(c, e), e)
    return canonical(uf.find(e) for e in range(len(x)))


def oracle_meet(x, y):
    return canonical(zip(x, y))


def oracle_refines(x, y):
    seen = {}
    return all(seen.setdefault(c, d) == d for c, d in zip(x, y))


def oracle_con_lattice(A):
    """Principal congruences closed under join, sorted as `core.con_lattice` sorts."""
    principals = {tuple(range(A.size))}
    principals |= {oracle_generated(A, [(a, b)]) for a, b in itertools.combinations(range(A.size), 2)}
    found, frontier = set(principals), list(principals)
    while frontier:
        theta = frontier.pop()
        for other in list(found):
            j = oracle_join(theta, other)
            if j not in found:
                found.add(j)
                frontier.append(j)
    return sorted(found, key=lambda c: (-(max(c) + 1), c))


# ---------------------------------------------------------------------------
# The label arrays against the oracles
# ---------------------------------------------------------------------------


@given(algebras(max_size=6), st.data())
@settings(max_examples=60)
def test_generated_congruences_match_the_union_find(A, data):
    element = st.integers(0, A.size - 1)
    pairs = data.draw(st.lists(st.tuples(element, element), max_size=3))
    for (C,) in reducts(A):
        assert core.congruence_generated_by(C, pairs).class_of == oracle_generated(C, pairs)
        for a, b in itertools.combinations(range(C.size), 2):
            assert core.principal_congruence(C, a, b).class_of == oracle_generated(C, [(a, b)])


@given(algebras(max_size=6))
@settings(max_examples=40)
def test_con_lattice_and_its_order_match_the_union_find(A):
    for (C,) in reducts(A):
        lattice = core.con_lattice(C)
        assert [c.class_of for c in lattice] == oracle_con_lattice(C)
        for x, y in itertools.product(lattice, repeat=2):
            assert x.join(y).class_of == oracle_join(x.class_of, y.class_of)
            assert x.meet(y).class_of == oracle_meet(x.class_of, y.class_of)
            assert x.refines(y) == oracle_refines(x.class_of, y.class_of)


@given(st.integers(1, 6), st.data())
@settings(max_examples=60)
def test_partition_operations_match_the_oracles(n, data):
    class_map = st.lists(st.integers(0, 9), min_size=n, max_size=n)
    x, y = data.draw(class_map), data.draw(class_map)
    X, Y = core.Congruence(n, x), core.Congruence(n, y)
    assert X.class_of == canonical(x)
    assert X.labels.tolist() == [x.index(c) for c in x]
    assert X.join(Y).class_of == oracle_join(x, y)
    assert X.meet(Y).class_of == oracle_meet(x, y)
    assert X.refines(Y) == oracle_refines(x, y)


def test_congruence_checks_its_length(z4):
    with pytest.raises(ValueError, match="class map has 4 entries, expected base size 2"):
        core.Congruence(2, (0, 1, 1, 0))
    with pytest.raises(ValueError, match="class map has 2 entries, expected base size 4"):
        core.verify_congruence(z4, core.Congruence(4, (0, 1)))


# ---------------------------------------------------------------------------
# Congruence against the dataclass that stored both forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StoredCongruence:
    """The former `core.Congruence`: the canonical ids as a tuple, with the labels beside them."""

    base_size: int
    class_of: tuple
    labels: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = np.asarray(self.class_of, dtype=np.int64)
        if ids.shape != (self.base_size,):
            raise ValueError(f"class map has {ids.size} entries, expected base size {self.base_size}")
        _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(first.size)
        labels = first[inverse]
        labels.setflags(write=False)
        object.__setattr__(self, "class_of", tuple(rank[inverse].tolist()))
        object.__setattr__(self, "labels", labels)

    @property
    def num_classes(self):
        return max(self.class_of) + 1

    def classes(self):
        return tuple(tuple(np.flatnonzero(self.labels == r).tolist()) for r in np.unique(self.labels))

    def related(self, x, y):
        return self.class_of[x] == self.class_of[y]

    def refines(self, other):
        return bool((other.labels[self.labels] == other.labels).all())

    def is_identity(self):
        return self.num_classes == self.base_size

    def meet(self, other):
        return StoredCongruence(self.base_size, self.labels * self.base_size + other.labels)

    def join(self, other):
        return StoredCongruence(self.base_size, core._merged(self.labels, np.arange(self.base_size), other.labels))


def assert_same_partition(got, expected):
    """`got`, a Congruence, reads as the oracle `expected` through every accessor."""
    n = expected.base_size
    assert got.base_size == n
    assert got.labels.tolist() == expected.labels.tolist()
    assert not got.labels.flags.writeable
    assert got.class_of == expected.class_of
    assert got.num_classes == expected.num_classes
    assert got.classes() == expected.classes()
    assert got.is_identity() == expected.is_identity()
    for x, y in itertools.product(range(n), repeat=2):
        assert got.related(x, y) is expected.related(x, y)


@given(st.integers(1, 6), st.data())
@settings(max_examples=150)
def test_congruence_matches_the_stored_dataclass(n, data):
    """Raw ids, not canonical and possibly negative, and the meet's ids labels * n + labels."""
    ids = st.lists(st.integers(-3, 3 * n), min_size=n, max_size=n)
    x, y = data.draw(ids), data.draw(ids)
    X, Y = core.Congruence(n, x), core.Congruence(n, y)
    OX, OY = StoredCongruence(n, x), StoredCongruence(n, y)
    meet_ids = X.labels * n + Y.labels
    pairs = [
        (X, OX),
        (Y, OY),
        (core.Congruence(n, meet_ids), StoredCongruence(n, meet_ids)),
        (X.meet(Y), OX.meet(OY)),
        (X.join(Y), OX.join(OY)),
        (core.Congruence(n, X.class_of), StoredCongruence(n, OX.class_of)),
    ]
    for got, expected in pairs:
        assert_same_partition(got, expected)
    for (a, oa), (b, ob) in itertools.product(pairs, repeat=2):
        assert (a == b) == (oa == ob)
        assert a.refines(b) == oa.refines(ob)
        if a == b:
            assert hash(a) == hash(b)
    assert X != OX and X != x  # compares only with congruences


def stored_con_lattice(A):
    """`core.con_lattice` as it ran on the stored dataclass: its joins, sets and sort key."""
    principals = {StoredCongruence(A.size, tuple(range(A.size)))}
    principals.update(
        StoredCongruence(A.size, core.principal_congruence(A, a, b).labels)
        for a, b in itertools.combinations(range(A.size), 2)
    )
    found, frontier = set(principals), list(principals)
    while frontier:
        theta = frontier.pop()
        for other in list(found):
            j = theta.join(other)
            if j not in found:
                found.add(j)
                frontier.append(j)
    return sorted(found, key=lambda c: (-c.num_classes, c.class_of))


@pytest.mark.parametrize("name", list(ZOO))
def test_con_lattice_order_matches_the_stored_dataclass(name):
    A = ZOO[name]
    got, expected = core.con_lattice(A), stored_con_lattice(A)
    assert len(got) == len(expected)
    for theta, oracle in zip(got, expected):
        assert_same_partition(theta, oracle)


def test_a_congruence_stores_only_its_labels():
    """One stored array; the canonical ids and the class count are built when asked for."""
    theta = core.Congruence(4, (7, 3, 7, 3))
    for fresh in (theta, theta.meet(theta), theta.join(theta), core.Congruence.from_classes(4, [[0, 2], [1, 3]])):
        arrays = [name for name, value in vars(fresh).items() if isinstance(value, np.ndarray)]
        assert arrays == ["labels"]
        assert "class_of" not in vars(fresh) and "num_classes" not in vars(fresh)
    assert theta.class_of == (0, 1, 0, 1)
    assert vars(theta)["class_of"] == (0, 1, 0, 1)


# ---------------------------------------------------------------------------
# C(alpha, B) against the generated-congruence precondition
# ---------------------------------------------------------------------------


def oracle_c_of_congruence(A, B, alpha):
    """C(alpha, B) when Cg(B x B) refines alpha, else None."""
    theta_b = oracle_generated(A, itertools.combinations(B.carrier, 2))
    if not oracle_refines(theta_b, alpha.class_of):
        return None
    return tuple(x for x in range(A.size) if all(alpha.related(x, b) for b in B.carrier))


@pytest.mark.parametrize("name", ["z4", "z6", "v4", "z2^2"])
def test_c_of_congruence_matches_the_generated_precondition(name):
    A = {
        "z4": zoo.cyclic_group(4),
        "z6": zoo.cyclic_group(6),
        "v4": zoo.klein_group(),
        "z2^2": core.power_algebra(zoo.cyclic_group(2), 2),
    }[name]
    accepted = refused = 0
    for carrier, alpha in itertools.product(core.subuniverse_carriers(A), core.con_lattice(A)):
        B = subcong.SubalgebraWitness(A, carrier)
        expected = oracle_c_of_congruence(A, B, alpha)
        if expected is None:
            with pytest.raises(ValueError, match="pair"):
                subcong.c_of_congruence(A, B, alpha)
            refused += 1
        else:
            assert subcong.c_of_congruence(A, B, alpha).carrier == expected
            accepted += 1
    assert accepted and refused


def test_kernel_quotient_reads_the_point_off_the_tables(monkeypatch, z4):
    # {c} is checked closed on the quotient's tables, not by calling an operation
    def no_calls(self, *args):
        raise AssertionError("Operation.__call__ used")

    monkeypatch.setattr(core.Operation, "__call__", no_calls)
    kt = subcong.kernel_quotient(z4, subcong.SubalgebraWitness(z4, (0, 2)))
    assert (kt.quotient.size, kt.point) == (2, 0)
