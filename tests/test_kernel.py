"""Differential tests of the coordinatewise operation kernel.

`core.apply_coordinatewise` and every function built on it are checked
against plain oracles that apply an operation to one argument tuple at a
time, with itertools.product over all tuples.  The algebras are random: 1 to
4 elements, operations of arity 0 to 3, their small powers, and products
whose factors differ in size.
"""

import ast
import importlib
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adual import affine, core, duality, entailment, homgroups, subcong, textio, zoo
from test_core import brute_force_homs, brute_force_subuniverses

Z4AFF = Path(__file__).resolve().parents[1] / "data" / "z4aff.alg"


def load_z4aff():
    return textio.parse_document(Z4AFF.read_text(), source=str(Z4AFF)).algebras["z4aff"]


# ---------------------------------------------------------------------------
# Oracles: one argument tuple at a time
# ---------------------------------------------------------------------------


def digits_of(code, sizes):
    out = []
    for s in reversed(sizes):
        out.append(code % s)
        code //= s
    return out[::-1]


def code_of(digits, sizes):
    code = 0
    for d, s in zip(digits, sizes):
        code = code * s + d
    return code


def oracle_apply(factors, name, codes):
    """The operation `name` on the product of `factors` at the argument codes."""
    sizes = [F.size for F in factors]
    digits = [digits_of(c, sizes) for c in codes]
    return code_of([F.op(name)(*(d[i] for d in digits)) for i, F in enumerate(factors)], sizes)


def oracle_closure(factors, seed):
    members = set(seed)
    while True:
        found = {
            oracle_apply(factors, o.name, args)
            for o in factors[0].ops
            for args in itertools.product(sorted(members), repeat=o.arity)
        }
        if found <= members:
            return sorted(members)
        members |= found


def oracle_closed(A, tuples):
    """True iff the set of tuples is closed under every operation of A."""
    rows = set(tuples)
    k = len(next(iter(rows)))
    return all(
        tuple(o(*(row[c] for row in args)) for c in range(k)) in rows
        for o in A.ops
        for args in itertools.product(sorted(rows), repeat=o.arity)
    )


def partitions(n):
    """Every partition of range(n) as a canonical class map."""
    for class_of in itertools.product(range(n), repeat=n):
        if all(c <= max(class_of[:i], default=-1) + 1 for i, c in enumerate(class_of)):
            yield class_of


# ---------------------------------------------------------------------------
# Random algebras
# ---------------------------------------------------------------------------


signatures = st.lists(st.integers(0, 3), min_size=1, max_size=3).map(
    lambda arities: [(f"f{i}", a) for i, a in enumerate(arities)]
)


def draw_algebra(draw, signature, size, name="A"):
    ops = [
        core.Operation(op, arity, size, draw(st.lists(st.integers(0, size - 1), min_size=size**arity, max_size=size**arity)))
        for op, arity in signature
    ]
    return core.FiniteAlgebra(name, size, ops)


def reducts(*algebras):
    """The algebras, then their reducts to each single operation in turn.

    A check that fails on one operation alone is then seen even when
    another operation of the full algebra already decides the outcome.
    """
    names = [o.name for o in algebras[0].ops]
    for keep in [names] + [[name] for name in names]:
        yield [core.FiniteAlgebra(A.name, A.size, [A.op(name) for name in keep]) for A in algebras]


@st.composite
def algebras(draw, max_size=4):
    return draw_algebra(draw, draw(signatures), draw(st.integers(1, max_size)))


@st.composite
def products(draw, max_cells=12):
    """Same-signature factors of differing sizes whose product is small."""
    signature = draw(signatures)
    factors, cells = [], 1
    for i in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, max(1, min(4, max_cells // cells))))
        factors.append(draw_algebra(draw, signature, size, name=f"F{i}"))
        cells *= size
    return factors


@st.composite
def ternary_tables(draw, size):
    return core.Operation("t", 3, size, draw(st.lists(st.integers(0, size - 1), min_size=size**3, max_size=size**3)))


# ---------------------------------------------------------------------------
# The kernel and the closure
# ---------------------------------------------------------------------------


@st.composite
def powers(draw, max_cells=16):
    """A random algebra A and an exponent k with |A|**k small."""
    A = draw(algebras())
    return A, draw(st.integers(1, 3).filter(lambda k: A.size**k <= max_cells))


def image_codes(A, k, o, args):
    """The codes on A^k of the operation `o` of A at stacked-digit `args`, through the kernel."""
    digits = core.apply_coordinatewise(o.np_table, A.size, args) if o.arity else [o.np_table[0]] * k
    return core.encode_tuple(digits, A.size)


@given(powers(), st.data())
@settings(max_examples=80)
def test_kernel_matches_oracle(power, data):
    """Stacked digits on A^k against the oracle and against the table of A^k from `product_operations`."""
    A, k = power
    sizes = [A.size] * k
    elements = data.draw(st.lists(st.integers(0, A.size**k - 1), min_size=1, max_size=5))
    digits = np.stack(core.decode_code(np.array(elements, dtype=np.int64), sizes))
    for o, product in zip(A.ops, core.product_operations([A] * k)):
        codes = image_codes(A, k, o, core.grid_args(digits, o.arity))
        assert np.shape(codes) == (len(elements),) * o.arity
        expected = [oracle_apply([A] * k, o.name, args) for args in itertools.product(elements, repeat=o.arity)]
        assert np.ravel(codes).tolist() == expected
        grid = core.grid_args(np.array(elements, dtype=np.int64), o.arity)
        assert np.ravel(product.np_table[core.encode_tuple(grid, A.size**k)]).tolist() == expected
        # the digits of one element each give the digits of one image
        args = data.draw(st.lists(st.sampled_from(elements), min_size=o.arity, max_size=o.arity))
        one = image_codes(A, k, o, [np.array(core.decode_code(a, sizes)) for a in args])
        assert int(one) == oracle_apply([A] * k, o.name, args)


@given(powers(), st.data())
@settings(max_examples=80)
def test_closure_matches_oracle(power, data):
    """The closure on A^k against the oracle, and against the closure on the table algebra A^k."""
    A, k = power
    P = core.power_algebra(A, k)
    codes = st.lists(st.integers(0, P.size - 1), max_size=3)
    seed = data.draw(codes)
    got = core.closed_product_subset(A, k, seed).tolist()
    assert got == oracle_closure([A] * k, seed) == core.closed_product_subset(P, 1, seed).tolist()
    base = oracle_closure([A] * k, data.draw(codes))
    extra = data.draw(codes)
    got = core.closed_product_subset(A, k, extra, base=np.array(base, dtype=np.int64))
    assert got.tolist() == oracle_closure([A] * k, base + extra)


@given(products(), st.data())
@settings(max_examples=40)
def test_closure_of_a_mixed_product_matches_oracle(factors, data):
    """A product of differing factors is closed on its table algebra, at k = 1."""
    P = core.FiniteAlgebra("P", int(np.prod([F.size for F in factors])), core.product_operations(factors))
    seed = data.draw(st.lists(st.integers(0, P.size - 1), max_size=3))
    assert core.closed_product_subset(P, 1, seed).tolist() == oracle_closure(factors, seed)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ternary_and_constant_operations_on_powers(k, z4):
    """z4aff's ternary operation and z4's constant, on stacked digits of every element of A^k."""
    for A in (load_z4aff(), z4):
        P = core.power_algebra(A, k)
        digits = np.stack(core.decode_code(np.arange(P.size), [A.size] * k))
        for o, product in zip(A.ops, P.ops):
            codes = image_codes(A, k, o, core.grid_args(digits, o.arity))
            assert np.ravel(codes).tolist() == list(product.table)
        seed = [1, P.size - 1]
        assert core.closed_product_subset(A, k, seed).tolist() == core.closed_product_subset(P, 1, seed).tolist()


def extension_oracle(A):
    """All nonempty subuniverses by one-element extensions, sorted as core sorts them.

    Closes every singleton, then extends every subuniverse found by every
    element outside it until nothing new appears.
    """
    found = {}
    queue = []
    for x in range(A.size):
        arr = core.closed_product_subset(A, 1, [x])
        if arr.tobytes() not in found:
            found[arr.tobytes()] = arr
            queue.append(arr)
    while queue:
        arr = queue.pop()
        for x in sorted(set(range(A.size)) - set(arr.tolist())):
            ext = core.closed_product_subset(A, 1, [x], base=arr)
            if ext.tobytes() not in found:
                found[ext.tobytes()] = ext
                queue.append(ext)
    return sorted((tuple(arr.tolist()) for arr in found.values()), key=lambda c: (len(c), c))


@st.composite
def small_powers(draw):
    """A random algebra or its square or cube, on at most 9 elements."""
    A = draw(algebras())
    n = draw(st.integers(1, 3).filter(lambda n: A.size**n <= 9))
    return A if n == 1 else core.power_algebra(A, n)


@given(small_powers())
@settings(max_examples=80)
def test_subuniverse_carriers_match_oracles(A):
    for (C,) in reducts(A):
        assert core.subuniverse_carriers(C) == extension_oracle(C) == brute_force_subuniverses(C)


@pytest.mark.parametrize("with_constant", [False, True])
def test_subuniverse_carriers_on_one_element(with_constant):
    ops = [core.Operation("f", 2, 1, [0])] + [core.Operation("c", 0, 1, [0])] * with_constant
    assert core.subuniverse_carriers(core.FiniteAlgebra("one", 1, ops)) == [(0,)]


def test_subuniverse_lattice_takes_few_closures(monkeypatch):
    """Sub(Z3^4), 212 subspaces, in under 2,000 closures (14,801 by one-element extensions)."""
    P = core.power_algebra(zoo.cyclic_group(3), 4)
    calls = []
    real = core.closed_product_subset
    monkeypatch.setattr(core, "closed_product_subset", lambda *a, **k: calls.append(1) or real(*a, **k))
    assert len(core.subuniverse_carriers(P)) == 212
    assert len(calls) < 2000


def test_ternary_closure_memory_is_bounded():
    """The whole of <Z4; x-y+z>^4, 256 elements, closed in frontier blocks."""
    A = load_z4aff()
    seed = [0] + [4**i for i in range(4)]  # 0 and the unit vectors
    tracemalloc.start()
    try:
        members = core.closed_product_subset(A, 4, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert members.tolist() == list(range(256))
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# Functions built on the kernel: accepted and rejected inputs
# ---------------------------------------------------------------------------


@given(algebras(max_size=3), st.integers(1, 2), st.data())
@settings(max_examples=40)
def test_power_and_product_tables_match_oracle(A, n, data):
    P = core.power_algebra(A, n)
    B = draw_algebra(data.draw, [(o.name, o.arity) for o in A.ops], data.draw(st.integers(1, 3)), "B")
    AB = zoo.direct_product(A, B)
    for C, factors in ((P, [A] * n), (AB, [A, B])):
        for o in C.ops:
            expected = [
                oracle_apply(factors, o.name, args) for args in itertools.product(range(C.size), repeat=o.arity)
            ]
            assert list(o.table) == expected


@given(algebras(max_size=3), st.integers(1, 3), st.data())
@settings(max_examples=60)
def test_compatible_relation_matches_oracle(A, k, data):
    tuples = list(itertools.product(range(A.size), repeat=k))
    rows = data.draw(st.lists(st.sampled_from(tuples), min_size=1, max_size=6))
    R = core.Relation(k, A.size, rows)
    for (C,) in reducts(A):
        assert core.is_compatible_relation(C, R) == oracle_closed(C, R.tuples)
        closed = oracle_closure([C] * k, R.codes())
        assert core.is_compatible_relation(C, core.Relation.from_codes(closed, A.size, k))


@given(signatures, st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=40)
def test_homomorphisms_match_oracle(signature, m, n, data):
    for A, B in reducts(draw_algebra(data.draw, signature, m, "A"), draw_algebra(data.draw, signature, n, "B")):
        homs = []
        for mapping in itertools.product(range(n), repeat=m):
            is_hom = all(
                mapping[o(*args)] == B.op(o.name)(*(mapping[a] for a in args))
                for o in A.ops
                for args in itertools.product(range(m), repeat=o.arity)
            )
            if is_hom:
                homs.append(mapping)
                core.Homomorphism(A, B, mapping)
            else:
                with pytest.raises(ValueError, match="not a homomorphism"):
                    core.Homomorphism(A, B, mapping)
        assert [h.mapping for h in core.enumerate_homs(A, B)] == homs


def oracle_generators(A):
    """The greedy generating set by closures: close the constants, then add the least unreached element."""
    reached = core.closed_product_subset(A, 1, []).tolist() if A.constants() else []
    gens = []
    while len(reached) < A.size:
        gens.append(min(set(range(A.size)) - set(reached)))
        reached = core.closed_product_subset(A, 1, gens + reached).tolist()
    return tuple(gens)


@given(algebras())
@settings(max_examples=60)
def test_generating_steps_match_the_closure_oracle(A):
    for (C,) in reducts(A):
        assert C.generating_set == oracle_generators(C)
        # the steps fill the identity map, a homomorphism, back in full
        identity = core.extend_partial_map(C, C, {g: g for g in C.generating_set})
        assert identity.mapping == tuple(range(C.size))


def oracle_homs(A, B):
    """Every hom A -> B: the maps on 0..x, extended one element x at a time and
    kept when they satisfy every equation whose elements are all assigned."""
    checks = [[] for _ in range(A.size)]  # by the largest element an equation holds
    for o in A.ops:
        args = core.decode_code(np.arange(A.size**o.arity), [A.size] * o.arity)
        level = np.maximum.reduce([o.np_table, *args])
        for x in np.unique(level).tolist():
            at = level == x
            checks[x].append((B.op(o.name).np_table, [a[at] for a in args], o.np_table[at]))
    maps = np.zeros((1, 0), dtype=np.int64)
    for x in range(A.size):
        values = np.tile(np.arange(B.size), len(maps))
        maps = np.column_stack([np.repeat(maps, B.size, axis=0), values])
        for table, args, result in checks[x]:
            images = table[core.encode_tuple([maps[:, a] for a in args], B.size)]
            maps = maps[(images == maps[:, result]).all(axis=1)]
    return [tuple(m) for m in maps.tolist()]


def test_homs_of_a_large_power_are_the_parities():
    """Hom(Z2^9, Z2): 9 generators, and the last round of steps spans two grid blocks.

    The prefix pass checks 2**8 images of g_1..g_8, each on the 256**2
    equations of add inside Sg(g_1..g_8), one row per block.
    """
    z2 = zoo.cyclic_group(2)
    P = core.power_algebra(z2, 9)
    assert len(P.generating_set) == 9 and 257**2 > core.CHUNK_CELLS
    _, equations = P._prefix_plan
    assert max(results.size for _, _, results in equations) == 256**2 >= core.CHUNK_CELLS
    parities = sorted(tuple(bin(x & m).count("1") % 2 for x in range(P.size)) for m in range(P.size))
    homs = [h.mapping for h in core.enumerate_homs(P, z2)]
    assert homs == parities
    assert homs == oracle_homs(P, z2)


def assert_homs_match_the_oracles(A, B):
    homs = [h.mapping for h in core.enumerate_homs(A, B)]
    assert homs == oracle_homs(A, B)
    if B.size**A.size <= 4096:
        assert homs == [h.mapping for h in brute_force_homs(A, B)]


def subalgebras_of_power(A, k):
    """Every subalgebra of A^k, built on its carrier."""
    P = core.power_algebra(A, k)
    return [subcong.SubalgebraWitness(P, c).as_algebra() for c in core.subuniverse_carriers(P)]


@pytest.mark.parametrize(
    "A, B",
    [
        (zoo.cyclic_group(1), zoo.cyclic_group(3)),  # no generators: one candidate
        (core.power_algebra(load_z4aff(), 2), load_z4aff()),  # ternary, no constants
        (core.power_algebra(zoo.cyclic_group(2), 3), zoo.klein_group()),
    ],
)
def test_enumerate_homs_matches_the_equation_oracle(A, B):
    assert_homs_match_the_oracles(A, B)


HOM_FAMILIES = {
    "v4^2-z6": lambda: [(core.power_algebra(zoo.klein_group(), 2), zoo.cyclic_group(6))],
    "sub-meet2^k-meet2": lambda: [
        (B, zoo.two_element_semilattice()) for k in (1, 2, 3) for B in subalgebras_of_power(zoo.two_element_semilattice(), k)
    ],
    "sub-z4aff^2-z4aff": lambda: [(B, load_z4aff()) for B in subalgebras_of_power(load_z4aff(), 2)],
}


@pytest.mark.parametrize("family", HOM_FAMILIES.values(), ids=HOM_FAMILIES.keys())
def test_enumerate_homs_matches_the_equation_oracle_on_families(family):
    """Every B <= meet2^k (k <= 3) into meet2, every B <= z4aff^2 into z4aff, and V4^2 -> Z6."""
    for A, B in family():
        assert_homs_match_the_oracles(A, B)


@given(signatures, st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=40)
def test_pruned_hom_search_matches_the_oracles(signature, m, n, data):
    """Both directions between random algebras and every reduct, and from the square of A."""
    A, B = draw_algebra(data.draw, signature, m, "A"), draw_algebra(data.draw, signature, n, "B")
    for C, D in reducts(A, B):
        pairs = [(C, D), (D, C)] + ([(core.power_algebra(C, 2), D)] if C.size <= 3 else [])
        for X, Y in pairs:
            assert_homs_match_the_oracles(X, Y)


@pytest.mark.parametrize("family", HOM_FAMILIES.values(), ids=HOM_FAMILIES.keys())
def test_the_prefix_pass_only_drops_candidates(family, monkeypatch, count_calls):
    """With every prefix equation dropped, every image is tried, and the same homs come out."""
    for A, B in family():
        pruned = core.enumerate_homs(A, B)
        steps, _ = A._prefix_plan
        monkeypatch.setattr(A, "_prefix_plan", (steps, ()))
        calls = count_calls(core.extend_partial_map)
        assert core.enumerate_homs(A, B) == pruned
        assert len(calls) == B.size ** len(A.generating_set)
        monkeypatch.undo()


@pytest.mark.parametrize(
    "A, B, calls, homs",
    [
        (core.power_algebra(zoo.klein_group(), 2), zoo.cyclic_group(6), 48, 16),  # 1,296 unpruned
        (zoo.cyclic_group(2), zoo.cyclic_group(4), 4, 2),  # one generator: no prefix pass
        (core.power_algebra(zoo.cyclic_group(2), 4), zoo.cyclic_group(2), 16, 16),  # every prefix extends
        (zoo.cyclic_group(1), zoo.cyclic_group(3), 1, 1),  # generated by its constant
    ],
)
def test_extend_partial_map_calls_after_the_prefix_pass(A, B, calls, homs, count_calls):
    extended = count_calls(core.extend_partial_map)
    assert len(core.enumerate_homs(A, B)) == homs
    assert len(extended) == calls


def test_prefix_pass_memory_is_bounded(count_calls):
    """Hom(Z2^4, Z3^3): 27**3 prefix images in blocks, one survivor, 27 assignments.

    Without pruning the search makes 27**4 = 531,441 calls.
    """
    A = core.power_algebra(zoo.cyclic_group(2), 4)
    B = core.power_algebra(zoo.cyclic_group(3), 3)
    extended = count_calls(core.extend_partial_map)
    homs, peak = _peak_mib(lambda: core.enumerate_homs(A, B))
    assert len(homs) == 1 and len(extended) == 27
    assert peak < 6 * core.CHUNK_CELLS * 8 / 2**20, f"enumerate_homs peak {peak:.2f} MiB"


@given(algebras())
@settings(max_examples=40)
def test_congruences_match_oracle(A):
    for (C,), class_of in itertools.product(reducts(A), partitions(A.size)):
        preserved = True
        for o in C.ops:
            seen = {}
            for args in itertools.product(range(C.size), repeat=o.arity):
                key = tuple(class_of[a] for a in args)
                preserved &= seen.setdefault(key, class_of[o(*args)]) == class_of[o(*args)]
        part = core.Congruence(C.size, class_of)
        if preserved:
            assert core.verify_congruence(C, part) is part
        else:
            with pytest.raises(ValueError, match="not preserved"):
                core.verify_congruence(C, part)


@given(algebras(max_size=3), st.data())
@settings(max_examples=30)
def test_commutes_with_algebra_matches_oracle(A, data):
    n = A.size
    triples = list(itertools.product(range(n), repeat=3))
    projection = core.Operation("t", 3, n, [x for x, _, _ in triples])
    for (C,), t in itertools.product(reducts(A), (data.draw(ternary_tables(n)), projection)):
        expected = all(
            t(*(o(*(tr[i] for tr in args)) for i in range(3))) == o(*(t(*tr) for tr in args))
            for o in C.ops
            for args in itertools.product(triples, repeat=o.arity)
        )
        assert affine.commutes_with_algebra(t, C) == expected
    assert affine.commutes_with_algebra(projection, A)


@given(st.integers(1, 3), st.data())
@settings(max_examples=50)
def test_is_malcev_matches_oracle(size, data):
    t = data.draw(ternary_tables(size))
    if data.draw(st.booleans()):
        # x - y + z on Z_size, with at most one entry changed
        values = [(x - y + z) % size for x, y, z in itertools.product(range(size), repeat=3)]
        values[data.draw(st.integers(0, size**3 - 1))] = data.draw(st.integers(0, size - 1))
        t = core.Operation("t", 3, size, values)
    expected = all(t(x, y, y) == x == t(y, y, x) for x in range(size) for y in range(size))
    assert affine.is_malcev(t) == expected


def _peak_mib(f):
    tracemalloc.start()
    try:
        result = f()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 2**20


def test_lifted_term_tables_are_built_in_blocks(z4):
    """The term of Z4 lifted to Z4^3 has 262,144 cells; no step holds a full-grid temporary.

    Built from one full grid, product_operations peaks at 8.0 MiB and
    quotient_tables at 6.3 MiB (identity) and 4.3 MiB (four classes).
    """
    t = affine.find_affine_term(z4)
    t.np_table  # built once per operation, outside the measured call
    (lifted,), peak = _peak_mib(lambda: core.product_operations([core.FiniteAlgebra("t", 4, [t])] * 3))
    assert len(lifted.table) == 64**3
    assert peak < 6.0, f"product_operations peak {peak:.2f} MiB"
    P = core.FiniteAlgebra("t3", 64, [lifted])
    lifted.np_table
    four_classes = core.Congruence(64, [c // 16 for c in range(64)])
    for theta, bound in ((core.Congruence.identity(64), 5.0), (four_classes, 3.0)):
        (table,), peak = _peak_mib(lambda: core.quotient_tables(P, theta))
        assert table.size == theta.num_classes**3
        assert peak < bound, f"quotient_tables peak {peak:.2f} MiB with {theta.num_classes} classes"


def test_carrier_checks_on_ternary_algebra():
    A = load_z4aff()
    witness = subcong.SubalgebraWitness(A, (0, 2))
    sub, carrier = witness.as_algebra(), witness.carrier
    assert carrier == (0, 2) and sub.op("t").table == tuple((x - y + z) % 2 for x, y, z in itertools.product(range(2), repeat=3))
    with pytest.raises(ValueError, match="carrier not closed"):
        subcong.SubalgebraWitness(A, (0, 1, 2))
    assert len(core.enumerate_homs(core.power_algebra(A, 2), A)) == 64


@given(st.integers(1, 4), st.data())
@settings(max_examples=30)
def test_quotient_tables_match_oracle(size, data):
    t = data.draw(ternary_tables(size))
    A = core.FiniteAlgebra("t", size, [t])
    for class_of in partitions(size):
        theta = core.Congruence(size, class_of)
        quotient = {}
        descends = True
        for args in itertools.product(range(size), repeat=3):
            key = tuple(class_of[a] for a in args)
            descends &= quotient.setdefault(key, class_of[t(*args)]) == class_of[t(*args)]
        if descends:
            table = [quotient[key] for key in itertools.product(range(theta.num_classes), repeat=3)]
            assert [q.tolist() for q in core.quotient_tables(A, theta)] == [table]
        else:
            with pytest.raises(ValueError, match="not preserved by t"):
                core.quotient_tables(A, theta)


# ---------------------------------------------------------------------------
# One chunking policy: every blocked loop cuts its work through row_blocks
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src" / "adual"


@pytest.mark.parametrize("count", [0, 1, 5, 12, 13])
@pytest.mark.parametrize("width", [0, 1, 3, 4, 12, 100])
def test_row_blocks_tile_the_rows(count, width, monkeypatch):
    monkeypatch.setattr(core, "CHUNK_CELLS", 12)
    blocks = list(core.row_blocks(count, width))
    assert [i for rows in blocks for i in range(count)[rows]] == list(range(count))
    step = max(1, 12 // max(1, width))  # rows per block: at most 12 cells, one row at least
    assert [rows.stop - rows.start for rows in blocks[:-1]] == [step] * (len(blocks) - 1)
    assert all(0 < rows.stop - rows.start <= step for rows in blocks)
    assert blocks[-1].stop == count if count else blocks == []


@pytest.mark.parametrize("arity", range(4))
@pytest.mark.parametrize("n", [0, 1, 3, 5])
def test_grid_blocks_tile_the_grid(arity, n, monkeypatch):
    """Over one digit array, and over two stacked on a leading axis that passes through."""
    monkeypatch.setattr(core, "CHUNK_CELLS", 7)
    for digits in (np.arange(n) * 2, np.stack((np.arange(n) * 2, np.arange(n) % 2))):
        lead = digits.shape[:-1]
        whole = [np.broadcast_to(a, lead + (n,) * arity).reshape(lead + (-1,)) for a in core.grid_args(digits, arity)]
        covered = []
        for cells, args in core.grid_blocks(digits, arity):
            size = cells.stop - cells.start
            assert size <= 7 or size == n ** (arity - 1), "more than one row beyond CHUNK_CELLS"
            block = np.broadcast_shapes(*(a.shape for a in args)) if args else ()
            for a, full in zip(args, whole):
                assert a.shape[: len(lead)] == lead
                assert np.array_equal(np.broadcast_to(a, block).reshape(lead + (-1,)), full[..., cells])
            covered += range(n**arity)[cells]
        assert covered == list(range(n**arity))


def test_only_core_names_chunk_cells():
    """Docstrings may mention CHUNK_CELLS; code outside core.py may not name it."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        named = [
            node.lineno
            for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == "CHUNK_CELLS")
            or (isinstance(node, ast.Attribute) and node.attr == "CHUNK_CELLS")
            or (isinstance(node, ast.alias) and node.name == "CHUNK_CELLS")
        ]
        assert path.name == "core.py" or not named, f"{path.name} names CHUNK_CELLS at {named}"


def test_only_the_kernel_gathers_at_encoded_arguments():
    """No subscript outside `core.apply_coordinatewise` is indexed by a call to `encode_tuple`."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        kernel = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "apply_coordinatewise"]
        inside = {id(node) for k in kernel for node in ast.walk(k)}
        gathers = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and id(node) not in inside
            and any(
                isinstance(c, ast.Call) and "encode_tuple" in (getattr(c.func, "id", None), getattr(c.func, "attr", None))
                for c in ast.walk(node.slice)
            )
        ]
        assert not gathers, f"{path.name} gathers at encoded arguments by hand at {gathers}"


def test_no_module_level_function_is_cached():
    """No process-wide state: no function of an `adual` module carries a functools cache."""
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"adual.{path.stem}" if path.stem != "__init__" else "adual")
        cached = [name for name, value in vars(module).items() if callable(getattr(value, "cache_clear", None))]
        assert not cached, f"{path.name} caches {cached}"


def chunked_results():
    """Results of every blocked loop, on algebras built afresh so no cache carries over."""
    z2, z3, z4, z6 = (zoo.cyclic_group(n) for n in (2, 3, 4, 6))
    meet2 = zoo.two_element_semilattice()
    graph = core.graph_relation(meet2.op("meet"))
    P = core.power_algebra(z4, 2)
    t2, t4, t6 = (affine.find_affine_term(A) for A in (z2, z4, z6))
    homs = core.enumerate_homs(z4, z4)
    hk = homgroups.build_hk_group(z4, z4, t4, t4, homs[1], homs)
    listed = core.enumerate_subuniverses(core.power_algebra(z2, 3))
    partial = duality.build_alter_ego(z2, 3, relations=listed)
    # `verify_duality` takes most reports from an isomorphic B of a lower
    # power, so every B of these powers is also evaluated on its own
    evaluated = {
        f"every B of {A.name}^{k}": [
            duality.evaluate_subalgebra(subcong.SubalgebraWitness(P_k, carrier), ego, k)
            for P_k in [core.power_algebra(A, k)]
            for carrier in core.subuniverse_carriers(P_k)
        ]
        for A, k, ego in ((z3, 2, duality.build_alter_ego(z3, 4)), (z2, 3, partial))
    }
    return {
        **evaluated,
        "power tables": [o.table for o in P.ops],
        "Sub(Z4^2)": core.subuniverse_carriers(P),
        "Con(Z4^2)": core.con_lattice(P),
        "Hom(Z4^2, Z4)": core.enumerate_homs(P, z4),
        "affine term of z6": t6,
        "galois on z6": subcong.verify_galois(z6),
        "hk group on z4": (hk.elements.tolist(), hk.neutral, hk.np_add_table.tolist()),
        "duality z3 complete": duality.verify_duality(z3, k_max=2),
        "duality z2 partial": duality.verify_duality(z2, k_max=3, ego=partial),
        "reduction": entailment.reduce_to_bounded_arity(z2, t2, core.diagonal_relation(2, 3), 3),
        "refutation": entailment.refute_entailment(meet2, [core.diagonal_relation(2, 2)], graph, 2),
        "exhaustion": entailment.refute_entailment(meet2, [graph], graph, 2),
        "compatibility": [
            core.is_compatible_relation(z4, core.Relation.from_codes(codes, 4, 2))
            for codes in (range(0, 16, 5), range(0, 16, 3), range(8), range(16))
        ],
    }


def test_tiny_blocks_give_the_same_results(monkeypatch):
    """Three-cell blocks send every blocked loop through its many-block path."""
    expected = chunked_results()
    monkeypatch.setattr(core, "CHUNK_CELLS", 3)
    got = chunked_results()
    for name, value in expected.items():
        assert got[name] == value, name
