import itertools
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adual import affine, core, textio, zoo


def modular_term_table(n):
    return tuple(
        (x - y + z) % n
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


def klein_term_table():
    # codes 2a + b, addition is componentwise xor
    return tuple(
        x ^ y ^ z for x in range(4) for y in range(4) for z in range(4)
    )


def test_cyclic_groups_get_x_minus_y_plus_z(z2, z3, z4, z6):
    for A in (z2, z3, z4, z6):
        t = affine.find_affine_term(A)
        assert t is not None
        assert t.table == modular_term_table(A.size)


def test_klein_group_term(v4):
    t = affine.find_affine_term(v4)
    assert t is not None
    assert t.table == klein_term_table()


def test_non_affine_algebras(semilattice, s3):
    assert affine.find_affine_term(semilattice) is None
    assert affine.find_affine_term(s3) is None


def test_set_with_no_operations_has_no_affine_term():
    bare = core.FiniteAlgebra("bare", 2, [])
    assert affine.find_affine_term(bare) is None


def test_malcev_identities_hold(terms):
    for name, t in terms.items():
        n = t.base_size
        for x in range(n):
            for y in range(n):
                assert t(x, y, y) == x
                assert t(y, y, x) == x


def test_compatibility_with_every_basic_operation(z6, terms):
    t = terms["z6"]
    for o in z6.ops:
        if o.arity != 2:
            continue
        for xs in itertools.product(range(6), repeat=2):
            for ys in itertools.product(range(6), repeat=2):
                for zs in itertools.product(range(6), repeat=2):
                    lhs = t(o(*xs), o(*ys), o(*zs))
                    rhs = o(*(t(xs[i], ys[i], zs[i]) for i in range(2)))
                    assert lhs == rhs


def test_unique_affine_element_by_exhaustive_clone_scan(z2, z3, v4):
    # the full ternary clone is the oracle here: exactly one element passes
    # both the Mal'cev identities and compatibility, and it is the one found
    for A in (z2, z3, v4):
        clone = affine.ternary_term_clone(A)
        hits = [
            tab
            for tab in clone
            if affine.is_malcev(core.Operation("t", 3, A.size, tab))
            and affine.commutes_with_algebra(core.Operation("t", 3, A.size, tab), A)
        ]
        assert hits == [affine.find_affine_term(A).table]


BUDGETS = (10**6, 5000, 300)


def oracle_outcomes(A):
    """The affine term's table, None or the refused count at each of BUDGETS.

    This is the three-stage search `find_affine_term` had before: the
    Mal'cev graph is closed in A^4, checked by `commutes_with_algebra`, and
    derived in the ternary term clone.  The closure does not read the
    budget, so it runs once.  One step is added: a candidate that commutes
    with A but not with itself is no term of A, since every term commutes
    with it, so the answer is None without the clone search, which could
    only give None or be refused.
    """
    n = A.size
    x, y = core.decode_code(np.arange(n * n), [n, n])
    seed = np.concatenate([core.encode_tuple((x, y, y, x), n), core.encode_tuple((y, y, x, x), n)])
    graph = core.closed_product_subset(A, 4, seed)
    prefixes = np.unique(graph // n)
    candidate = None
    if prefixes.size == n**3 and graph.size == prefixes.size:
        table = np.zeros(n**3, dtype=np.int64)
        table[graph // n] = graph % n
        candidate = core.Operation("t", 3, n, table)
        assert affine.is_malcev(candidate) and affine.commutes_with_algebra(candidate, A)
        if not affine.commutes_with_algebra(candidate, core.FiniteAlgebra("T", n, [candidate])):
            candidate = None
    outcomes = []
    for budget in BUDGETS:
        try:
            if n**4 > budget:
                raise core.BudgetExceededError(n**4, budget)
            found = candidate and affine._clone_search(A, candidate.table, budget)
            outcomes.append(candidate.table if found else None)
        except core.BudgetExceededError as e:
            outcomes.append(("refused", e.count))
    return outcomes


def search_outcomes(A):
    """`oracle_outcomes` for `find_affine_term`."""
    outcomes = []
    for budget in BUDGETS:
        try:
            t = affine.find_affine_term(A, budget)
            outcomes.append(None if t is None else t.table)
        except core.BudgetExceededError as e:
            outcomes.append(("refused", e.count))
    return outcomes


def assert_search_matches_oracle(A):
    assert search_outcomes(A) == oracle_outcomes(A), A


@st.composite
def small_algebras(draw):
    """Algebras of 1-4 elements with up to three operations of arity 0-3.

    Ternary operations are drawn on at most three elements: on four, the
    oracle's closure in A^4 takes over a second per algebra.
    """
    n = draw(st.integers(1, 4))
    ops = []
    for i, arity in enumerate(draw(st.lists(st.integers(0, 3 if n < 4 else 2), max_size=3))):
        table = draw(st.lists(st.integers(0, n - 1), min_size=n**arity, max_size=n**arity))
        ops.append(core.Operation(f"o{i}", arity, n, table))
    return core.FiniteAlgebra("h", n, ops)


@settings(max_examples=60)
@given(small_algebras())
def test_search_matches_the_oracle_on_every_reduct(A):
    for r in range(len(A.ops) + 1):
        for ops in itertools.combinations(A.ops, r):
            assert_search_matches_oracle(core.FiniteAlgebra(A.name, A.size, list(ops)))


@st.composite
def affine_binary_algebras(draw):
    """Operations a*x + b*y + c over Z_n, or over Z2^2 with 2x2 matrices a and b.

    Some also get one operation with a random table, which the Mal'cev
    table need not commute with.
    """
    klein = draw(st.booleans())
    n = 4 if klein else draw(st.integers(2, 5))
    if klein:  # codes 2*u + v, vectors (u, v), addition is xor
        vec = [(x >> 1, x & 1) for x in range(4)]

        def endo():
            m = draw(st.lists(st.integers(0, 1), min_size=4, max_size=4))
            row = lambda i, x: (m[2 * i] * vec[x][0] + m[2 * i + 1] * vec[x][1]) % 2
            return lambda x: 2 * row(0, x) + row(1, x)

        plus = lambda x, y: x ^ y
    else:

        def endo():
            a = draw(st.integers(0, n - 1))
            return lambda x: a * x % n

        plus = lambda x, y: (x + y) % n
    ops = []
    for i in range(draw(st.integers(1, 3))):
        a, b, c = endo(), endo(), draw(st.integers(0, n - 1))
        table = [plus(plus(a(x), b(y)), c) for x in range(n) for y in range(n)]
        ops.append(core.Operation(f"o{i}", 2, n, table))
    if draw(st.booleans()):
        arity = draw(st.integers(1, 2))
        table = draw(st.lists(st.integers(0, n - 1), min_size=n**arity, max_size=n**arity))
        ops.append(core.Operation("r", arity, n, table))
    return core.FiniteAlgebra("aff", n, ops)


@settings(max_examples=60)
@given(affine_binary_algebras())
def test_search_matches_the_oracle_on_affine_operations(A):
    # The clone search, the same code in both, takes seconds on some of these
    # algebras.  Both searches reach it with the same target and budget
    # exactly when they agree before it, so here it is recorded and answers
    # None, and the calls are compared with the outcomes.
    calls = []

    def recorded(B, target, budget):
        calls.append((target, budget))

    with mock.patch.object(affine, "_clone_search", recorded):
        got, got_calls = search_outcomes(A), calls[:]
        calls.clear()
        assert (got, got_calls) == (oracle_outcomes(A), calls), A


def test_search_matches_the_oracle_on_zoo_and_data_algebras():
    algebras = [zoo.cyclic_group(n) for n in range(1, 7)]
    algebras += [zoo.klein_group(), zoo.two_element_semilattice(), zoo.symmetric_group_3()]
    algebras += [zoo.direct_product(zoo.cyclic_group(2), zoo.cyclic_group(3))]
    for path in sorted((Path(__file__).resolve().parents[1] / "data").glob("*.alg")):
        algebras += textio.parse_document(path.read_text()).algebras.values()
    for A in algebras:
        assert_search_matches_oracle(A)


@pytest.fixture()
def kernel_cells(monkeypatch):
    """A list that gets the number of A^4 elements each kernel call of the closure gives.

    The closure calls the kernel on stacked digits, four per element of A^4.
    """
    cells = []
    kernel = core.apply_coordinatewise

    def counted(table, size, args):
        out = kernel(table, size, args)
        cells.append(np.size(out) // 4)
        return out

    monkeypatch.setattr(core, "apply_coordinatewise", counted)
    return cells


def test_a_conflict_stops_the_search_on_s3(kernel_cells, s3):
    assert affine.find_affine_term(s3) is None
    assert 0 < sum(kernel_cells) < 10_000  # closing the Mal'cev graph in A^4 took 596,449


def test_the_forced_table_stops_once_total(kernel_cells, z6):
    # The identities fix 66 triples, and one round from them applies add at
    # two positions to 66 x 66 pairs and neg to 66.  The table is total
    # before that round ends.
    assert affine._malcev_table(z6).tolist() == list(modular_term_table(6))
    assert 0 < sum(kernel_cells) < 2 * 66 * 66 + 66


def test_clone_budget_failure(s3):
    with pytest.raises(core.BudgetExceededError):
        affine.find_affine_term(s3, budget=100)


def _ternary(f, n):
    """The table of the ternary map f over {0..n-1}."""
    return tuple(f(*xyz) for xyz in itertools.product(range(n), repeat=3))


def test_clone_search_returns_projections_and_constants_at_once(z2, z3):
    for i in range(3):
        target = _ternary(lambda *xyz: xyz[i], 2)
        assert affine._clone_search(z2, target, core.DEFAULT_BUDGET) == ("proj", i)
    # in Z3 no sum or negation of projections is constant, so zero is first
    # met when the constants are emitted (in Z2, x + x reaches it before)
    assert affine._clone_search(z3, (0,) * 27, core.DEFAULT_BUDGET) == ("zero", ())


def test_clone_search_exhausts_the_clone_without_the_target(semilattice):
    join = _ternary(lambda x, y, z: max(x, y), 2)
    assert affine._clone_search(semilattice, join, core.DEFAULT_BUDGET) is None


def test_ternary_clone_refused_by_the_budget(z3):
    with pytest.raises(core.BudgetExceededError, match="ternary term clone too large"):
        affine.ternary_term_clone(z3, budget=27 * 4)


def test_no_affine_term_when_the_clone_misses_the_candidate(z2, monkeypatch):
    monkeypatch.setattr(affine, "_clone_search", lambda A, target, budget: None)
    assert affine.find_affine_term(z2) is None


def test_the_clone_stage_decides_on_v4_with_one_binary_operation():
    # The forced table on <V4; o> is total, Mal'cev, and commutes with o and
    # with itself, so only the clone search can refuse it: the ternary clone
    # of o has 192 members, none of them x - y + z.
    A = v4o()
    table = affine._malcev_table(A)
    assert table is not None and (table >= 0).all()
    t = core.Operation("t", 3, 4, table)
    assert affine.is_malcev(t) and affine.operation_parts(t, A) is not None
    assert affine.commutes_with_algebra(t, A)
    clone = affine.ternary_term_clone(A)
    assert len(clone) == 192 and t.table not in clone
    assert affine.find_affine_term(A) is None


def oracle_clone_search(A, target, budget):
    """`affine._clone_search` as one Python loop: one table per argument tuple.

    Each level takes the members known at its start as `current`; every
    operation, in name order, is applied to every tuple with one frontier
    member `a` at each position and the rest from `current`, in
    `itertools.product` order, and each table keeps the first derivation
    met.
    """
    n = A.size
    cells = n**3
    max_elements = max(3, budget // cells)
    triples = list(itertools.product(range(n), repeat=3))
    projections = [tuple(tr[i] for tr in triples) for i in range(3)]
    seen = {}
    order = []
    for i, p in enumerate(projections):
        if p not in seen:
            seen[p] = ("proj", i)
            order.append(p)
    if target is not None and target in seen:
        return seen[target]
    arrays = {p: np.array(p, dtype=np.int64) for p in order}
    frontier = list(order)
    while frontier:
        current = list(order)
        fresh = []

        def emit(tab, name, args):
            if tab not in seen:
                seen[tab] = (name, tuple(seen[x] for x in args))
                arrays[tab] = np.array(tab, dtype=np.int64)
                order.append(tab)
                fresh.append(tab)
                if len(seen) > max_elements:
                    raise core.BudgetExceededError(len(seen) * cells, budget, hint="ternary term clone too large")
                return tab == target
            return False

        for o in A.ops:
            if o.arity == 0:
                if emit((o.table[0],) * cells, o.name, ()):
                    return seen[target]
                continue
            for a in frontier:
                for rest in itertools.product(current, repeat=o.arity - 1):
                    for pos in range(o.arity):
                        args = rest[:pos] + (a,) + rest[pos:]
                        tab = o.np_table[core.encode_tuple([arrays[x] for x in args], n)]
                        if emit(tuple(tab.tolist()), o.name, args):
                            return seen[target]
        frontier = fresh
    if target is None:
        return dict(seen)
    return None


def _attempt(search, A, target, budget):
    """What `search` gives: the clone's items in order, a derivation, None or the refusal."""
    try:
        found = search(A, target, budget)
    except core.BudgetExceededError as e:
        return ("refused", e.count, str(e))
    return list(found.items()) if isinstance(found, dict) else found


def clone_outcomes(search, A, budgets=BUDGETS):
    """The full clone and the derivation of each of a few targets, at each budget.

    The targets are the forced Mal'cev table when it is total, the zero
    table, and the middle and last members of the clone when it is not
    refused, so one target is met only at the end of the search.
    """
    n = A.size
    targets = [(0,) * n**3]
    table = affine._malcev_table(A)
    if table is not None:
        targets.append(tuple(table.tolist()))
    outcomes = []
    for budget in budgets:
        clone = _attempt(search, A, None, budget)
        outcomes.append(clone)
        extra = [] if clone[0] == "refused" else [clone[len(clone) // 2][0], clone[-1][0]]
        outcomes += [_attempt(search, A, target, budget) for target in targets + extra]
    return outcomes


def assert_clone_search_matches_the_loop(A, budgets=BUDGETS):
    assert clone_outcomes(affine._clone_search, A, budgets) == clone_outcomes(oracle_clone_search, A, budgets), A


def v4o():
    """V4 with one binary operation, whose ternary clone has 192 members."""
    o = core.Operation("o", 2, 4, [0, 3, 2, 1, 3, 0, 1, 2, 0, 3, 2, 1, 3, 0, 1, 2])
    return core.FiniteAlgebra("v4o", 4, [o])


def test_clone_search_matches_the_loop_on_zoo_and_data_algebras():
    algebras = [zoo.cyclic_group(n) for n in range(1, 7)]
    algebras += [zoo.klein_group(), zoo.two_element_semilattice(), zoo.symmetric_group_3(), v4o()]
    for path in sorted((Path(__file__).resolve().parents[1] / "data").glob("*.alg")):
        algebras += textio.parse_document(path.read_text()).algebras.values()
    for A in algebras:
        assert_clone_search_matches_the_loop(A)


@settings(max_examples=60)
@given(small_algebras())
def test_clone_search_matches_the_loop_on_small_algebras(A):
    # Budgets of 3, 10 and 40 members, and 108 cells.  At BUDGETS the loop
    # would take minutes on some two-element algebras with one ternary
    # operation: the 256-member clone of (x, y, z) -> 1 - xy takes it 130 s.
    assert_clone_search_matches_the_loop(A, [m * A.size**3 for m in (3, 10, 40)] + [108])


@pytest.mark.parametrize("chunk", [64, 1000])
def test_clone_blocks_bound_the_memory(monkeypatch, chunk):
    # v4o's clone is 192 tables of 64 cells and its operation is binary, so
    # CHUNK_CELLS = 64 makes one block per argument tuple.
    A, cells = v4o(), 4**3
    last = list(affine.ternary_term_clone(A))[-1]

    def outcomes():
        return [_attempt(affine._clone_search, A, target, budget) for target, budget in cases]

    cases = [(None, core.DEFAULT_BUDGET), (last, core.DEFAULT_BUDGET), (None, 64 * 100)]
    expected = outcomes()
    blocks = []

    def recorded(count, width):
        assert width == 4 * cells  # both argument rows of a tuple, their codes and the result
        for rows in core.row_blocks(count, width):
            blocks.append(rows.stop - rows.start)
            yield rows

    monkeypatch.setattr(core, "CHUNK_CELLS", chunk)
    monkeypatch.setattr(affine, "row_blocks", recorded)
    assert outcomes() == expected
    assert all(size * cells <= chunk or size == 1 for size in blocks)
    assert max(blocks) == max(1, chunk // (4 * cells)) and len(blocks) > 100


def test_the_clone_refusal_point_is_pinned():
    # The budget holds 100 members of 64 cells, and the 101st is refused.
    A = v4o()
    clone = list(affine.ternary_term_clone(A))
    assert len(clone) == 192
    with pytest.raises(core.BudgetExceededError, match="ternary term clone too large") as refused:
        affine.ternary_term_clone(A, budget=64 * 100)
    assert refused.value.count == 101 * 64
    derivation = affine._clone_search(A, clone[99], core.DEFAULT_BUDGET)
    assert affine._clone_search(A, clone[99], 64 * 100) == derivation
    with pytest.raises(core.BudgetExceededError) as refused:
        affine._clone_search(A, clone[100], 64 * 100)
    assert refused.value.count == 101 * 64


def test_group_from_affine(z4, terms):
    t = terms["z4"]
    G0 = affine.group_from_affine(t, 0)
    assert G0.neutral == 0
    assert G0.add_table == z4.op("add").table
    assert G0.as_algebra("g").op("neg").table == z4.op("neg").table
    assert G0.exponent == 4
    # any other neutral gives an isomorphic group with that neutral
    for c in range(4):
        G = affine.group_from_affine(t, c)
        assert G.neutral == c
        assert sorted(G.orders) == [1, 2, 4, 4]


def test_group_from_affine_rejects_non_affine_tables():
    # a projection is Mal'cev in one identity only; axioms must fail
    n = 2
    table = tuple(x for x in range(n) for _ in range(n) for _ in range(n))
    bad = core.Operation("t", 3, n, table)
    with pytest.raises(affine.AffineStructureError):
        affine.group_from_affine(bad, 0)


def test_affine_term_coefficients_validated():
    with pytest.raises(ValueError):
        affine.AffineTerm((1, 1))
    assert affine.AffineTerm((3, -1, -1)).arity == 3


def test_eval_affine_combination_examples(z4, terms):
    t = terms["z4"]
    proj = affine.AffineTerm((1, 0, 0))
    assert affine.eval_affine_combination(proj, t, 0, (3, 1, 2)) == 3
    malcev = affine.AffineTerm((1, -1, 1))
    for args in itertools.product(range(4), repeat=3):
        assert affine.eval_affine_combination(malcev, t, 0, args) == t(*args)
    combo = affine.AffineTerm((3, -1, -1))
    assert affine.eval_affine_combination(combo, t, 0, (1, 2, 3)) == 2


@settings(max_examples=50)
@given(
    data=st.tuples(
        st.lists(st.integers(-6, 6), min_size=1, max_size=4),
        st.lists(st.integers(0, 5), min_size=4, max_size=4),
    )
)
def test_eval_independent_of_neutral(data, terms):
    coeffs, args = data
    coeffs = coeffs + [1 - sum(coeffs)]
    term = affine.AffineTerm(tuple(coeffs))
    t = terms["z6"]
    args = tuple(args[: term.arity]) + (0,) * max(0, term.arity - len(args))
    values = {
        affine.eval_affine_combination(term, t, c, args[: term.arity]) for c in range(6)
    }
    assert len(values) == 1


def test_term_table_array_is_built_once(z2):
    t = affine.find_affine_term(core.power_algebra(z2, 2))
    table = t.np_table
    assert t.np_table is table and not table.flags.writeable
    assert table.tolist() == list(t.table)
    fresh = core.Operation("t", 3, t.base_size, t.table)
    assert fresh == t and hash(fresh) == hash(t)
    assert fresh.np_table is not table and fresh == t and hash(fresh) == hash(t)


_UNDER_OPTIMIZE = """
import sys

import numpy as np

from adual import affine, core, zoo

if __debug__ or not sys.flags.optimize:
    sys.exit("not running under -O")
if sys.argv[1] == "Mal'cev":  # the forced table is that of t(x,y,z) = x
    affine._malcev_table = lambda A: np.repeat(np.arange(A.size), A.size**2)
else:  # the clone search derives the first projection
    affine._clone_search = lambda A, target, budget: ("proj", 0)
try:
    affine.find_affine_term(zoo.cyclic_group(2))
except core.VerificationError as e:
    print("VerificationError:", e)
"""


@pytest.mark.parametrize("corruption", ["Mal'cev", "derivation"])
def test_affine_term_checks_run_under_optimize(under_optimize, corruption):
    out = under_optimize(_UNDER_OPTIMIZE, corruption)
    assert out.startswith("VerificationError:") and corruption in out, out
