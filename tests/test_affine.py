import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adual import affine, core, zoo


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
if sys.argv[1] == "Mal'cev":  # the closure returns the graph of t(x,y,z) = x
    codes = np.arange(8)
    affine.closed_product_subset = lambda factors, seed: 2 * codes + codes // 4
else:  # the clone search derives the first projection
    affine._clone_search = lambda A, target, budget: ("proj", 0)
try:
    affine.find_affine_term(zoo.cyclic_group(2))
except core.VerificationError as e:
    print("VerificationError:", e)
"""


@pytest.mark.parametrize("corruption", ["Mal'cev", "derivation"])
def test_affine_term_checks_run_under_optimize(corruption):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_OPTIMIZE, corruption],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("VerificationError:") and corruption in done.stdout, done.stdout
