"""Array-backed relations, operations and certificate rules against tuple oracles.

`core.Relation` keeps only the sorted int64 codes of its tuples and
`core.Operation` only its int64 table; the certificate rules and the
relation builders work on those arrays.  Each is checked here against the
tuple loop it replaced, kept below as an oracle.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adual import affine, cli, core, entailment as ent, textio, zoo

from test_golden import data

# ---------------------------------------------------------------------------
# Oracles: the tuple code the arrays replaced
# ---------------------------------------------------------------------------


def oracle_relation(arity, base_size, tuples):
    """Sorted distinct tuples, validated one tuple at a time."""
    if arity < 1:
        raise ValueError("relation arity must be >= 1")
    tuples = tuple(sorted(set(tuple(int(v) for v in t) for t in tuples)))
    if not tuples:
        raise ValueError("empty relation rejected")
    for t in tuples:
        if len(t) != arity:
            raise ValueError(f"tuple {t} does not have arity {arity}")
        if any(not 0 <= v < base_size for v in t):
            raise ValueError(f"tuple {t} outside universe of size {base_size}")
    return tuples


def oracle_operation(name, arity, base_size, table):
    """The validated table as a tuple of ints."""
    table = tuple(map(int, table))
    if len(table) != base_size**arity:
        raise ValueError(
            f"operation {name}: table has {len(table)} entries, "
            f"expected {base_size}**{arity} = {base_size ** arity}"
        )
    bad = next((v for v in table if not 0 <= v < base_size), None)
    if bad is not None:
        raise ValueError(f"operation {name}: table value {bad} outside universe")
    return table


def oracle_term(term, cert, ops, args):
    if isinstance(term, affine.AffineTerm):
        return affine.eval_affine_combination(term, cert.term_op, cert.neutral, args)

    def walk(e):
        if e[0] == "proj":
            return args[e[1]]
        name, children = e
        return ops[name](*(walk(c) for c in children))

    return walk(term.expr)


def oracle_eval(node, cert):
    """A derivation node as sorted tuples (a relation) or a table (an operation)."""
    if isinstance(node, ent.Premise):
        return node.value.tuples
    if isinstance(node, ent.Intersection):
        values = [oracle_eval(c, cert) for c in node.children]
        common = set(values[0])
        for v in values[1:]:
            common &= set(v)
        return oracle_relation(node.arity, node.base_size, common)
    if isinstance(node, ent.TermPreimage):
        R = set(oracle_eval(node.child, cert))
        base, n = cert.conclusion.base_size, node.terms[0].arity
        ops = cert.ops_by_name()
        kept = []
        for args in itertools.product(range(base), repeat=n):
            image = tuple(oracle_term(t, cert, ops, args) for t in node.terms)
            if image in R:
                kept.append(args)
        return oracle_relation(n, base, kept)
    if isinstance(node, ent.StripPadding):
        S = oracle_eval(node.child, cert)
        for t in S:
            if t[-1] != t[-2]:
                raise ValueError(f"tuple {t} does not duplicate its last coordinate")
        return oracle_relation(len(S[0]) - 1, cert.conclusion.base_size, [t[:-1] for t in S])
    if isinstance(node, ent.GraphToOperation):
        G = oracle_eval(node.child, cert)
        base, arity = cert.conclusion.base_size, len(G[0]) - 1
        if len(G) != base**arity:
            raise ValueError("relation is not the graph of a total operation")
        table = {}
        for t in G:
            if t[:-1] in table:
                raise ValueError(f"relation is not functional at {t[:-1]}")
            table[t[:-1]] = t[-1]
        return tuple(table[args] for args in itertools.product(range(base), repeat=arity))
    raise TypeError(node)


def oracle_pad(tuples, arity):
    return tuple(t + (t[-1],) * (arity - len(t)) for t in tuples)


def oracle_graph(op):
    n = op.base_size
    return tuple(args + (op(*args),) for args in itertools.product(range(n), repeat=op.arity))


def outcome(f, *args):
    """f(*args), or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as e:
        return ("error", str(e))


def replayed(node, cert):
    value = ent.replay_certificate(cert)
    return value.tuples if isinstance(value, core.Relation) else value.table


# ---------------------------------------------------------------------------
# Relation
# ---------------------------------------------------------------------------


@st.composite
def relation_rows(draw, base, arity, valid=True):
    values = st.integers(0, base - 1) if valid else st.integers(-1, base)
    lengths = st.just(arity) if valid else st.sampled_from([arity, arity, arity, arity - 1, arity + 1])
    return draw(st.lists(lengths.flatmap(lambda k: st.tuples(*[values] * k)), max_size=8))


def _kind(message):
    return re.sub(r"^tuple \(.*?\) ", "tuple ", message)


@given(st.integers(1, 4), st.integers(1, 3), st.data())
@settings(max_examples=150)
def test_relation_construction_matches_oracle(base, arity, data):
    rows = data.draw(relation_rows(base, arity, valid=data.draw(st.booleans())))
    expected = outcome(oracle_relation, arity, base, rows)
    got = outcome(core.Relation, arity, base, rows)
    if isinstance(expected, tuple) and expected[:1] == ("error",):
        assert isinstance(got, tuple) and got[0] == "error"
        only_range = all(len(t) == arity for t in rows)
        only_arity = all(0 <= v < base for t in rows for v in t)
        if only_range or only_arity:
            assert _kind(got[1]) == _kind(expected[1])
        return
    R = got
    assert "tuples" not in vars(R) and "_set" not in vars(R)  # nothing decoded yet
    codes = R.codes()
    assert codes.dtype == np.int64 and not codes.flags.writeable
    assert codes.tolist() == [core.encode_tuple(t, base) for t in expected]
    assert R.tuples == expected and all(type(v) is int for t in R.tuples for v in t)
    assert len(R) == len(expected)
    for t in itertools.product(range(-1, base + 1), repeat=arity):
        assert (t in R) == (t in set(expected))
    assert (tuple(range(arity + 1)) in R) is False


@given(st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=100)
def test_relation_equality_and_hash_match_tuple_sets(base, arity, data):
    rows1 = data.draw(relation_rows(base, arity).filter(bool))
    rows2 = data.draw(st.one_of(st.just(list(reversed(rows1))), relation_rows(base, arity).filter(bool)))
    R1, R2 = core.Relation(arity, base, rows1), core.Relation(arity, base, rows2)
    assert (R1 == R2) == (set(rows1) == set(rows2))
    if R1 == R2:
        assert hash(R1) == hash(R2)
    same = core.Relation.from_codes(R1.codes(), base, arity)
    assert same == R1 and hash(same) == hash(R1)
    assert R1 != core.Relation.from_codes(R1.codes(), base + 1, arity)
    assert R1 != R1.codes()


def test_relation_codes_must_fit_int64(z2):
    """Codes of arity 65 over two elements reach 2**64 and wrapped to 0 in int64."""
    with pytest.raises(ValueError, match=r"2\*\*63"):
        core.Relation(65, 2, [(1,) + (0,) * 64])
    with pytest.raises(ValueError, match=r"2\*\*63"):
        core.Relation(64, 2, [(1,) + (0,) * 63])
    with pytest.raises(ValueError, match=r"2\*\*63"):
        core.Relation.from_codes([0], 2, 65)
    R = core.Relation(63, 2, [(1,) + (0,) * 62])  # codes below 2**63 still fit
    assert not core.is_compatible_relation(z2, R)


def test_entail_exits_2_on_a_relation_whose_codes_overflow(capsys, tmp_path):
    rel = tmp_path / "big.rel"
    rel.write_text("relation big 65 over z2\nt 1" + " 0" * 64 + "\n")
    assert cli.main(["entail", data("z2"), str(rel)]) == 2
    assert "2**63" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Operation
# ---------------------------------------------------------------------------


@given(st.integers(1, 4), st.integers(0, 3), st.data())
@settings(max_examples=150)
def test_operation_matches_oracle_from_list_tuple_and_array(base, arity, data):
    cells = base**arity
    length = data.draw(st.sampled_from([cells, cells, cells, max(0, cells - 1), cells + 1]))
    values = st.integers(0, base - 1) | st.sampled_from([-1, base, 10**20])
    table = data.draw(st.lists(values if data.draw(st.booleans()) else st.integers(0, base - 1),
                               min_size=length, max_size=length))
    expected = outcome(oracle_operation, "f", arity, base, table)
    forms = [list(table), tuple(table)]
    if all(abs(v) < 2**63 for v in table):
        forms.append(np.array(table, dtype=np.int64))
    ops = [outcome(core.Operation, "f", arity, base, form) for form in forms]
    if isinstance(expected, tuple) and expected[:1] == ("error",):
        assert all(got == expected for got in ops)
        return
    for o in ops:
        assert o.table == expected and all(type(v) is int for v in o.table)
        assert o.np_table.dtype == np.int64 and not o.np_table.flags.writeable
        assert o.np_table.tolist() == list(expected)
        assert o == ops[0] and hash(o) == hash(ops[0])
        assert not hasattr(o, "_np") and "table" in vars(o)  # built by the check above
    other = [(v + 1) % base for v in expected]
    assert (core.Operation("f", arity, base, other) == ops[0]) == (tuple(other) == expected)
    assert core.Operation("g", arity, base, table) != ops[0]


def test_operation_from_a_table_array_keeps_its_own_copy():
    table = np.array([0, 1, 1, 0])
    o = core.Operation("f", 2, 2, table)
    table[0] = 1
    assert o.table == (0, 1, 1, 0) and o(0, 0) == 0


def test_parsers_reject_values_beyond_int64(capsys, tmp_path):
    alg = tmp_path / "big.alg"
    alg.write_text("algebra x\nsize 2\nop f 1\n0 100000000000000000000\n")
    with pytest.raises(core.ParseError, match="table value 100000000000000000000 outside universe"):
        textio.parse_document(alg.read_text())
    assert cli.main(["bound", str(alg)]) == 2
    assert "outside universe" in capsys.readouterr().err

    rel = tmp_path / "big.rel"
    rel.write_text("relation r 2 over z2\nt 0 100000000000000000000\n")
    with pytest.raises(core.ParseError, match=r"tuple \(0, 100000000000000000000\) outside universe"):
        textio.parse_document(rel.read_text(), doc=textio.Document(algebras={"z2": zoo.cyclic_group(2)}))
    assert cli.main(["entail", data("z2"), str(rel)]) == 2
    assert "outside universe" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Certificate rules and relation builders
# ---------------------------------------------------------------------------


AFFINE = {A.name: A for A in (zoo.cyclic_group(2), zoo.cyclic_group(3), zoo.cyclic_group(4), zoo.klein_group())}
TERMS = {name: affine.find_affine_term(A) for name, A in AFFINE.items()}


def certificate(A, node, extra_ops=()):
    conclusion = core.Relation(1, A.size, [(0,)])  # fixes the base of the oracle
    return ent.EntailmentCertificate(
        conclusion=conclusion, premises=(), derivation=node, term_op=TERMS[A.name], extra_ops=A.ops + extra_ops
    )


def relation(draw, A, arity):
    return core.Relation(arity, A.size, draw(relation_rows(A.size, arity).filter(bool)))


@st.composite
def affine_terms(draw, arity):
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=arity - 1, max_size=arity - 1))
    return affine.AffineTerm(tuple(coeffs) + (1 - sum(coeffs),))


def term_trees(arity, depth=3):
    """Trees over add, neg, zero and a binary f that need not commute."""
    leaf = st.integers(0, arity - 1).map(lambda i: ("proj", i))
    if depth == 0:
        return leaf
    child = term_trees(arity, depth - 1)
    return st.one_of(
        leaf,
        st.tuples(child, child).map(lambda c: ("add", c)),
        st.tuples(child, child).map(lambda c: ("f", c)),
        child.map(lambda c: ("neg", (c,))),
        st.just(("zero", ())),
    )


def check(A, node, extra_ops=()):
    cert = certificate(A, node, extra_ops)
    expected = outcome(oracle_eval, node, cert)
    got = outcome(replayed, node, cert)
    assert got == expected


@given(st.sampled_from(sorted(AFFINE)), st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=80)
def test_intersection_matches_oracle(name, arity, count, data):
    A = AFFINE[name]
    family = [ent.Premise(relation(data.draw, A, arity)) for _ in range(count)]
    check(A, ent.Intersection(A.size, arity, tuple(family)))


@given(st.sampled_from(sorted(AFFINE)), st.integers(1, 3), st.integers(1, 3), st.booleans(), st.data())
@settings(max_examples=120)
def test_term_preimage_matches_oracle_with_both_term_kinds(name, arity, n, trees, data):
    A = AFFINE[name]
    R = relation(data.draw, A, arity)
    table = data.draw(st.lists(st.integers(0, A.size - 1), min_size=A.size**2, max_size=A.size**2))
    if trees:
        terms = [ent.TermTree(n, data.draw(term_trees(n))) for _ in range(arity)]
    else:
        terms = [data.draw(affine_terms(n)) for _ in range(arity)]
    check(A, ent.TermPreimage(tuple(terms), ent.Premise(R)), (core.Operation("f", 2, A.size, table),))


@given(st.sampled_from(sorted(AFFINE)), st.integers(1, 3), st.booleans(), st.data())
@settings(max_examples=80)
def test_strip_padding_matches_oracle(name, arity, padded, data):
    A = AFFINE[name]
    R = relation(data.draw, A, arity + 1)
    if padded:
        R = ent.pad_relation(relation(data.draw, A, arity), arity + 1)
    check(A, ent.StripPadding(ent.Premise(R)))


@given(st.sampled_from(sorted(AFFINE)), st.integers(1, 2), st.data())
@settings(max_examples=80)
def test_graph_to_operation_matches_oracle(name, arity, data):
    A = AFFINE[name]
    n = A.size
    table = data.draw(st.lists(st.integers(0, n - 1), min_size=n**arity, max_size=n**arity))
    graph = core.graph_relation(core.Operation("f", arity, n, table))
    rows = data.draw(st.sampled_from(["graph", "random", "extra"]))
    if rows == "random":
        graph = relation(data.draw, A, arity + 1)
    elif rows == "extra":
        extra = data.draw(st.tuples(*[st.integers(0, n - 1)] * (arity + 1)))
        graph = core.Relation(arity + 1, n, graph.tuples[1:] + (extra,))
    check(A, ent.GraphToOperation(ent.Premise(graph), name="f"))


@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2), st.data())
@settings(max_examples=80)
def test_relation_builders_match_oracles(base, arity, extra, data):
    R = core.Relation(arity, base, data.draw(relation_rows(base, arity).filter(bool)))
    assert ent.pad_relation(R, arity + extra).tuples == oracle_pad(R.tuples, arity + extra)
    assert core.full_relation(base, arity).tuples == tuple(itertools.product(range(base), repeat=arity))
    assert core.diagonal_relation(base, arity).tuples == tuple((x,) * arity for x in range(base))
    table = data.draw(st.lists(st.integers(0, base - 1), min_size=base**extra, max_size=base**extra))
    op = core.Operation("f", extra, base, table)
    assert core.graph_relation(op).tuples == oracle_graph(op)
