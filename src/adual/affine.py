"""Affine structure: Mal'cev term discovery and integer-coefficient term evaluation.

A finite algebra is affine when its term clone contains a ternary operation t
with t(x,y,y) = t(y,y,x) = x that commutes with every basic operation; all
Abelian group structures x +^c y = t(x,c,y) derived from such a t share the
same term map, and integer combinations sum(u_k * x_k) with sum(u_k) = 1 are
again terms.

The term is a core `Operation` named t, of arity 3.  `find_affine_term`
grows the table that the Mal'cev identities force on A^3 until it is total
or breaks, checks that it commutes with itself and with A, in O(|A|^3)
plus the size of each operation's table, and derives it in the ternary
term clone.  That check, `operation_parts`, also gives each operation as
a sum of endomorphisms plus a constant, which `duality.affine_gcd` reads.
The ternary term clone is generated breadth first: a level applies each
operation to its argument tuples in `row_blocks`, gathering a block's
argument rows from the table of members at once, and keeps the first
derivation met for each table.
An affine algebra has exactly one affine term, so the term of a quotient
is found on the quotient itself, and no table of t on a power is built.
Each group x +^c y is an `AbelianGroup`, the one group type of the
package, whose construction is the one check of the Abelian group axioms.
A group keeps its addition table once, as a read-only int64 array, and
one table of multiples (row m holds m * x) that gives orders, the
exponent and k * x.  `affine_combination_array` sums its terms with
gathers over these two tables, in a group its caller builds; no group is
cached.  Tables are read at encoded arguments by `core.apply_coordinatewise`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    FiniteAlgebra,
    Operation,
    VerificationError,
    _int_array,
    apply_coordinatewise,
    closure_blocks,
    decode_code,
    encode_tuple,
    grid_blocks,
    row_blocks,
)


class AffineStructureError(ValueError):
    """A claimed affine term failed the group axioms it must induce."""


@dataclass(frozen=True)
class TermTree:
    """A term as a composition tree over named basic operations and projections.

    expr is ("proj", i) or (op_name, (child_exprs, ...)).
    """

    arity: int
    expr: tuple

    def evaluate(self, ops, args):
        """The term at `args`, integers or integer arrays that broadcast together."""

        def walk(e):
            if e[0] == "proj":
                return args[e[1]]
            name, children = e
            op = ops[name]
            if len(children) != op.arity:
                raise ValueError(f"operation {name} expects {op.arity} arguments")
            return apply_coordinatewise(op.np_table, op.base_size, [walk(c) for c in children])

        return walk(self.expr)


class AbelianGroup:
    """An Abelian group on {0..size-1}: a neutral element and an addition table.

    The flat table, x + y at index x * size + y, is kept once as the read-only
    int64 array `np_add_table`, shared or copied as `Operation` does; the
    tuple `add_table` is built on first use.  Construction checks every group
    axiom over the whole table and raises ValueError naming the first that
    fails, so an instance is always a group.  Orders, multiples and the
    exponent are read off one table, `multiples`.
    """

    def __init__(self, size, neutral, add_table):
        values = _int_array(add_table)
        failure = _group_axiom_failure(size, neutral, values)
        if failure is not None:
            raise ValueError(failure)
        values.setflags(write=False)
        self.size = size
        self.neutral = neutral
        self.np_add_table = values

    @cached_property
    def add_table(self):
        """The table as a tuple of Python ints, built on first use."""
        return tuple(self.np_add_table.tolist())

    def add(self, x, y):
        return self.add_table[x * self.size + y]

    @cached_property
    def multiples(self):
        """Row m holds m * x for every x, for 0 <= m < exp G: a read-only int64 array."""
        add, x = self.np_add_table.reshape(self.size, self.size), np.arange(self.size)
        rows = [np.full(self.size, self.neutral, dtype=np.int64)]
        while ((row := add[rows[-1], x]) != self.neutral).any():
            rows.append(row)
        table = np.array(rows)
        table.setflags(write=False)
        return table

    @cached_property
    def orders(self):
        """The order of every element, as a tuple: the first m >= 1 with m * x neutral."""
        after = np.roll(self.multiples, -1, axis=0) == self.neutral  # row m: (m + 1) * x
        return tuple((after.argmax(axis=0) + 1).tolist())

    @property
    def exponent(self):
        return len(self.multiples)

    def multiple(self, x, k):
        """k*x in the group, for any integer k."""
        return int(self.multiples[k % self.exponent, x])

    def as_algebra(self, name):
        n = self.size
        return FiniteAlgebra(
            name,
            n,
            [
                Operation("add", 2, n, self.np_add_table),
                Operation("neg", 1, n, self.multiples[-1]),
                Operation("zero", 0, n, [self.neutral]),
            ],
        )


def _group_axiom_failure(size, neutral, add):
    """The first Abelian group axiom the flat table `add` breaks, or None."""
    if add.shape != (size * size,) or not ((0 <= add) & (add < size)).all():
        return "the table is not a binary operation on the universe"
    if not 0 <= neutral < size:
        return f"neutral element {neutral} outside universe"
    table = add.reshape(size, size)
    x = np.arange(size)
    wrong = (table[neutral] != x) | (table[:, neutral] != x)
    if wrong.any():
        return f"{neutral} is not neutral at {int(wrong.argmax())}"
    wrong = ~(table == neutral).any(axis=1)
    if wrong.any():
        return f"no inverse for {int(wrong.argmax())}"
    wrong = table != table.T
    if wrong.any():
        return f"not commutative at {tuple(int(v) for v in np.argwhere(wrong)[0])}"
    for rows in row_blocks(size, size**2):
        # (x + y) + z against x + (y + z), for the block of x
        wrong = table[table[rows]] != table[x[rows, None, None], table]
        if wrong.any():
            i, y, z = (int(v) for v in np.argwhere(wrong)[0])
            return f"not associative at {(rows.start + i, y, z)}"
    return None


@dataclass(frozen=True)
class AffineTerm:
    """An integer coefficient vector with sum 1: the term sum(u_k * x_k)."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))
        if sum(self.coeffs) != 1:
            raise ValueError(f"affine coefficients must sum to 1, got {self.coeffs}")

    @property
    def arity(self):
        return len(self.coeffs)


def projection_term(arity, index):
    coeffs = [0] * arity
    coeffs[index] = 1
    return AffineTerm(tuple(coeffs))


def is_malcev(t: Operation):
    """True iff t(x,y,y) = t(y,y,x) = x for all x, y."""
    n = t.base_size
    table, x = t.np_table.reshape(n, n, n), np.arange(n)
    return bool((table[:, x, x] == x[:, None]).all() and (table[x, x, :] == x).all())


def commutes_with_algebra(t: Operation, A: FiniteAlgebra):
    """True iff t is a homomorphism A^3 -> A, i.e. compatible with every basic op."""
    if t.base_size != A.size:
        raise ValueError("term and algebra sizes differ")
    n = A.size
    tnp = t.np_table
    triples = np.array(decode_code(np.arange(n**3, dtype=np.int64), [n] * 3))
    for o in A.ops:
        blocks = zip(grid_blocks(triples, o.arity), grid_blocks(tnp, o.arity))
        for (_, lhs_args), (_, rhs_args) in blocks:
            # o on A^3 and then t, against t on each argument triple and then o;
            # a constant's image on A^3 holds its value at every coordinate
            image = apply_coordinatewise(o.np_table, n, lhs_args) if o.arity else [o.np_table[0]] * 3
            lhs = apply_coordinatewise(tnp, n, image)
            rhs = apply_coordinatewise(o.np_table, n, rhs_args)
            if not np.array_equal(lhs, rhs):
                return False
    return True


def find_affine_term(A, budget=DEFAULT_BUDGET):
    """The affine term of A as the operation t, or None if the clone has none.

    The search has three exact stages.  First, `_malcev_table` grows the
    values that t(x,y,y) = t(y,y,x) = x forces, through the operations of A
    applied coordinatewise on A^3; it gives None at the first triple forced
    to two values or when the growth stalls short of A^3, and otherwise a
    total table T as soon as one is reached.  Second, graph(T) is closed in
    A^4 exactly when T commutes with every operation, and then T is the
    unique compatible Mal'cev operation; otherwise the closure of the forced
    values strictly contains graph(T), is not functional, and A has no
    affine term.  A T that commutes with A commutes with every term of A,
    so T is no term unless it also commutes with itself.
    `operation_parts` checks both at once, in
    O(|A|^3 + sum |A|^arity), and A has no affine term when it fails.
    Third, membership of T in the ternary term clone is decided by
    breadth-first generation from the three projections, stopping as soon
    as T appears.
    """
    n = A.size
    if n**4 > budget:
        raise BudgetExceededError(n**4, budget, hint="Mal'cev graph closure space")
    table = _malcev_table(A)
    if table is None:
        return None
    candidate = Operation("t", 3, n, table)
    if not is_malcev(candidate):
        raise VerificationError(f"the forced Mal'cev table of {A.name} breaks the Mal'cev identities")
    if operation_parts(candidate, A) is None:
        return None
    derivation = _clone_search(A, candidate.table, budget)
    if derivation is None:
        return None
    values = TermTree(3, derivation).evaluate({o.name: o for o in A.ops}, decode_code(np.arange(n**3), [n] * 3))
    if (values != table).any():
        raise VerificationError(f"the derivation of the affine term of {A.name} misses its table")
    return candidate


def _malcev_table(A):
    """The table on A^3 codes that t(x,y,y) = t(y,y,x) = x forces, or None.

    The graph of t in A^4 is closed by `closure_blocks` from the Mal'cev
    identities, which give t(c,c,c) = c for every constant c too.  Returns
    None as soon as a triple gets two values or when the closure ends short
    of a total table, and the table as soon as every triple has a value.
    """
    n = A.size
    x, y = decode_code(np.arange(n * n), [n, n])
    seed = np.concatenate([encode_tuple((x, y, y, x), n), encode_tuple((y, y, x, x), n)])
    value = np.full(n**3, -1, dtype=np.int64)
    value[seed // n] = seed % n
    count = np.count_nonzero(value >= 0)
    for codes in closure_blocks(A, 4, np.zeros(n**4, dtype=bool), seed):
        triple, image = divmod(codes, n)
        if (value[triple] >= 0).any():  # a new value for a triple that has one
            return None
        value[triple] = image
        if (value[triple] != image).any():  # two new values for one triple
            return None
        count += np.unique(triple).size
        if count == n**3:
            return value
    return value if count == n**3 else None


def operation_parts(t: Operation, A: FiniteAlgebra):
    """(G, constants, alphas) when every operation of A is affine over t, else None.

    G is the Abelian group x + y = t(x,0,y), and t must be x - y + z in G:
    a Mal'cev operation commutes with itself exactly then.  Each operation o
    must be sum alpha_i(x_i) + o(0..0), checked over o's whole table, where
    each alpha_i(x) = o(0,..,x,..,0) - o(0..0) is an endomorphism of G: o
    commutes with x - y + z exactly then.  `constants` holds o(0..0) for
    each operation in order, and `alphas` the table of each alpha_i as one
    row, the arity of o rows per operation in order.  The cost is
    O(|A|^3 + sum |A|^arity).
    """
    n = A.size
    try:
        G = group_from_affine(t, 0)
    except AffineStructureError:
        return None
    add, neg = G.np_add_table.reshape(n, n), G.multiples[-1]
    x, y, z = decode_code(np.arange(n**3), [n] * 3)
    if (add[add[x, neg[y]], z] != t.np_table).any():
        return None
    constants, alphas = [], []
    for o in A.ops:
        table = o.np_table.reshape((n,) * o.arity)
        const = table[(0,) * o.arity]
        total = const
        for i in range(o.arity):
            alpha = add[table[(0,) * i + (slice(None),) + (0,) * (o.arity - 1 - i)], neg[const]]
            if (alpha[add] != add[alpha[:, None], alpha]).any():
                return None
            total = add[total, alpha.reshape((n,) + (1,) * (o.arity - 1 - i))]
            alphas.append(alpha)
        if (np.broadcast_to(total, table.shape) != table).any():
            return None
        constants.append(const)
    return G, np.array(constants, dtype=np.int64), np.array(alphas, dtype=np.int64).reshape(-1, n)


def _clone_search(A, target, budget):
    """Breadth-first generation of the ternary term clone of A.

    Returns the derivation tree of `target` as soon as it is produced, or
    None once the clone is exhausted without meeting it.  With target=None
    the full clone is generated and the table->derivation dict returned.

    The members are the rows of one int64 table, in the order they are
    met, each keyed by its bytes in the smallest integer type that holds
    the elements of A.  A level applies each operation, in name order, to
    every argument tuple that holds one frontier member (one met in the
    level before) and takes its other arguments from the members known at
    the level's start.  The tuples are ordered by the frontier member,
    then the others in `itertools.product` order, then the frontier
    member's position, and are taken as codes in that order, in
    `row_blocks` whose arrays (the gathered argument rows, their codes
    and the results) hold at most CHUNK_CELLS cells, or of one tuple.
    Each block is decoded, its argument rows gathered from the member
    table, the operation's table read once, and its results walked in
    order, so each table keeps the first derivation met.  The budget
    refuses the first member beyond budget // |A|^3, before the member
    table grows past that.
    """
    n = A.size
    cells = n**3
    max_elements = max(3, budget // cells)
    members = np.empty((min(64, max_elements), cells), dtype=np.int64)
    trees, index = [], {}  # index: member bytes -> row of `members` and `trees`
    dtype = np.min_scalar_type(n - 1)
    key_type = np.dtype((np.void, cells * dtype.itemsize))
    goal = None if target is None else np.asarray(target, dtype=dtype).tobytes()

    def emit(rows, tree_of):
        """Adds the unseen rows in order; True as soon as the target is one."""
        nonlocal members
        for i, key in enumerate(rows.astype(dtype).view(key_type).ravel().tolist()):
            if key in index:
                continue
            if len(trees) == max_elements:
                raise BudgetExceededError((len(trees) + 1) * cells, budget, hint="ternary term clone too large")
            if len(trees) == len(members):
                bigger = np.empty((min(2 * len(members), max_elements), cells), dtype=np.int64)
                bigger[: len(trees)] = members
                members = bigger
            index[key] = len(trees)
            members[len(trees)] = rows[i]
            trees.append(tree_of(i))
            if key == goal:
                return True
        return False

    if emit(np.stack(decode_code(np.arange(cells), [n] * 3)), lambda i: ("proj", i)):
        return trees[-1]
    start = 0
    while start < len(trees):  # the frontier is members[start:size], the level sees members[:size]
        size = len(trees)
        for o in A.ops:
            if o.arity == 0:
                if emit(np.full((1, cells), o.np_table[0]), lambda i: (o.name, ())):
                    return trees[-1]
                continue
            sizes = [size - start] + [size] * (o.arity - 1) + [o.arity]
            for block in row_blocks(math.prod(sizes), (o.arity + 2) * cells):
                a, *rest, pos = decode_code(np.arange(block.start, block.stop, dtype=np.int64), sizes)
                a += start
                args = []
                for j in range(o.arity):  # the frontier member a goes in at pos, the rest around it
                    x = a
                    if j < len(rest):
                        x = np.where(pos > j, rest[j], x)
                    if j > 0:
                        x = np.where(pos < j, rest[j - 1], x)
                    args.append(x)
                rows = apply_coordinatewise(o.np_table, n, [members.take(x, axis=0) for x in args])
                if emit(rows, lambda i: (o.name, tuple(trees[x[i]] for x in args))):
                    return trees[-1]
        start = size
    if target is None:
        return {tuple(row): tree for row, tree in zip(members[: len(trees)].tolist(), trees)}
    return None


def ternary_term_clone(A, budget=DEFAULT_BUDGET):
    """The full ternary term clone as a dict table -> derivation tree."""
    return _clone_search(A, None, budget)


def group_from_affine(t: Operation, c: int) -> AbelianGroup:
    """The Abelian group with neutral c derived from t: x + y = t(x,c,y).

    All group axioms are verified over the whole table, and t(c,x,c) must be
    the inverse of x; a failure means t was not an affine term and raises
    AffineStructureError.
    """
    n = t.base_size
    if not 0 <= c < n:
        raise ValueError(f"neutral element {c} outside universe")
    table = t.np_table.reshape(n, n, n)
    try:
        G = AbelianGroup(n, c, table[:, c, :].ravel())
    except ValueError as e:
        raise AffineStructureError(str(e)) from None
    wrong = np.flatnonzero(G.np_add_table[np.arange(n) * n + table[c, :, c]] != c)
    if wrong.size:
        raise AffineStructureError(f"t({c},{wrong[0]},{c}) is not the inverse of {wrong[0]}")
    return G


def eval_affine_combination(term: AffineTerm, t: Operation, c: int, args):
    """Evaluate sum(u_k * x_k) in the group (t, c); the result is c-independent.

    The group is built on each call.  Coefficients are reduced modulo the
    group exponent first, which makes negative ones nonnegative.  Each
    u * x is summed by repeated `add`, so this scalar form does not read
    the `multiples` table.
    """
    args = tuple(args)
    if len(args) != term.arity:
        raise ValueError(f"expected {term.arity} arguments, got {len(args)}")
    G = group_from_affine(t, c)
    acc = G.neutral
    for u, x in zip(term.coeffs, args):
        for _ in range(u % G.exponent):
            acc = G.add(acc, x)
    return acc


def affine_combination_array(term: AffineTerm, G: AbelianGroup, args):
    """`eval_affine_combination(term, t, c, args)` elementwise on integer arrays that broadcast
    together, where the caller builds G = `group_from_affine(t, c)`."""
    if len(args) != term.arity:
        raise ValueError(f"expected {term.arity} arguments, got {len(args)}")
    add = G.np_add_table.reshape(G.size, G.size)
    acc = np.full(np.broadcast_shapes(*(np.shape(x) for x in args)), G.neutral, dtype=np.int64)
    for u, x in zip(term.coeffs, args):
        if u % G.exponent:  # one gather from the table of a + u * y
            acc = apply_coordinatewise(add[:, G.multiples[u % G.exponent]].ravel(), G.size, (acc, x))
    return acc
