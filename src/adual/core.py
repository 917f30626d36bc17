"""Finite algebras as named operation tables, and the constructions on them.

Everything lives on universes {0, ..., n-1}.  Powers and products encode
their elements as integers in mixed radix with the first coordinate most
significant, which fixes the tuple/integer conversion exactly once for the
whole package.  A relation is stored as the sorted int64 array of its tuple
codes and an operation as its int64 table; tuples of Python ints are views
decoded from them on demand.  All public functions return canonically
sorted data so that repeated runs are byte-identical.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

DEFAULT_BUDGET = 10**6


class BudgetExceededError(Exception):
    """An operation refused to materialize more elements than the budget allows."""

    def __init__(self, count, budget, hint=""):
        self.count = count
        self.budget = budget
        msg = f"refused to materialize {count} elements (budget {budget})"
        if hint:
            msg += f"; {hint}"
        super().__init__(msg)


class ParseError(ValueError):
    """A text input could not be parsed; carries file, line and token."""

    def __init__(self, message, source="<input>", line=0, token=""):
        self.source = source
        self.line = line
        self.token = token
        super().__init__(f"{source}:{line}: {message}" + (f" (near {token!r})" if token else ""))


class VerificationError(Exception):
    """A verification claim failed its check; the computation that led here is wrong."""


def encode_tuple(values, size):
    """Mixed-radix code of a tuple over {0..size-1}, first coordinate most significant.

    The coordinates may also be integer arrays that broadcast together, which
    gives the codes elementwise.
    """
    code = None
    for v in values:
        code = v if code is None else code * size + v
    return 0 if code is None else code


def decode_code(code, sizes):
    """The coordinates of a mixed-radix code, first coordinate most significant.

    `sizes` gives the radix of each coordinate.  An integer code gives a
    tuple of integers; an integer array gives one array per coordinate.
    """
    if not sizes:
        return ()
    digits = []
    for size in reversed(sizes[1:]):
        code, digit = divmod(code, size)
        digits.append(digit)
    return (code, *reversed(digits))  # a code below prod(sizes) leaves the first digit


def sorted_member(sorted_codes, codes):
    """Elementwise membership of `codes` in the sorted 1-D array `sorted_codes`."""
    codes = np.asarray(codes, dtype=np.int64)
    if sorted_codes.size == 0:
        return np.zeros(codes.shape, dtype=bool)
    pos = np.searchsorted(sorted_codes, codes)
    np.minimum(pos, sorted_codes.size - 1, out=pos)
    return sorted_codes[pos] == codes


# Cells per temporary array in chunked array work; bounds its memory.
CHUNK_CELLS = 1 << 16


def apply_coordinatewise(tables, sizes, args):
    """An operation applied coordinatewise on a product of algebras, as codes.

    `tables[i]` is the operation's flat table (an integer array) on the i-th
    factor, whose universe has `sizes[i]` elements.  `args` holds one entry
    per argument, any number of them: the digits of that argument, one
    integer array per factor, as `decode_code` gives them.  All digit arrays
    broadcast together, and the result has their common shape.  Codes are
    mixed radix with the first factor most significant.
    """
    code = None
    for i, (table, size) in enumerate(zip(tables, sizes)):
        value = table[encode_tuple([a[i] for a in args], size)]
        code = value if code is None else code * size + value
    return code


def along_axis(digits, axis, depth):
    """`digits` reshaped to run along `axis` of a `depth`-dimensional grid.

    Every axis before `axis` is left to broadcasting, so arguments laid
    along different axes span the grid of all their combinations.
    """
    shape = (-1,) + (1,) * (depth - 1 - axis)
    return tuple([d.reshape(shape) for d in digits])


def grid_args(digits, arity):
    """Kernel arguments spanning every `arity`-tuple of the elements `digits`."""
    return [along_axis(digits, j, arity) for j in range(arity)]


def grid_blocks(digits, arity):
    """`grid_args(digits, arity)` cut along the first argument into blocks.

    Each block spans at most CHUNK_CELLS cells (at least one first element),
    and the blocks follow one another in the flat order of the grid.
    """
    args = grid_args(digits, arity)
    rows = len(digits[0]) if arity else 1
    step = max(1, CHUNK_CELLS // max(1, len(digits[0])) ** max(0, arity - 1))
    for s in range(0, rows, step):
        yield [tuple(d[s : s + step] for d in a) for a in args[:1]] + args[1:]


class Operation:
    """A total finitary operation on {0..base_size-1} stored as a flat table.

    Table entries are listed in lexicographic order of argument tuples with
    the first argument most significant; the index of (x_1,..,x_k) is
    sum(x_i * base_size**(k-1-i)).  Arity 0 is allowed and stores one value.
    The table is kept once, as the read-only int64 array `np_table`; the
    tuple `table` of Python ints is built from it on first use.  A table
    given as a read-only int64 array that owns its data is shared, not copied.
    """

    def __init__(self, name, arity, base_size, table):
        if arity < 0:
            raise ValueError(f"operation {name}: arity must be >= 0, got {arity}")
        if base_size < 1:
            raise ValueError(f"operation {name}: base size must be >= 1")
        values = _int_array(table)
        if values.shape != (base_size**arity,):
            raise ValueError(
                f"operation {name}: table has {values.size} entries, "
                f"expected {base_size}**{arity} = {base_size ** arity}"
            )
        outside = ((values < 0) | (values >= base_size)).astype(bool)
        if outside.any():
            raise ValueError(f"operation {name}: table value {values[outside][0]} outside universe")
        values.setflags(write=False)  # int64 now: a value beyond int64 is outside
        self.name = name
        self.arity = arity
        self.base_size = base_size
        self.np_table = values

    @cached_property
    def table(self):
        """The table as a tuple of Python ints, built on first use."""
        return tuple(self.np_table.tolist())

    def __call__(self, *args):
        if len(args) != self.arity:
            raise ValueError(f"operation {self.name} expects {self.arity} arguments")
        return self.table[encode_tuple(args, self.base_size)]

    def __eq__(self, other):
        return (
            isinstance(other, Operation)
            and self.name == other.name
            and self.arity == other.arity
            and self.base_size == other.base_size
            and np.array_equal(self.np_table, other.np_table)
        )

    def __hash__(self):
        return hash((self.name, self.arity, self.base_size, self.np_table.tobytes()))

    def __repr__(self):
        return f"Operation({self.name!r}, arity={self.arity}, base={self.base_size})"


def _int_array(values):
    """`values` as an int64 array, shared if it is one that is read-only and owns
    its data and copied otherwise, or as an object array of Python ints when
    some value does not fit int64, so range checks can still name it."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        if values.flags.owndata and not values.flags.writeable:
            return values
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


@dataclass(frozen=True)
class PowerView:
    """Records that an algebra was built as base**exponent."""

    base_name: str
    base_size: int
    exponent: int


class FiniteAlgebra:
    """A finite algebra: a universe {0..size-1} and named operation tables."""

    def __init__(self, name, size, ops, power_of: Optional[PowerView] = None):
        if size < 1:
            raise ValueError("algebra size must be >= 1")
        ops = tuple(sorted(ops, key=lambda o: o.name))
        names = [o.name for o in ops]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate operation names in algebra {name}: {names}")
        for o in ops:
            if o.base_size != size:
                raise ValueError(
                    f"operation {o.name} has base size {o.base_size}, algebra {name} has {size}"
                )
        self.name = name
        self.size = size
        self.ops = ops
        self.power_of = power_of
        self._ops_by_name = {o.name: o for o in ops}
        self._signature = tuple((o.name, o.arity) for o in ops)

    @property
    def generating_set(self):
        """A small generating set, grown greedily from the constants upward; computed once."""
        return self._generation[0]

    @cached_property
    def _generation(self):
        """The greedy generators, the steps (op name, elements, args) that reach every
        other element, and how many steps come before the last generator is added:
        `elements` are the op applied to `args`, one array per argument.

        Each round applies every operation to all elements reached before it, in grid
        blocks; a round that reaches nothing new adds the least unreached element.  So
        the steps before the last generator fill Sg(constants, g_1..g_{m-1}), on whose
        elements alone they act.
        """
        reached, gens, steps, split = np.zeros(self.size, dtype=bool), [], [], 0
        while not reached.all():
            current, seen = np.flatnonzero(reached), reached.copy()
            for o in self.ops:
                start = 0
                for args in grid_blocks((current,), o.arity):
                    values = np.ravel(apply_coordinatewise([o.np_table], [self.size], args))
                    cells = np.flatnonzero(~seen[values])
                    if cells.size:
                        elements, first = np.unique(values[cells], return_index=True)
                        where = decode_code(start + cells[first], [current.size] * o.arity)
                        steps.append((o.name, elements, tuple(current[d] for d in where)))
                        seen[elements] = True
                    start += values.size
            if (seen == reached).all():
                gens.append(int(seen.argmin()))
                seen[gens[-1]] = True
                split = len(steps)
            reached = seen
        return tuple(gens), tuple(steps), split

    @cached_property
    def _arg_grid(self):
        """For each operation, `grid_args` over the whole universe: read-only index
        arrays that broadcast to every argument tuple in table order.  Computed once."""
        index = np.arange(self.size, dtype=np.int64)
        index.setflags(write=False)
        return tuple(tuple(a for (a,) in grid_args((index,), o.arity)) for o in self.ops)

    @cached_property
    def _prefix_plan(self):
        """What a hom must satisfy on S = Sg(constants, g_1..g_{m-1}), m generators.

        The steps that fill S from the images of g_1..g_{m-1}, and for each
        operation of positive arity (op name, args, results): `grid_args`
        over S, one index array per argument, and the element each argument
        tuple gives.  Every hom
        restricts to a hom on S, so a map on S that breaks one of these
        equations extends to none.  A constant's value is set by its own
        step, so its equation always holds.
        """
        gens, steps, split = self._generation
        inside = np.zeros(self.size, dtype=bool)
        inside[list(gens[:-1])] = True
        for _, elements, _ in steps[:split]:
            inside[elements] = True
        S = np.flatnonzero(inside)
        equations = []
        for o in self.ops:
            if o.arity:
                args = grid_args((S,), o.arity)
                results = apply_coordinatewise([o.np_table], [self.size], args)
                equations.append((o.name, [a for (a,) in args], results))
        return steps[:split], tuple(equations)

    def op(self, name):
        return self._ops_by_name[name]

    def signature(self):
        """The (name, arity) of each operation, in name order; built once."""
        return self._signature

    def constants(self):
        """Values of all arity-0 operations."""
        return tuple(int(o.np_table[0]) for o in self.ops if o.arity == 0)

    def __repr__(self):
        return f"FiniteAlgebra({self.name!r}, size={self.size}, ops={len(self.ops)})"


def _same_tables(A, B):
    """True iff A and B have the same universe and operation tables; names aside."""
    return A is B or (A.size == B.size and A.ops == B.ops)


def _check_same_signature(A, B):
    if A.signature() != B.signature():
        raise ValueError(
            f"signature mismatch: {A.name} has {A.signature()}, {B.name} has {B.signature()}"
        )


# ---------------------------------------------------------------------------
# The closure engine.
#
# All subuniverse generation runs through one routine that closes a set of
# integer codes under the operations of a product of algebras, applied
# coordinatewise by `apply_coordinatewise`.  Factors may repeat (powers) or
# differ; they need only share a signature.
# ---------------------------------------------------------------------------


def closed_product_subset(factors, seed, base=None):
    """Close `seed` (iterable of codes) under the factor operations, coordinatewise.

    `factors` is a nonempty sequence of algebras with identical signatures;
    codes are mixed-radix with the first factor most significant.  `base`,
    if given, is an already-closed member array that the seed extends.
    Returns the sorted member codes as a numpy array.

    Each round applies every operation to the argument tuples that hold a
    frontier element (the newest members) at some position and current
    members elsewhere.  The frontier runs along the first grid axis and is
    cut into blocks, so no temporary exceeds CHUNK_CELLS cells unless one
    frontier element alone spans more.
    """
    factors = list(factors)
    for F in factors[1:]:
        _check_same_signature(factors[0], F)
    sizes = [F.size for F in factors]
    member = np.zeros(math.prod(sizes), dtype=bool)
    if base is not None:
        member[np.asarray(base, dtype=np.int64)] = True
    ops = [([F.op(o.name).np_table for F in factors], o.arity) for o in factors[0].ops]
    # constants join the seed once
    consts = {int(apply_coordinatewise(tables, sizes, ())) for tables, arity in ops if arity == 0}
    seed_arr = np.array(sorted(consts.union(int(c) for c in seed)), dtype=np.int64)
    frontier = seed_arr[~member[seed_arr]]
    member[frontier] = True
    ops = [(tables, arity) for tables, arity in ops if arity]
    depth = max((arity for _, arity in ops), default=0)

    while frontier.size:
        current = np.flatnonzero(member)
        first = along_axis(decode_code(frontier, sizes), 0, depth)
        digits = decode_code(current, sizes)
        rest = [along_axis(digits, j, depth) for j in range(1, depth)]
        new = []
        for tables, arity in ops:
            step = max(1, CHUNK_CELLS // current.size ** (arity - 1))
            for s in range(0, frontier.size, step):
                block = tuple(d[s : s + step] for d in first)
                for pos in range(arity):
                    args = rest[: arity - 1]
                    args.insert(pos, block)
                    codes = apply_coordinatewise(tables, sizes, args).ravel()
                    fresh = codes[~member[codes]]
                    member[fresh] = True
                    new.append(fresh)
        frontier = np.unique(np.concatenate(new)) if new else current[:0]
    return np.flatnonzero(member)


def generated_subuniverse(A, seed, budget=DEFAULT_BUDGET):
    """Least superset of `seed` closed under all operations of A, sorted.

    An empty seed is allowed only when A has constants, in which case the
    result is the subuniverse the constants generate.
    """
    seed = sorted(set(seed))
    if any(not 0 <= x < A.size for x in seed):
        raise ValueError(f"seed element outside universe of {A.name}")
    if not seed and not A.constants():
        raise ValueError(f"empty seed and {A.name} has no constants: closure is empty")
    if A.size > budget:
        raise BudgetExceededError(A.size, budget)
    return tuple(int(x) for x in closed_product_subset([A], seed))


# ---------------------------------------------------------------------------
# Powers, products, subalgebras, quotients
# ---------------------------------------------------------------------------


def power_algebra(A, n, budget=DEFAULT_BUDGET):
    """The n-th direct power of A with universe codes 0..size**n - 1.

    Codes are base-size positional with the first coordinate most
    significant; operations act coordinatewise.  Both the universe and every
    materialized operation table must fit the element budget.
    """
    if n < 1:
        raise ValueError("power exponent must be >= 1")
    N = A.size**n
    if N > budget:
        raise BudgetExceededError(N, budget)
    for o in A.ops:
        if N**o.arity > budget:
            raise BudgetExceededError(
                N**o.arity, budget, hint=f"table of {o.name} on the power"
            )
    return FiniteAlgebra(
        f"{A.name}^{n}",
        N,
        product_operations([A] * n),
        power_of=PowerView(A.name, A.size, n),
    )


def product_operations(factors):
    """The operations of the direct product of `factors`, which share a signature.

    Codes are mixed radix with the first factor most significant.  Each
    table is computed in grid blocks, so no temporary spans the whole grid.
    """
    sizes = [F.size for F in factors]
    N = math.prod(sizes)
    digits = decode_code(np.arange(N, dtype=np.int64), sizes)
    ops = []
    for o in factors[0].ops:
        tables = [F.op(o.name).np_table for F in factors]
        flat = np.empty(N**o.arity, dtype=np.int64)
        start = 0
        for args in grid_blocks(digits, o.arity):
            block = np.ravel(apply_coordinatewise(tables, sizes, args))
            flat[start : start + block.size] = block
            start += block.size
        flat.setflags(write=False)  # handed over to the Operation, not copied
        ops.append(Operation(o.name, o.arity, N, flat))
    return ops


def carrier_tables(A, carrier):
    """The flat table of each operation of A on the argument grid over `carrier`.

    `carrier` is a sorted integer array; the values are ambient elements.
    Raises ValueError when a value escapes the carrier, so a carrier that
    passes is closed.
    """
    tables = []
    for o in A.ops:
        values = np.ravel(apply_coordinatewise([o.np_table], [A.size], grid_args((carrier,), o.arity)))
        escapes = ~sorted_member(carrier, values)
        if escapes.any():
            i = int(np.flatnonzero(escapes)[0])
            args = tuple(int(carrier[d]) for d in decode_code(i, [len(carrier)] * o.arity))
            raise ValueError(
                f"carrier not closed: {o.name}{args} = {values[i]} escapes in {A.name}"
            )
        tables.append(values)
    return tables


# ---------------------------------------------------------------------------
# Relations
# ---------------------------------------------------------------------------


class Relation:
    """A finite nonempty k-ary relation over {0..base_size-1}, held as codes.

    The relation stores only the sorted, duplicate-free, read-only int64
    array of the mixed-radix codes of its tuples (`codes()`), so equality of
    relations is set equality.  Codes must fit int64, so base_size**arity
    may not exceed 2**63.  The lexicographically sorted `tuples` and the set
    behind `in` are decoded on first use.  The empty relation is rejected:
    only nonempty subuniverses occur as compatible relations here.
    """

    def __init__(self, arity, base_size, tuples):
        _check_code_space(arity, base_size)
        rows = [tuple(t) for t in tuples]
        for t in rows:
            if len(t) != arity:
                raise ValueError(f"tuple {tuple(map(int, t))} does not have arity {arity}")
        values = _int_array(rows).reshape(len(rows), arity)
        outside = ((values < 0) | (values >= base_size)).astype(bool).any(axis=1)
        if outside.any():
            bad = tuple(map(int, values[outside.argmax()]))
            raise ValueError(f"tuple {bad} outside universe of size {base_size}")
        self._fill(arity, base_size, encode_tuple(tuple(values.T), base_size))

    @classmethod
    def from_codes(cls, codes, base_size, arity):
        """The relation whose tuples have the given mixed-radix codes."""
        _check_code_space(arity, base_size)
        relation = cls.__new__(cls)
        relation._fill(arity, base_size, codes)
        return relation

    def _fill(self, arity, base_size, codes):
        """Check, deduplicate and store the codes; both constructors end here."""
        codes = np.unique(np.asarray(codes, dtype=np.int64))
        if not codes.size:
            raise ValueError("empty relation rejected")
        for code in (int(codes[0]), int(codes[-1])):
            if not 0 <= code < base_size**arity:
                raise ValueError(f"code {code} outside universe of size {base_size} at arity {arity}")
        codes.setflags(write=False)
        self.arity = arity
        self.base_size = base_size
        self._codes = codes

    def codes(self):
        """The sorted, read-only int64 array of the tuple codes."""
        return self._codes

    @cached_property
    def tuples(self):
        """The tuples, sorted lexicographically, as tuples of Python ints."""
        columns = decode_code(self._codes, [self.base_size] * self.arity)
        return tuple(zip(*(c.tolist() for c in columns)))

    def __contains__(self, t):
        # out-of-range values can encode to a member's code: (0, 2) over 2 to (1, 0)
        t = tuple(t)
        if len(t) != self.arity or not all(v in range(self.base_size) for v in t):
            return False
        return bool(sorted_member(self._codes, [encode_tuple(t, self.base_size)])[0])

    def __len__(self):
        return len(self._codes)

    def __eq__(self, other):
        return (
            isinstance(other, Relation)
            and self.arity == other.arity
            and self.base_size == other.base_size
            and np.array_equal(self._codes, other._codes)
        )

    def __hash__(self):
        return hash((self.arity, self.base_size, self._codes.tobytes()))

    def __repr__(self):
        return f"Relation(arity={self.arity}, base={self.base_size}, size={len(self)})"


def _check_code_space(arity, base_size):
    if arity < 1:
        raise ValueError("relation arity must be >= 1")
    if base_size**arity > 2**63:
        raise ValueError(f"relation codes {base_size}**{arity} exceed the int64 bound 2**63")


def full_relation(base_size, arity):
    return Relation.from_codes(np.arange(base_size**arity), base_size, arity)


def diagonal_relation(base_size, arity):
    return Relation.from_codes(encode_tuple([np.arange(base_size)] * arity, base_size), base_size, arity)


def graph_relation(op: Operation) -> Relation:
    """The (arity+1)-ary graph of an operation."""
    n = op.base_size
    return Relation.from_codes(np.arange(n**op.arity) * n + op.np_table, n, op.arity + 1)


def is_compatible_relation(A, R: Relation, budget=DEFAULT_BUDGET):
    """True iff R is closed under every operation of A applied coordinatewise."""
    if R.arity < 1:
        raise ValueError("relation arity must be >= 1")
    if R.base_size != A.size:
        raise ValueError(
            f"relation over universe of size {R.base_size}, algebra {A.name} has size {A.size}"
        )
    codes, r, sizes = R.codes(), len(R), [A.size] * R.arity
    columns = decode_code(codes, sizes)
    for o in A.ops:
        if r**o.arity > budget:
            raise BudgetExceededError(r**o.arity, budget, hint="compatibility check")
        images = apply_coordinatewise([o.np_table] * R.arity, sizes, grid_args(columns, o.arity))
        if not sorted_member(codes, np.ravel(images)).all():
            return False
    return True


def subuniverse_carriers(A, budget=DEFAULT_BUDGET, above=None):
    """All nonempty subuniverses of A as sorted carrier tuples.

    Output sorted by (cardinality, lexicographic carrier).  With `above`, an
    iterable of codes, only the subuniverses that contain it are listed: the
    interval [Sg(above), A] of Sub(A).  The closed sets are listed once each
    by Close-by-One (Kuznetsov 1993) with the pruning of FCbO (Outrata &
    Vychodil 2012), starting at the root Sg(above), or at Sg({}) without
    `above`.  Its attributes are the distinct sets Sg(root + g_0), ..,
    Sg(root + g_{m-1}), one generator g_k outside the root per set, in order
    of g_k.  A subuniverse above the root is the closure of the root and the
    generators it holds, so they determine it, and the canonicity test below
    is the same in the interval as in the whole lattice.  From a closed set S
    with start index y, each j >= y with g_j outside S gives T = Sg(S + g_j).
    T is a child of S, with start j + 1, iff it holds no g_k with k < j
    outside S; every subuniverse is thus the child of exactly one closed set.
    When T fails, such a g_k is kept as a witness for j: a descendant of S
    that lacks g_k skips j, because its closure with g_j contains T and fails
    the same test.  A code of `above` outside the universe raises ValueError.
    """
    if A.size > budget:
        raise BudgetExceededError(A.size, budget)
    seed = sorted({int(c) for c in above}) if above is not None else []
    bad = [c for c in seed if not 0 <= c < A.size]
    if bad:
        raise ValueError(f"code {bad[0]} outside the universe 0..{A.size - 1} of {A.name}")
    # the root Sg(seed) is empty, and not listed, if the seed is and A has no constants
    root = closed_product_subset([A], seed) if seed or A.constants() else np.zeros(0, dtype=np.int64)
    outside_root = np.ones(A.size, dtype=bool)
    outside_root[root] = False
    first_generator = {}
    for x in np.flatnonzero(outside_root).tolist():
        arr = closed_product_subset([A], [x], base=root)
        first_generator.setdefault(arr.tobytes(), (x, arr))
    gens = np.array([x for x, _ in first_generator.values()], dtype=np.int64)
    singles = [arr for _, arr in first_generator.values()]

    def held(carrier):
        member = np.zeros(A.size, dtype=bool)
        member[carrier] = True
        return member[gens]

    found = [root] if root.size else []
    stack = [(root, held(root), 0, np.full(len(gens), -1))]
    while stack:
        S, holds, start, witness = stack.pop()
        witness = witness.copy()  # shared with the siblings of S
        children = []
        for j in range(start, len(gens)):
            if holds[j] or (witness[j] >= 0 and not holds[witness[j]]):
                continue
            # the children of the root are the attribute sets Sg(root + g_j)
            T = singles[j] if S is root else closed_product_subset([A], [gens[j]], base=S)
            T_holds = held(T)
            added = T_holds & ~holds
            if added[:j].any():
                witness[j] = added.argmax()
            else:
                children.append((T, T_holds, j + 1, witness))
        found.extend(child[0] for child in children)
        stack.extend(children)
    carriers = [tuple(S.tolist()) for S in found]
    carriers.sort(key=lambda c: (len(c), c))
    return carriers


def enumerate_subuniverses(A, budget=DEFAULT_BUDGET):
    """All nonempty subuniverses of A as Relations.

    If A was built as a power B^n the carriers are decoded into n-tuples over
    B; otherwise they are unary relations over A itself.
    """
    if A.power_of is not None:
        base, arity = A.power_of.base_size, A.power_of.exponent
    else:
        base, arity = A.size, 1
    return [
        Relation.from_codes(c, base, arity) for c in subuniverse_carriers(A, budget)
    ]


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------


class Homomorphism:
    """A map between same-signature algebras commuting with every operation.

    The map is kept once, as the read-only int64 array `np_mapping` of its
    values; the tuple `mapping` of Python ints is built from it on first use.
    A read-only int64 array that owns its data is shared, not copied.  The
    defining equations are checked exhaustively at construction.
    """

    def __init__(self, domain, codomain, mapping):
        _check_same_signature(domain, codomain)
        values = _int_array(mapping)
        if values.shape != (domain.size,):
            raise ValueError(
                f"mapping has {values.size} entries, domain {domain.name} has {domain.size}"
            )
        if ((values < 0) | (values >= codomain.size)).astype(bool).any():
            raise ValueError("mapping value outside codomain universe")
        values.setflags(write=False)  # int64 now: a value beyond int64 is outside
        self.domain = domain
        self.codomain = codomain
        self.np_mapping = values
        self._verify()

    def _verify(self):
        m, B = self.np_mapping, self.codomain
        for oA, grid in zip(self.domain.ops, self.domain._arg_grid):
            rhs = apply_coordinatewise([B.op(oA.name).np_table], [B.size], [(m[a],) for a in grid])
            wrong = m[oA.np_table] != np.ravel(rhs)
            if wrong.any():
                args = decode_code(int(wrong.argmax()), [self.domain.size] * oA.arity)
                raise ValueError(f"not a homomorphism: fails on {oA.name} at {args}")

    @cached_property
    def mapping(self):
        """The values as a tuple of Python ints, built on first use."""
        return tuple(self.np_mapping.tolist())

    def __call__(self, x):
        return self.mapping[x]

    def __eq__(self, other):
        return (
            isinstance(other, Homomorphism)
            and np.array_equal(self.np_mapping, other.np_mapping)
            and _same_tables(self.domain, other.domain)
            and _same_tables(self.codomain, other.codomain)
        )

    def __hash__(self):
        return hash((self.domain.size, self.codomain.size, self.np_mapping.tobytes()))

    def __repr__(self):
        return f"Homomorphism({self.domain.name} -> {self.codomain.name}, {self.mapping})"


def extend_partial_map(A, B, partial):
    """Extend a map {a: b} on exactly `A.generating_set` to a homomorphism A -> B.

    Fills the table along all generator steps with B's operations; returns the
    `Homomorphism` on it if the constructor's exhaustive check accepts the
    table, else None.  This is the only way `enumerate_homs` accepts a map.
    """
    _check_same_signature(A, B)
    gens, steps, _ = A._generation
    if set(partial) != set(gens):
        raise ValueError(f"partial map keys {sorted(partial)} are not the generating set {gens} of {A.name}")
    values = np.zeros(A.size, dtype=np.int64)
    values[list(partial)] = list(partial.values())
    for name, elements, args in steps:
        values[elements] = apply_coordinatewise([B.op(name).np_table], [B.size], [(values[a],) for a in args])
    values.setflags(write=False)
    try:
        return Homomorphism(A, B, values)
    except ValueError:
        return None


def _surviving_prefixes(A, B):
    """The images of g_1..g_{m-1} that extend to a hom on Sg(constants, g_1..g_{m-1}).

    All |B|**(m-1) images are taken in mixed-radix code order and decoded
    one block at a time.  Each image is filled along the steps of
    `A._prefix_plan` and kept when it satisfies every equation there.  A
    block holds at most CHUNK_CELLS cells, and at least one image.  Yields
    the surviving images as tuples, in code order.
    """
    gens = A.generating_set
    steps, equations = A._prefix_plan
    sizes = [B.size] * (len(gens) - 1)
    count = math.prod(sizes)
    width = max([A.size] + [results.size for _, _, results in equations])
    per = max(1, CHUNK_CELLS // width)  # images per block
    for start in range(0, count, per):
        codes = np.arange(start, min(count, start + per), dtype=np.int64)
        # one column per image: indexing by a grid over S gives that grid for all images at once
        values = np.zeros((A.size, codes.size), dtype=np.int64)
        for g, digit in zip(gens, decode_code(codes, sizes)):
            values[g] = digit
        for name, elements, args in steps:
            values[elements] = apply_coordinatewise([B.op(name).np_table], [B.size], [(values[a],) for a in args])
        keep = np.ones(codes.size, dtype=bool)
        for name, args, results in equations:
            images = apply_coordinatewise([B.op(name).np_table], [B.size], [(values[a],) for a in args])
            keep &= (values[results] == images).reshape(-1, codes.size).all(axis=0)
        yield from zip(*(d.tolist() for d in decode_code(codes[keep], sizes)))


def enumerate_homs(A, B, budget=DEFAULT_BUDGET):
    """All homomorphisms A -> B, sorted by their map tables.

    Every hom restricts to a hom on Sg(constants, g_1..g_{m-1}), where
    g_1..g_m is the generating set of A.  With m >= 2 the images of
    g_1..g_{m-1} are first pruned to those that satisfy every equation
    inside that subalgebra, in one array pass (`_surviving_prefixes`); each
    survivor is then extended by every image of g_m.  With m <= 1 every
    image is tried.  Each assignment tried goes through `extend_partial_map`,
    whose exhaustive check is the only way a map is accepted.
    """
    _check_same_signature(A, B)
    if A.size * B.size > budget:
        raise BudgetExceededError(A.size * B.size, budget)
    generators = A.generating_set
    count = B.size ** len(generators)
    if count > budget:
        raise BudgetExceededError(
            count, budget, hint=f"{B.size}**{len(generators)} images of the generating set of {A.name}"
        )
    if len(generators) < 2:
        assignments = itertools.product(range(B.size), repeat=len(generators))
    else:
        assignments = ((*head, b) for head in _surviving_prefixes(A, B) for b in range(B.size))
    homs = []
    for images in assignments:
        hom = extend_partial_map(A, B, dict(zip(generators, images)))
        if hom is not None:
            homs.append(hom)
    # lexicographic order of the tables: lexsort's last key is the first coordinate
    tables = np.array([h.np_mapping for h in homs]).reshape(len(homs), A.size)
    return [homs[i] for i in np.lexsort(tables.T[::-1])]


# ---------------------------------------------------------------------------
# Congruences and quotients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Congruence:
    """A partition of {0..base_size-1} preserved by all operations.

    `class_of` assigns each element its block id; ids are canonical, numbered
    by first appearance when scanning 0..n-1, so equal partitions compare
    equal as dataclasses.  A `class_of` of any other length than `base_size`
    raises ValueError.  `labels`, the read-only int64 array of each element's
    least class member, is what meets, joins and refinement work on.
    """

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

    @classmethod
    def from_classes(cls, base_size, classes):
        """The partition into `classes`, which hold each of 0..base_size-1 exactly once."""
        class_of = {}
        for i, block in enumerate(classes):
            for x in block:
                if not 0 <= x < base_size:
                    raise ValueError(f"element {x} outside the universe 0..{base_size - 1}")
                if x in class_of:
                    raise ValueError(f"element {x} occurs twice in the partition")
                class_of[x] = i
        if len(class_of) < base_size:
            missing = min(set(range(base_size)) - set(class_of))
            raise ValueError(f"element {missing} missing from the partition")
        return cls(base_size, [class_of[x] for x in range(base_size)])

    @classmethod
    def identity(cls, base_size):
        return cls(base_size, tuple(range(base_size)))

    @classmethod
    def full(cls, base_size):
        return cls(base_size, (0,) * base_size)

    @property
    def num_classes(self):
        return max(self.class_of) + 1

    def classes(self):
        return tuple(tuple(np.flatnonzero(self.labels == r).tolist()) for r in np.unique(self.labels))

    def related(self, x, y):
        return self.class_of[x] == self.class_of[y]

    def refines(self, other):
        """True iff every block of self sits inside a block of other."""
        return bool((other.labels[self.labels] == other.labels).all())

    def is_identity(self):
        return self.num_classes == self.base_size

    def meet(self, other):
        return Congruence(self.base_size, self.labels * self.base_size + other.labels)

    def join(self, other):
        return Congruence(self.base_size, _merged(self.labels, np.arange(self.base_size), other.labels))


def _merged(labels, left, right):
    """`labels` with the class of each left[i] merged with that of right[i].

    `labels` gives each element the least member of its class, and so does
    the result.  Each round hooks the larger label of every pair still apart
    onto the smaller, then follows the hooks until every element reaches the
    least member of its class; hooks only ever point down, so none cycles.
    """
    while True:
        a, b = labels[left], labels[right]
        apart = a != b
        if not apart.any():
            return labels
        a, b = a[apart], b[apart]
        labels = labels.copy()
        np.minimum.at(labels, a, b)
        np.minimum.at(labels, b, a)
        while not np.array_equal(labels[labels], labels):
            labels = labels[labels]


def verify_congruence(A, part: Congruence):
    """Check that the partition is preserved by every operation of A; raise otherwise."""
    quotient_tables(A, part)
    return part


def _images_at_representatives(A, labels):
    """(o, start, f(x), f(rep x)) over the grid blocks of each operation f = o of A.

    x runs over every argument tuple of o, in blocks that follow the flat
    table order from index `start`, and rep x puts labels[a] for each
    argument a.  A partition with these labels is preserved by o exactly
    when f(x) and f(rep x) always share a class; constants always do.
    """
    for o in [o for o in A.ops if o.arity]:
        start = 0
        for args in grid_blocks((labels,), o.arity):
            at_reps = np.ravel(apply_coordinatewise([o.np_table], [A.size], args))
            yield o, start, o.np_table[start : start + at_reps.size], at_reps
            start += at_reps.size


def quotient_tables(A, part: Congruence):
    """The flat table of each operation of A on the classes of `part`.

    Every argument tuple of A is checked against its tuple of class
    representatives first, so a partition that passes is a congruence;
    otherwise ValueError names an argument tuple where it fails.  Each table
    is then read off the representatives.  Both grids are walked in blocks.
    """
    if part.base_size != A.size:
        raise ValueError("partition base does not match algebra")
    C = np.array(part.class_of, dtype=np.int64)
    for o, start, values, at_reps in _images_at_representatives(A, part.labels):
        wrong = C[values] != C[at_reps]
        if wrong.any():
            where = decode_code(start + int(wrong.argmax()), [A.size] * o.arity)
            raise ValueError(f"partition not preserved by {o.name} at {where}")
    reps = np.flatnonzero(part.labels == np.arange(A.size))
    tables = []
    for o in A.ops:
        table = np.empty(reps.size**o.arity, dtype=np.int64)
        start = 0
        for args in grid_blocks((reps,), o.arity):
            block = np.ravel(C[apply_coordinatewise([o.np_table], [A.size], args)])
            table[start : start + block.size] = block
            start += block.size
        tables.append(table)
    return tables


def congruence_generated_by(A, pairs):
    """The least congruence of A containing the given pairs.

    A fixpoint on the labels of each element's least class member, starting
    from the pairs merged.  Each round compares f(x) with f(rep x) for every
    operation f and every argument tuple x, and merges every pair of values
    in different classes at once; these pairs lie in any congruence above
    the current partition.  When a round merges nothing, every operation
    preserves the partition.
    """
    pairs = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    labels = _merged(np.arange(A.size), pairs[:, 0], pairs[:, 1])
    while True:
        left, right = [], []
        for _, _, values, at_reps in _images_at_representatives(A, labels):
            apart = labels[values] != labels[at_reps]
            left.append(values[apart])
            right.append(at_reps[apart])
        if not any(x.size for x in left):
            return Congruence(A.size, labels)
        labels = _merged(labels, np.concatenate(left), np.concatenate(right))


def principal_congruence(A, a, b):
    return congruence_generated_by(A, [(a, b)])


def con_lattice(A):
    """All congruences of A: principal congruences closed under join.

    Sorted by (number of classes descending, class map); the identity comes
    first and the full congruence last.
    """
    principals = {Congruence.identity(A.size)}
    principals.update(principal_congruence(A, a, b) for a, b in itertools.combinations(range(A.size), 2))
    found, frontier = set(principals), list(principals)
    while frontier:
        theta = frontier.pop()
        for other in list(found):
            j = theta.join(other)
            if j not in found:
                found.add(j)
                frontier.append(j)
    return sorted(found, key=lambda c: (-c.num_classes, c.class_of))


def quotient_algebra(A, theta: Congruence):
    """A/theta with universe the (canonical) class ids, plus the projection.

    Well-definedness of every induced operation is checked exhaustively; a
    violation means theta was not a congruence and raises ValueError.
    """
    m = theta.num_classes
    ops = [
        Operation(o.name, o.arity, m, table)
        for o, table in zip(A.ops, quotient_tables(A, theta))
    ]
    Q = FiniteAlgebra(f"{A.name}/~{m}", m, ops)
    projection = Homomorphism(A, Q, theta.class_of)
    return Q, projection
