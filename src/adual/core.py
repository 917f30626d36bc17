"""Finite algebras as named operation tables, and the constructions on them.

Everything lives on universes {0, ..., n-1}.  Powers and products encode
their elements as integers in mixed radix with the first coordinate most
significant, which fixes the tuple/integer conversion exactly once for the
whole package.  All public functions return canonically sorted data so that
repeated runs are byte-identical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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

    The coordinates may also be integer arrays of one shape, which gives the
    codes elementwise.
    """
    code = 0
    for v in values:
        code = code * size + v
    return code


def sorted_member(sorted_codes, codes):
    """Elementwise membership of `codes` in the sorted 1-D array `sorted_codes`."""
    codes = np.asarray(codes, dtype=np.int64)
    if sorted_codes.size == 0:
        return np.zeros(codes.shape, dtype=bool)
    pos = np.searchsorted(sorted_codes, codes)
    np.minimum(pos, sorted_codes.size - 1, out=pos)
    return sorted_codes[pos] == codes


def decode_code(code, size, arity):
    out = [0] * arity
    for i in range(arity - 1, -1, -1):
        out[i] = code % size
        code //= size
    return tuple(out)


class Operation:
    """A total finitary operation on {0..base_size-1} stored as a flat table.

    Table entries are listed in lexicographic order of argument tuples with
    the first argument most significant; the index of (x_1,..,x_k) is
    sum(x_i * base_size**(k-1-i)).  Arity 0 is allowed and stores one value.
    """

    __slots__ = ("name", "arity", "base_size", "table", "_np")

    def __init__(self, name, arity, base_size, table):
        if arity < 0:
            raise ValueError(f"operation {name}: arity must be >= 0, got {arity}")
        if base_size < 1:
            raise ValueError(f"operation {name}: base size must be >= 1")
        table = tuple(int(v) for v in table)
        if len(table) != base_size**arity:
            raise ValueError(
                f"operation {name}: table has {len(table)} entries, "
                f"expected {base_size}**{arity} = {base_size ** arity}"
            )
        if any(not 0 <= v < base_size for v in table):
            bad = next(v for v in table if not 0 <= v < base_size)
            raise ValueError(f"operation {name}: table value {bad} outside universe")
        self.name = name
        self.arity = arity
        self.base_size = base_size
        self.table = table
        self._np = None

    @property
    def np_table(self):
        if self._np is None:
            self._np = np.array(self.table, dtype=np.int64)
        return self._np

    def __call__(self, *args):
        if len(args) != self.arity:
            raise ValueError(f"operation {self.name} expects {self.arity} arguments")
        idx = 0
        for a in args:
            idx = idx * self.base_size + a
        return self.table[idx]

    def __eq__(self, other):
        return (
            isinstance(other, Operation)
            and self.name == other.name
            and self.arity == other.arity
            and self.base_size == other.base_size
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.name, self.arity, self.base_size, self.table))

    def __repr__(self):
        return f"Operation({self.name!r}, arity={self.arity}, base={self.base_size})"


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

    def op(self, name):
        return self._ops_by_name[name]

    def signature(self):
        return tuple((o.name, o.arity) for o in self.ops)

    def elements(self):
        return range(self.size)

    def constants(self):
        """Values of all arity-0 operations."""
        return tuple(o.table[0] for o in self.ops if o.arity == 0)

    def __repr__(self):
        return f"FiniteAlgebra({self.name!r}, size={self.size}, ops={len(self.ops)})"


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
# coordinatewise.  Factors may repeat (powers) or differ (used for graphs of
# partial maps inside A x B).  Arities 0..2 are vectorized; higher arities
# fall back to plain loops.
# ---------------------------------------------------------------------------


def closed_product_subset(factors, seed, base=None):
    """Close `seed` (iterable of codes) under the factor operations, coordinatewise.

    `factors` is a nonempty sequence of algebras with identical signatures;
    codes are mixed-radix with the first factor most significant.  `base`,
    if given, is an already-closed member array that the seed extends.
    Returns the sorted member codes as a numpy array.
    """
    factors = list(factors)
    for F in factors[1:]:
        _check_same_signature(factors[0], F)
    sizes = np.array([F.size for F in factors], dtype=np.int64)
    width = len(factors)
    total = 1
    for s in sizes:
        total *= int(s)
    strides = np.ones(width, dtype=np.int64)
    for i in range(width - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]

    member = np.zeros(total, dtype=bool)
    if base is not None:
        base = np.asarray(base, dtype=np.int64)
        member[base] = True
    seed_arr = np.array(sorted(set(int(c) for c in seed)), dtype=np.int64)
    frontier = seed_arr[~member[seed_arr]] if seed_arr.size else seed_arr
    member[frontier] = True

    # constants join the frontier once
    consts = []
    for o in factors[0].ops:
        if o.arity == 0:
            c = sum(int(F.op(o.name).table[0]) * int(strides[i]) for i, F in enumerate(factors))
            if not member[c]:
                member[c] = True
                consts.append(c)
    if consts:
        frontier = np.concatenate([frontier, np.array(consts, dtype=np.int64)])

    op_groups = [
        (o.name, o.arity, [F.op(o.name).np_table for F in factors])
        for o in factors[0].ops
        if o.arity >= 1
    ]

    def digits(codes):
        return (codes[:, None] // strides[None, :]) % sizes[None, :]

    while frontier.size:
        current = np.flatnonzero(member)
        DF = digits(frontier)
        DM = digits(current)
        produced = []
        for name, arity, tabs in op_groups:
            if arity == 1:
                out = np.zeros(frontier.size, dtype=np.int64)
                for i in range(width):
                    out += tabs[i][DF[:, i]] * strides[i]
                produced.append(out)
            elif arity == 2:
                left = np.zeros((frontier.size, current.size), dtype=np.int64)
                right = np.zeros((current.size, frontier.size), dtype=np.int64)
                for i in range(width):
                    s = int(sizes[i])
                    left += tabs[i][DF[:, None, i] * s + DM[None, :, i]] * strides[i]
                    right += tabs[i][DM[:, None, i] * s + DF[None, :, i]] * strides[i]
                produced.append(left.ravel())
                produced.append(right.ravel())
            else:
                out = []
                cur_list = current.tolist()
                fr_list = frontier.tolist()
                dig_cache = {c: decode_mixed(c, sizes, strides) for c in cur_list}
                for pos in range(arity):
                    for f in fr_list:
                        fd = dig_cache[f] if f in dig_cache else decode_mixed(f, sizes, strides)
                        for rest in itertools.product(cur_list, repeat=arity - 1):
                            args = rest[:pos] + (f,) + rest[pos:]
                            code = 0
                            for i in range(width):
                                argd = tuple(
                                    dig_cache.get(a, decode_mixed(a, sizes, strides))[i]
                                    for a in args
                                )
                                code += int(tabs[i][encode_tuple(argd, int(sizes[i]))]) * int(
                                    strides[i]
                                )
                            out.append(code)
                if out:
                    produced.append(np.array(out, dtype=np.int64))
        if produced:
            cand = np.unique(np.concatenate(produced))
            new = cand[~member[cand]]
        else:
            new = np.empty(0, dtype=np.int64)
        member[new] = True
        frontier = new
    return np.flatnonzero(member)


def decode_mixed(code, sizes, strides):
    return tuple(int(code // strides[i]) % int(sizes[i]) for i in range(len(sizes)))


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
    strides = [A.size ** (n - 1 - i) for i in range(n)]
    codes = np.arange(N, dtype=np.int64)
    D = (codes[:, None] // np.array(strides)) % A.size
    ops = []
    for o in A.ops:
        if o.arity == 0:
            val = sum(o.table[0] * s for s in strides)
            ops.append(Operation(o.name, 0, N, (val,)))
        elif o.arity == 1:
            out = np.zeros(N, dtype=np.int64)
            for i in range(n):
                out += o.np_table[D[:, i]] * strides[i]
            ops.append(Operation(o.name, 1, N, out.tolist()))
        elif o.arity == 2:
            out = np.zeros((N, N), dtype=np.int64)
            for i in range(n):
                out += o.np_table[D[:, None, i] * A.size + D[None, :, i]] * strides[i]
            ops.append(Operation(o.name, 2, N, out.ravel().tolist()))
        else:
            table = []
            for args in itertools.product(range(N), repeat=o.arity):
                argd = [decode_code(a, A.size, n) for a in args]
                val = 0
                for i in range(n):
                    val = val * A.size + o(*(d[i] for d in argd))
                table.append(val)
            ops.append(Operation(o.name, o.arity, N, table))
    return FiniteAlgebra(
        f"{A.name}^{n}",
        N,
        ops,
        power_of=PowerView(A.name, A.size, n),
    )


def subalgebra_on(A, carrier, name=None):
    """Materialize the subalgebra of A on `carrier` with a re-indexed universe.

    Returns (algebra, to_sub, from_sub): to_sub maps ambient elements to
    sub-indices, from_sub is the sorted carrier tuple.
    """
    carrier = tuple(sorted(set(carrier)))
    if not carrier:
        raise ValueError("subalgebra carrier must be nonempty")
    cset = set(carrier)
    to_sub = {x: i for i, x in enumerate(carrier)}
    ops = []
    for o in A.ops:
        table = []
        for args in itertools.product(carrier, repeat=o.arity):
            v = o(*args)
            if v not in cset:
                raise ValueError(
                    f"carrier not closed: {o.name}{args} = {v} escapes in {A.name}"
                )
            table.append(to_sub[v])
        ops.append(Operation(o.name, o.arity, len(carrier), table))
    name = name or f"{A.name}|{len(carrier)}"
    return FiniteAlgebra(name, len(carrier), ops), to_sub, carrier


# ---------------------------------------------------------------------------
# Relations
# ---------------------------------------------------------------------------


class Relation:
    """A finite k-ary relation over {0..base_size-1}.

    Tuples are stored sorted lexicographically with duplicates removed, so
    equality of relations is set equality.  The empty relation is rejected:
    only nonempty subuniverses occur as compatible relations here.
    """

    __slots__ = ("arity", "base_size", "tuples", "_set")

    def __init__(self, arity, base_size, tuples):
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
        self.arity = arity
        self.base_size = base_size
        self.tuples = tuples
        self._set = frozenset(tuples)

    @classmethod
    def from_codes(cls, codes, base_size, arity):
        return cls(arity, base_size, [decode_code(c, base_size, arity) for c in codes])

    def codes(self):
        return tuple(encode_tuple(t, self.base_size) for t in self.tuples)

    def __contains__(self, t):
        return tuple(t) in self._set

    def __len__(self):
        return len(self.tuples)

    def __eq__(self, other):
        return (
            isinstance(other, Relation)
            and self.arity == other.arity
            and self.base_size == other.base_size
            and self.tuples == other.tuples
        )

    def __hash__(self):
        return hash((self.arity, self.base_size, self.tuples))

    def __repr__(self):
        return f"Relation(arity={self.arity}, base={self.base_size}, size={len(self.tuples)})"


def full_relation(base_size, arity):
    return Relation(arity, base_size, itertools.product(range(base_size), repeat=arity))


def diagonal_relation(base_size, arity):
    return Relation(arity, base_size, [(x,) * arity for x in range(base_size)])


def graph_relation(op: Operation) -> Relation:
    """The (arity+1)-ary graph of an operation."""
    n = op.base_size
    tuples = [
        args + (op(*args),) for args in itertools.product(range(n), repeat=op.arity)
    ]
    return Relation(op.arity + 1, n, tuples)


def is_compatible_relation(A, R: Relation, budget=DEFAULT_BUDGET):
    """True iff R is closed under every operation of A applied coordinatewise."""
    if R.arity < 1:
        raise ValueError("relation arity must be >= 1")
    if R.base_size != A.size:
        raise ValueError(
            f"relation over universe of size {R.base_size}, algebra {A.name} has size {A.size}"
        )
    T = np.array(R.tuples, dtype=np.int64)
    r, k = T.shape
    codes = encode_tuple(T.T, A.size)  # sorted, as R.tuples is

    def present(arr):
        return bool(sorted_member(codes, arr).all())

    for o in A.ops:
        if o.arity == 0:
            if (o.table[0],) * k not in R:
                return False
        elif o.arity == 1:
            if not present(encode_tuple(o.np_table[T].T, A.size)):
                return False
        elif o.arity == 2:
            if r * r > budget:
                raise BudgetExceededError(r * r, budget, hint="compatibility check")
            out = encode_tuple(
                (o.np_table[T[:, None, c] * A.size + T[None, :, c]] for c in range(k)), A.size
            )
            if not present(out):
                return False
        else:
            for rows in itertools.product(range(r), repeat=o.arity):
                img = tuple(o(*(int(T[i, c]) for i in rows)) for c in range(k))
                if img not in R:
                    return False
    return True


def sampled_compatibility(A, R: Relation, samples=10_000, seed=0):
    """Randomized closure check for relations too large for the exhaustive one.

    A True outcome is only evidence, not proof; callers must flag it.
    """
    import random

    rng = random.Random(seed)
    rows = R.tuples
    for _ in range(samples):
        o = A.ops[rng.randrange(len(A.ops))]
        combo = [rows[rng.randrange(len(rows))] for _ in range(o.arity)]
        image = tuple(o(*(row[c] for row in combo)) for c in range(R.arity))
        if image not in R:
            return False
    return True


def subuniverse_carriers(A, budget=DEFAULT_BUDGET):
    """All nonempty subuniverses of A as sorted carrier tuples.

    Strategy: closures of singletons, then one-element extensions of found
    subuniverses until nothing new appears.  Output sorted by (cardinality,
    lexicographic carrier).
    """
    if A.size > budget:
        raise BudgetExceededError(A.size, budget)
    found = {}
    queue = []
    for x in range(A.size):
        arr = closed_product_subset([A], [x])
        key = arr.tobytes()
        if key not in found:
            found[key] = arr
            queue.append(arr)
    while queue:
        arr = queue.pop()
        members = set(arr.tolist())
        for x in range(A.size):
            if x in members:
                continue
            ext = closed_product_subset([A], [x], base=arr)
            key = ext.tobytes()
            if key not in found:
                found[key] = ext
                queue.append(ext)
    carriers = [tuple(int(v) for v in arr) for arr in found.values()]
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

    The defining equations are checked exhaustively at construction.
    """

    __slots__ = ("domain", "codomain", "mapping", "_np")

    def __init__(self, domain, codomain, mapping):
        _check_same_signature(domain, codomain)
        mapping = tuple(int(v) for v in mapping)
        if len(mapping) != domain.size:
            raise ValueError(
                f"mapping has {len(mapping)} entries, domain {domain.name} has {domain.size}"
            )
        if any(not 0 <= v < codomain.size for v in mapping):
            raise ValueError("mapping value outside codomain universe")
        self.domain = domain
        self.codomain = codomain
        self.mapping = mapping
        self._np = np.array(mapping, dtype=np.int64)
        self._verify()

    def _verify(self):
        m = self._np
        nB = self.codomain.size
        for oA in self.domain.ops:
            oB = self.codomain.op(oA.name)
            if oA.arity == 0:
                if self.mapping[oA.table[0]] != oB.table[0]:
                    raise ValueError(
                        f"not a homomorphism: constant {oA.name} maps to "
                        f"{self.mapping[oA.table[0]]}, expected {oB.table[0]}"
                    )
            elif oA.arity == 1:
                if not np.array_equal(m[oA.np_table], oB.np_table[m]):
                    raise ValueError(f"not a homomorphism: fails on {oA.name}")
            elif oA.arity == 2:
                lhs = m[oA.np_table]
                rhs = oB.np_table[(m[:, None] * nB + m[None, :]).ravel()]
                if not np.array_equal(lhs, rhs):
                    raise ValueError(f"not a homomorphism: fails on {oA.name}")
            else:
                for args in itertools.product(range(self.domain.size), repeat=oA.arity):
                    if self.mapping[oA(*args)] != oB(*(self.mapping[a] for a in args)):
                        raise ValueError(
                            f"not a homomorphism: fails on {oA.name} at {args}"
                        )

    def __call__(self, x):
        return self.mapping[x]

    def is_surjective(self):
        return len(set(self.mapping)) == self.codomain.size

    def kernel_congruence(self):
        return Congruence.from_class_map(self.domain.size, self.mapping)

    def __eq__(self, other):
        return (
            isinstance(other, Homomorphism)
            and self.mapping == other.mapping
            and self.domain.name == other.domain.name
            and self.codomain.name == other.codomain.name
        )

    def __hash__(self):
        return hash((self.domain.name, self.codomain.name, self.mapping))

    def __repr__(self):
        return f"Homomorphism({self.domain.name} -> {self.codomain.name}, {self.mapping})"


def greedy_generating_set(A):
    """A small generating set, grown greedily from the constants upward."""
    if A.constants():
        current = closed_product_subset([A], [])
    else:
        current = np.empty(0, dtype=np.int64)
    gens = []
    members = set(current.tolist())
    while len(members) < A.size:
        x = next(v for v in range(A.size) if v not in members)
        gens.append(x)
        current = closed_product_subset([A], [x], base=current)
        members = set(current.tolist())
    return tuple(gens)


def extend_partial_map(A, B, partial):
    """Extend a partial map {a: b} on generators of A to a homomorphism.

    Closes the graph inside A x B.  Returns the full mapping tuple, or None
    when the extension is inconsistent or does not cover A.
    """
    nB = B.size
    seed = [a * nB + b for a, b in partial.items()]
    graph = closed_product_subset([A, B], seed)
    if graph.size != A.size:
        return None
    prefixes = graph // nB
    if len(np.unique(prefixes)) != graph.size:
        return None
    mapping = np.zeros(A.size, dtype=np.int64)
    mapping[prefixes] = graph % nB
    return tuple(int(v) for v in mapping)


def enumerate_homs(A, B, budget=DEFAULT_BUDGET, generators=None):
    """All homomorphisms A -> B, sorted by their map tables.

    Backtracks over images of a generating set of A, extending each partial
    assignment through the graph closure in A x B.
    """
    _check_same_signature(A, B)
    if A.size * B.size > budget:
        raise BudgetExceededError(A.size * B.size, budget)
    if generators is None:
        generators = greedy_generating_set(A)
    count = B.size ** len(generators)
    if count > budget:
        raise BudgetExceededError(
            count, budget, hint="supply a smaller generating set via generators="
        )
    homs = []
    for images in itertools.product(range(B.size), repeat=len(generators)):
        mapping = extend_partial_map(A, B, dict(zip(generators, images)))
        if mapping is not None:
            homs.append(Homomorphism(A, B, mapping))
    homs.sort(key=lambda h: h.mapping)
    return homs


# ---------------------------------------------------------------------------
# Congruences and quotients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Congruence:
    """A partition of {0..base_size-1} preserved by all operations.

    `class_of` assigns each element its block id; ids are canonical, numbered
    by first appearance when scanning 0..n-1, so equal partitions compare
    equal as dataclasses.
    """

    base_size: int
    class_of: tuple

    def __post_init__(self):
        canon = self._canonical(self.class_of)
        object.__setattr__(self, "class_of", canon)

    @staticmethod
    def _canonical(class_of):
        relabel = {}
        out = []
        for c in class_of:
            if c not in relabel:
                relabel[c] = len(relabel)
            out.append(relabel[c])
        return tuple(out)

    @classmethod
    def from_class_map(cls, base_size, class_of):
        return cls(base_size, tuple(class_of))

    @classmethod
    def from_classes(cls, base_size, classes):
        class_of = [None] * base_size
        for i, block in enumerate(classes):
            for x in block:
                if class_of[x] is not None:
                    raise ValueError(f"element {x} occurs in two classes")
                class_of[x] = i
        if any(c is None for c in class_of):
            missing = class_of.index(None)
            raise ValueError(f"element {missing} missing from the partition")
        return cls(base_size, tuple(class_of))

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
        blocks = [[] for _ in range(self.num_classes)]
        for x, c in enumerate(self.class_of):
            blocks[c].append(x)
        return tuple(tuple(b) for b in blocks)

    def related(self, x, y):
        return self.class_of[x] == self.class_of[y]

    def pairs(self):
        return frozenset(
            (x, y)
            for x in range(self.base_size)
            for y in range(self.base_size)
            if self.class_of[x] == self.class_of[y]
        )

    def refines(self, other):
        """True iff every block of self sits inside a block of other."""
        seen = {}
        for x in range(self.base_size):
            c = self.class_of[x]
            if c in seen:
                if other.class_of[x] != seen[c]:
                    return False
            else:
                seen[c] = other.class_of[x]
        return True

    def is_identity(self):
        return self.num_classes == self.base_size

    def is_full(self):
        return self.num_classes == 1

    def meet(self, other):
        combined = tuple(
            self.class_of[x] * other.base_size + other.class_of[x]
            for x in range(self.base_size)
        )
        return Congruence(self.base_size, combined)

    def join(self, other):
        uf = _UnionFind(self.base_size)
        for part in (self, other):
            for block in part.classes():
                for y in block[1:]:
                    uf.union(block[0], y)
        return Congruence(self.base_size, tuple(uf.find(x) for x in range(self.base_size)))


class _UnionFind:
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


def verify_congruence(A, part: Congruence):
    """Check that the partition is preserved by every operation of A; raise otherwise."""
    if part.base_size != A.size:
        raise ValueError("partition base does not match algebra")
    C = np.array(part.class_of, dtype=np.int64)
    m = part.num_classes
    for o in A.ops:
        if o.arity == 0:
            continue
        if o.arity == 1:
            vals = C[o.np_table]
            idx = C
        elif o.arity == 2:
            vals = C[o.np_table]
            idx = (C[:, None] * m + C[None, :]).ravel()
        else:
            table = {}
            for args in itertools.product(range(A.size), repeat=o.arity):
                key = tuple(part.class_of[a] for a in args)
                v = part.class_of[o(*args)]
                if table.setdefault(key, v) != v:
                    raise ValueError(
                        f"partition not preserved by {o.name} at class tuple {key}"
                    )
            continue
        size = m**o.arity
        lo = np.full(size, m, dtype=np.int64)
        hi = np.full(size, -1, dtype=np.int64)
        np.minimum.at(lo, idx, vals)
        np.maximum.at(hi, idx, vals)
        seen = hi >= 0
        if not np.array_equal(lo[seen], hi[seen]):
            bad = int(np.flatnonzero(seen & (lo != hi))[0])
            raise ValueError(f"partition not preserved by {o.name} at class index {bad}")
    return part


def congruence_generated_by(A, pairs):
    """The least congruence of A containing the given pairs."""
    uf = _UnionFind(A.size)
    todo = []
    for a, b in pairs:
        if uf.union(a, b):
            todo.append((a, b))
    unary_like = [(o, pos) for o in A.ops for pos in range(o.arity)]
    while todo:
        a, b = todo.pop()
        for o, pos in unary_like:
            for rest in itertools.product(range(A.size), repeat=o.arity - 1):
                xa = rest[:pos] + (a,) + rest[pos:]
                xb = rest[:pos] + (b,) + rest[pos:]
                va, vb = o(*xa), o(*xb)
                if uf.union(va, vb):
                    todo.append((va, vb))
    return Congruence(A.size, tuple(uf.find(x) for x in range(A.size)))


def principal_congruence(A, a, b):
    return congruence_generated_by(A, [(a, b)])


def con_lattice(A):
    """All congruences of A: principal congruences closed under join.

    Sorted by (number of classes descending, class map); the identity comes
    first and the full congruence last.
    """
    principals = {Congruence.identity(A.size)}
    for a in range(A.size):
        for b in range(a + 1, A.size):
            principals.add(principal_congruence(A, a, b))
    found = set(principals)
    frontier = list(principals)
    while frontier:
        theta = frontier.pop()
        for other in list(found):
            j = theta.join(other)
            if j not in found:
                found.add(j)
                frontier.append(j)
    out = sorted(found, key=lambda c: (-c.num_classes, c.class_of))
    return out


def quotient_algebra(A, theta: Congruence, name=None):
    """A/theta with universe the (canonical) class ids, plus the projection.

    Well-definedness of every induced operation is checked exhaustively; a
    violation means theta was not a congruence and raises ValueError.
    """
    verify_congruence(A, theta)
    m = theta.num_classes
    reps = [block[0] for block in theta.classes()]
    ops = []
    for o in A.ops:
        table = []
        for args in itertools.product(range(m), repeat=o.arity):
            table.append(theta.class_of[o(*(reps[c] for c in args))])
        ops.append(Operation(o.name, o.arity, m, table))
    Q = FiniteAlgebra(name or f"{A.name}/~{m}", m, ops)
    projection = Homomorphism(A, Q, theta.class_of)
    return Q, projection
