"""Factor any morphism A^n -> S through A^(N+1).

N is the size of a generating family of the group on {f: A^2 -> S with
f(x,x) = f-diagonal}.  The slot morphisms f_i(x,y) = f(y,..,y,x,y,..,y)
decompose over the generators h_j, the inner terms p_j repackage the n
arguments into N+1, and g recombines generator values; the defining identity
f = g(p_1, .., p_{N+1}) is verified exhaustively when the domain fits the
budget and on a seeded random sample otherwise.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .core import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    Homomorphism,
    apply_coordinatewise,
    decode_code,
    encode_tuple,
    power_algebra,
)
from .affine import AffineTerm, TernaryTermOperation, eval_affine_combination, projection_term
from .homgroups import GeneratingFamily, HkGroup

VERIFY_SAMPLES = 10_000


@dataclass
class LargePowerMorphism:
    """A morphism out of a power too big to materialize as an algebra.

    Stores the value table over the mixed-radix codes of base**exponent; the
    homomorphism property is spot-checked on a seeded sample because the
    power's own operation tables cannot be built.
    """

    base: object
    exponent: int
    codomain: object
    mapping: tuple
    checked: str = "sampled"

    def __call__(self, code):
        return self.mapping[code]

    def spot_check(self, samples=2000, seed=0):
        rng = random.Random(seed)
        n, s = self.exponent, self.base.size
        for _ in range(samples):
            o = self.base.ops[rng.randrange(len(self.base.ops))]
            args = [rng.randrange(len(self.mapping)) for _ in range(o.arity)]
            digits = [decode_code(a, [s] * n) for a in args]
            lhs = self.mapping[apply_coordinatewise([o.np_table] * n, [s] * n, digits)]
            rhs = self.codomain.op(o.name)(*(self.mapping[a] for a in args))
            if lhs != rhs:
                raise ValueError(f"not a homomorphism: fails on {o.name} at {args}")
        return self


@dataclass
class Factorization:
    """f together with g, the inner terms p_j and the coefficient matrix u[j][i].

    `mode` records whether the identity f = g(p_1..p_{N+1}) was checked on
    every input ("exhaustive") or on a seeded sample ("sampled"); `seed` is
    the sample seed.  The last term is always the first projection.  g is a
    fully verified Homomorphism whenever A^(N+1) materializes inside the
    budget and a spot-checked LargePowerMorphism otherwise.
    """

    f: Homomorphism
    g: object
    terms: tuple
    coefficient_matrix: tuple
    mode: str
    seed: int

    @property
    def inner_arity(self):
        return len(self.terms)


def _domain_exponent(A, f):
    if f.domain.power_of is not None:
        pv = f.domain.power_of
        if pv.base_name != A.name or pv.base_size != A.size:
            raise ValueError(f"morphism domain is a power of {pv.base_name}, not {A.name}")
        return pv.exponent
    if f.domain.size != A.size:
        raise ValueError("morphism domain is neither A nor a power of A")
    return 1


def factor_morphism(
    A,
    S,
    t_A: TernaryTermOperation,
    t_S: TernaryTermOperation,
    f: Homomorphism,
    family: GeneratingFamily,
    budget=DEFAULT_BUDGET,
    seed=0,
) -> Factorization:
    """Build g and p_1..p_{N+1} with f = g(p_1, .., p_{N+1}) and verify it.

    `family` must generate the group built from build_hk_group with base
    morphism k(x) = f(x, .., x).  Identity failure is a bug in the inputs,
    not a legitimate outcome, and raises AssertionError.
    """
    n = _domain_exponent(A, f)
    group = family.group
    if not isinstance(group, HkGroup):
        raise ValueError("family must come from a group on Hom(A^2, S)")
    square = group.square
    k_map = tuple(f(encode_tuple((x,) * n, A.size)) for x in range(A.size))
    if group.k.mapping != k_map:
        raise ValueError("family was built for a different base morphism k")
    N = family.size

    # slot morphisms f_i and their generator coordinates
    f_slots = []
    matrix = []
    for i in range(n):
        table = []
        for c in range(square.size):
            x, y = c // A.size, c % A.size
            args = [y] * n
            args[i] = x
            table.append(f(encode_tuple(args, A.size)))
        fi = tuple(table)
        if fi not in group.index:
            raise ValueError("slot morphism escapes the hom group: inputs inconsistent")
        coeffs = family.expressions[group.index[fi]]
        f_slots.append(fi)
        matrix.append(tuple(int(u) for u in coeffs))

    # telescoping identity: f(x) = sum_i (f_i(x_i, x_1) - f_i(x_1, x_1)) + k(x_1)
    tele = AffineTerm((1, -1) * n + (1,))
    for code in range(f.domain.size):
        xs = decode_code(code, [A.size] * n)
        args = []
        for i in range(n):
            args.append(f_slots[i][xs[i] * A.size + xs[0]])
            args.append(f_slots[i][xs[0] * A.size + xs[0]])
        args.append(k_map[xs[0]])
        assert f(code) == eval_affine_combination(tele, t_S, 0, args), (
            "telescoping identity failed"
        )

    # inner terms p_j; the (N+1)-st is the first projection
    terms = []
    for j in range(N):
        coeffs = [0] * n
        total = 0
        for i in range(n):
            u = matrix[i][j]
            coeffs[i] += u
            total += u
        coeffs[0] += 1 - total
        terms.append(AffineTerm(tuple(coeffs)))
    terms.append(projection_term(n, 0))
    terms = tuple(terms)

    p_tables = []
    for term in terms:
        table = [
            eval_affine_combination(term, t_A, 0, decode_code(c, [A.size] * n))
            for c in range(f.domain.size)
        ]
        p_tables.append(Homomorphism(f.domain, A, table))

    # generator/term exchange identity, checked whenever the domain is small
    if f.domain.size * A.size <= 4096:
        for j in range(N):
            h = group.elements[family.generators[j]]
            for code in range(f.domain.size):
                xs = decode_code(code, [A.size] * n)
                pj = p_tables[j](code)
                for z in range(A.size):
                    exch = AffineTerm(
                        tuple(matrix[i][j] for i in range(n))
                        + (1 - sum(matrix[i][j] for i in range(n)),)
                    )
                    args = [h[xs[i] * A.size + z] for i in range(n)]
                    args.append(h[xs[0] * A.size + z])
                    assert h[pj * A.size + z] == eval_affine_combination(
                        exch, t_S, 0, args
                    ), "generator/term exchange identity failed"

    # g(y_1..y_N, z) = sum_j (h_j(y_j, z) - h_j(z, z)) + k(z).  Generators
    # equal to the neutral (padding) contribute nothing, so the value only
    # depends on the active coordinates and z; a cache over that projection
    # keeps huge powers affordable.
    domain_size = A.size ** (N + 1)
    if domain_size > budget:
        raise BudgetExceededError(domain_size, budget, hint="domain of g")
    neutral_map = group.elements[group.neutral]
    active = [j for j in range(N) if group.elements[family.generators[j]] != neutral_map]
    g_term = AffineTerm((1, -1) * len(active) + (1,))
    cache = {}
    g_table = []
    for ys in itertools.product(range(A.size), repeat=N + 1):
        z = ys[N]
        key = tuple(ys[j] for j in active) + (z,)
        value = cache.get(key)
        if value is None:
            args = []
            for j in active:
                h = group.elements[family.generators[j]]
                args.append(h[ys[j] * A.size + z])
                args.append(h[z * A.size + z])
            args.append(k_map[z])
            value = eval_affine_combination(g_term, t_S, 0, args)
            cache[key] = value
        g_table.append(value)
    try:
        P = power_algebra(A, N + 1, budget)
    except BudgetExceededError:
        P = None
    if P is not None:
        g = Homomorphism(P, S, g_table)
    else:
        g = LargePowerMorphism(A, N + 1, S, tuple(g_table)).spot_check(seed=seed)

    def composed(code):
        image = encode_tuple((p(code) for p in p_tables), A.size)
        return g(image)

    if f.domain.size <= budget:
        mode = "exhaustive"
        for code in range(f.domain.size):
            assert f(code) == composed(code), f"factorization identity failed at {code}"
    else:
        mode = "sampled"
        rng = random.Random(seed)
        for _ in range(VERIFY_SAMPLES):
            code = rng.randrange(f.domain.size)
            assert f(code) == composed(code), f"factorization identity failed at {code}"

    return Factorization(
        f=f,
        g=g,
        terms=terms,
        coefficient_matrix=tuple(tuple(row[j] for row in matrix) for j in range(N)),
        mode=mode,
        seed=seed,
    )
