"""Factor any morphism A^n -> S through A^(N+1).

N is the size of a generating family of the group on {g: A^2 -> S with
g(x,x) = k(x)}, where k(x) = f(x, .., x) is the diagonal of f; the group and
its greedy family are built here from f.  The slot morphisms
f_i(x,y) = f(y,..,y,x,y,..,y), gathered from f's table at once, decompose
over the generators h_j, the inner terms p_j repackage the n arguments
into N+1, and g recombines generator values, evaluated on all its inputs at
once.  g depends only on the coordinates of the generators that are not
neutral and on the last one, so it is verified as a homomorphism on that
smaller power; the defining identity f = g(p_1, .., p_{N+1}) is verified on
every input of f.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    Homomorphism,
    Operation,
    VerificationError,
    _same_tables,
    apply_coordinatewise,
    decode_code,
    enumerate_homs,
    power_algebra,
    row_blocks,
)
from .affine import (
    AffineTerm,
    affine_combination_array,
    group_from_affine,
    projection_term,
)
from .homgroups import GeneratingFamily, build_hk_group, generating_family


class FactorMap:
    """The morphism g: A^exponent -> S of a factorization, as g = reduced o pi.

    pi: A^exponent -> A^len(coordinates) keeps the increasing `coordinates`.
    It is a homomorphism, so g is one because `reduced`, a Homomorphism on
    A^len(coordinates), is verified at construction.  `mapping` lists g over
    the codes of A^exponent.
    """

    def __init__(self, exponent, coordinates, reduced: Homomorphism):
        size = reduced.domain.power_of.base.size
        shape = [1] * exponent
        for i in coordinates:
            shape[i] = size
        table = reduced.np_mapping.reshape(shape)
        self.coordinates = tuple(coordinates)
        self.reduced = reduced
        # ravel copies the broadcast view into one table of size**exponent cells
        self.mapping = np.broadcast_to(table, (size,) * exponent).ravel()

    def __call__(self, code):
        return int(self.mapping[code])


@dataclass
class Factorization:
    """f together with g, the inner terms p_j, the coefficient matrix u[j][i]
    and the family of N generators that g recombines.

    The identity f = g(p_1..p_{N+1}) is checked on every input of f.  The
    last term is always the first projection.
    """

    f: Homomorphism
    g: FactorMap
    terms: tuple
    coefficient_matrix: tuple
    family: GeneratingFamily

    @property
    def inner_arity(self):
        return len(self.terms)


def _domain_exponent(A, f):
    """The n with f.domain = A^n, compared by tables, not by name.

    The domain is `power_of.base` to the `power_of.exponent`, and that base
    is compared with A.
    """
    power = f.domain.power_of
    if not _same_tables(power.base, A):
        raise ValueError(f"morphism domain is not {A.name}^{power.exponent}")
    return power.exponent


def _telescoping_sum(A, G_S, k_map, maps, ys, z):
    """sum_j (h_j(y_j, z) - h_j(z, z)) + k(z) in G_S, for the map tables h_j on A^2 at the digits y_j, z."""
    args = []
    for h, y in zip(maps, ys):
        args += [apply_coordinatewise(h, A.size, (y, z)), apply_coordinatewise(h, A.size, (z, z))]
    args.append(k_map[z])
    return affine_combination_array(AffineTerm((1, -1) * len(maps) + (1,)), G_S, args)


def _g_values(A, G_S, k_map, generators):
    """The telescoping sum of the generators over every (y_1, .., z), listed by code."""
    *ys, z = decode_code(np.arange(A.size ** (len(generators) + 1)), [A.size] * (len(generators) + 1))
    return _telescoping_sum(A, G_S, k_map, generators, ys, z).tolist()


def _inner_maps(A, G_A, terms, f, digits):
    """Each inner term, summed in G_A on every input of f, whose digits are `digits`, as a map into A."""
    return [Homomorphism(f.domain, A, affine_combination_array(term, G_A, digits)) for term in terms]


def _refuse_domain_of_g(A, N, budget):
    """Refuse the table of g on A^(N+1) before it is made."""
    if A.size ** (N + 1) > budget:
        raise BudgetExceededError(A.size ** (N + 1), budget, hint="domain of g")


def factor_morphism(
    A,
    S,
    t_A: Operation,
    t_S: Operation,
    f: Homomorphism,
    generators=None,
    budget=DEFAULT_BUDGET,
) -> Factorization:
    """Build g and p_1..p_{N+1} with f = g(p_1, .., p_{N+1}) and verify it.

    The family is the greedy generating family of the group built by
    build_hk_group with base morphism k(x) = f(x, .., x), padded with neutral
    generators up to `generators` when that is given; N is its size.  A
    family larger than `generators` raises ValueError.  A failed identity is
    a bug, not a legitimate outcome, and raises VerificationError.  The
    budget bounds the hom group, the table of g and the operation tables of
    the power g is verified on; with `generators` given, the domain of g is
    refused before the group is built.
    """
    n = _domain_exponent(A, f)
    if generators is not None:
        _refuse_domain_of_g(A, generators, budget)
    k_map = apply_coordinatewise(f.np_mapping, A.size, (np.arange(A.size),) * n)
    group = build_hk_group(A, S, t_A, t_S, Homomorphism(A, S, k_map), enumerate_homs(A, S, budget), budget)
    family = generating_family(group)
    if generators is not None:
        if family.size > generators:
            raise ValueError(
                f"N={generators} is below the generating-family size {family.size} "
                f"needed for a quotient of {f.domain.name}"
            )
        family = family.padded(generators)
    square = group.square
    N = family.size

    # Generators equal to the neutral (padding) contribute nothing to g, so g
    # depends only on the active coordinates and z and is verified on that
    # power; both tables are refused here, before any other work.
    _refuse_domain_of_g(A, N, budget)
    active = [j for j in range(N) if family.generators[j] != group.neutral]
    reduced_domain = power_algebra(A, len(active) + 1, budget)

    # slot morphisms f_i(x, y) = f(y, .., x, .., y), x in slot i, and their generator coordinates
    x, y = decode_code(np.arange(square.size), [A.size] * 2)
    in_slot = np.eye(n, dtype=bool)[:, :, None]  # [i, position, code]
    f_slots = apply_coordinatewise(f.np_mapping, A.size, np.moveaxis(np.where(in_slot, x, y), 1, 0))
    slot_index = group.index_of(f_slots)
    if (slot_index < 0).any():
        raise VerificationError("slot morphism escapes the hom group built on its diagonal")
    matrix = [tuple(int(u) for u in family.expressions[int(i)]) for i in slot_index]

    # telescoping identity: f(x) = sum_i (f_i(x_i, x_1) - f_i(x_1, x_1)) + k(x_1)
    # sums in S are taken in the group x + y = t_S(x, 0, y), built once for all of them
    G_S = group_from_affine(t_S, 0)
    digits = decode_code(np.arange(f.domain.size, dtype=np.int64), [A.size] * n)
    tele = _telescoping_sum(A, G_S, k_map, f_slots, digits, digits[0])
    wrong = np.flatnonzero(tele != f.np_mapping)
    if wrong.size:
        raise VerificationError(f"telescoping identity failed at {int(wrong[0])}")

    # inner terms p_j = x_1 + sum_i u_ij (x_i - x_1); the (N+1)-st is the first projection
    coefficients = tuple(tuple(row[j] for row in matrix) for j in range(N))
    terms = [AffineTerm((u[0] + 1 - sum(u),) + u[1:]) for u in coefficients]
    terms = tuple(terms) + (projection_term(n, 0),)
    p_tables = [p.np_mapping for p in _inner_maps(A, group_from_affine(t_A, 0), terms, f, digits)]

    # generator/term exchange identity h(p_j(x), z) = sum_i u_ij h(x_i, z) +
    # (1 - sum_i u_ij) h(x_1, z), on every input x of f and every z, in blocks
    z = np.arange(A.size)
    for j, u in enumerate(coefficients):
        h = group.elements[family.generators[j]]
        exch = AffineTerm(u + (1 - sum(u),))
        for rows in row_blocks(f.domain.size, z.size):
            xs = [d[rows, None] for d in digits]
            args = [apply_coordinatewise(h, A.size, (xi, z)) for xi in xs + xs[:1]]
            lhs = apply_coordinatewise(h, A.size, (p_tables[j][rows, None], z))
            if not np.array_equal(lhs, affine_combination_array(exch, G_S, args)):
                raise VerificationError("generator/term exchange identity failed")

    generators = [group.elements[family.generators[j]] for j in active]
    try:
        reduced = Homomorphism(reduced_domain, S, _g_values(A, G_S, k_map, generators))
    except ValueError as e:
        raise VerificationError(f"g: {e}") from None
    g = FactorMap(N + 1, active + [N], reduced)

    wrong = np.flatnonzero(apply_coordinatewise(g.mapping, A.size, p_tables) != f.np_mapping)
    if wrong.size:
        raise VerificationError(f"factorization identity failed at {int(wrong[0])}")

    return Factorization(
        f=f,
        g=g,
        terms=terms,
        coefficient_matrix=coefficients,
        family=family,
    )
