"""Seeded inputs, CLI jobs and output checks for the four benchmark workloads.

Every input is written as an adual text file from tables computed here, so
the program only ever sees the generated files.  The seed varies only what
leaves the amount of work unchanged: it moves relations and hom coefficients
by symmetries (coordinate permutations, unit multiples) and relabels the
elements of the homgroups algebras, keeping 0 and 1 in place in the groups.
Free relabeling would not do: `duality z2 --max-power 4` takes 12.6 s with
0 and 1 swapped against 20 s as given, and the Z4 certificate jobs vary by
up to 2x.  The duality inputs are therefore the same for every seed.  The
checks use invariants (counts, verdicts) that none of these moves change.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import partial
from math import gcd
from pathlib import Path
from typing import Callable, Optional

import oracles

GROUPS = {"z2": (2,), "z3": (3,), "z4": (4,), "v4": (2, 2), "z6": (6,)}


@dataclass
class Job:
    """One `adual` invocation and the oracle its output must satisfy.

    `check(exit_code, stdout)` returns a description of the first problem,
    or None.  `then(stdout)` builds a follow-up job from a passing output.
    """

    name: str
    argv: list
    check: Callable[[int, str], Optional[str]]
    then: Optional[Callable[[str], "Job"]] = None


@dataclass
class Algebra:
    name: str
    size: int
    perm: tuple  # element x of the defining tables is written as perm[x]
    path: str


# ---------------------------------------------------------------------------
# Algebra tables and files
# ---------------------------------------------------------------------------


def encode(values, size):
    code = 0
    for v in values:
        code = code * size + v
    return code


def group_tables(moduli):
    """(size, ops) of Z_m1 x .. x Z_mk with add, neg and zero, lexicographic codes."""
    elements = list(itertools.product(*(range(m) for m in moduli)))
    index = {e: i for i, e in enumerate(elements)}
    add = [
        index[tuple((a + b) % m for a, b, m in zip(x, y, moduli))]
        for x in elements
        for y in elements
    ]
    neg = [index[tuple((-a) % m for a, m in zip(x, moduli))] for x in elements]
    zero = index[tuple(0 for _ in moduli)]
    return len(elements), [("add", 2, add), ("neg", 1, neg), ("zero", 0, [zero])]


def s3_tables():
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    mul = [index[tuple(p[q[i]] for i in range(3))] for p in perms for q in perms]
    inv = [index[tuple(sorted(range(3), key=lambda i: p[i]))] for p in perms]
    return 6, [("e", 0, [index[(0, 1, 2)]]), ("inv", 1, inv), ("mul", 2, mul)]


def meet2_tables():
    return 2, [("meet", 2, [0, 0, 0, 1])]


def relabel(size, ops, perm):
    """The same operations with element x renamed perm[x]."""
    out = []
    for name, arity, table in ops:
        new = [0] * len(table)
        for i, args in enumerate(itertools.product(range(size), repeat=arity)):
            new[encode([perm[a] for a in args], size)] = perm[table[i]]
        out.append((name, arity, new))
    return out


def algebra_text(name, size, ops):
    lines = [f"algebra {name}", f"size {size}"]
    for op, arity, table in ops:
        lines.append(f"op {op} {arity}")
        lines.append(" ".join(map(str, table)))
    return "\n".join(lines) + "\n"


def relation_text(name, arity, algebra, tuples):
    rows = "".join("t " + " ".join(map(str, t)) + "\n" for t in tuples)
    return f"relation {name} {arity} over {algebra}\n{rows}"


def write_algebra(workdir, name, tables, rng=None, fixed=0):
    """Write the algebra with its elements relabeled by a seeded permutation.

    Labels below `fixed` keep their place; without `rng` no label moves.
    """
    size, ops = tables
    perm = list(range(size))
    if rng is not None:
        rest = perm[fixed:]
        rng.shuffle(rest)
        perm[fixed:] = rest
    path = Path(workdir) / f"{name}.alg"
    path.write_text(algebra_text(name, size, relabel(size, ops, perm)))
    return Algebra(name, size, tuple(perm), str(path))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def expect(code, out, exit_code, *needles):
    if code != exit_code:
        return f"exit {code}, expected {exit_code}"
    for needle in needles:
        if needle not in out:
            return f"missing {needle!r}"
    return None


def check_count(pattern, expected, code, out):
    problem = expect(code, out, 0)
    if problem:
        return problem
    m = re.search(pattern, out, re.MULTILINE)
    if not m:
        return f"no line matching {pattern!r}"
    if int(m.group(1)) != expected:
        return f"{pattern!r} gave {m.group(1)}, expected {expected}"
    return None


def check_duality(relations, reports, code, out):
    problem = check_count(r"^DUALITY PASS k_max=\d+ relations=(\d+) ", relations, code, out)
    if problem:
        return problem
    b = re.findall(r"^B <= A\^\d+, \|B\| = (\d+),", out, re.MULTILINE)
    dd = re.findall(r"^\|B\*\+\| = (\d+)$", out, re.MULTILINE)
    if len(b) != reports or len(dd) != reports:
        return f"{len(b)} subalgebra reports, expected {reports}"
    if b != dd:
        return "some |B*+| differs from |B|"
    if out.count("evaluation map: bijective") != reports:
        return "some evaluation map is not bijective"
    return None


def check_sub(moduli, code, out):
    # counted when checked, so the brute-force oracle stays out of set-up time
    return check_count(r"^count (\d+)$", oracles.subgroup_count(moduli), code, out)


def check_refute(verdict, code, out):
    problem = expect(code, out, 0)
    if problem:
        return problem
    last = out.strip().splitlines()[-1]
    return None if last == verdict else f"verdict {last!r}, expected {verdict!r}"


def cert_block(entail_out):
    """The `cert` block of `entail` output, without the trailing summary lines.

    `entail` prints `premises ...` and `ENTAIL PASS` after the block, and
    `replay` rejects those lines as input (exit 2), so only the block is
    passed on.
    """
    lines = entail_out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("cert "))
    end = next(i for i, line in enumerate(lines) if line.startswith("premises "))
    return "\n".join(lines[start:end]) + "\n"


def check_replay(code, out):
    problem = expect(code, out, 0)
    if problem:
        return problem
    verdicts = re.findall(r"^cert \S+: (\S+)$", out, re.MULTILINE)
    if not verdicts or set(verdicts) != {"PASS"}:
        return f"replay verdicts {verdicts}"
    return None


def replay_job(cert_path, entail_out):
    Path(cert_path).write_text(cert_block(entail_out))
    return Job(f"replay {Path(cert_path).name}", ["replay", cert_path], check_replay)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def duality_jobs(workdir, name, p, max_power, arity=None):
    A = write_algebra(workdir, name, group_tables((p,)))
    argv = ["duality", A.path, "--max-power", str(max_power)]
    if arity:
        argv += ["--arity", str(arity)]
    N = arity or oracles.arity_bound(p)
    relations = oracles.subspace_count(N, p)
    reports = sum(oracles.subspace_count(k, p) for k in range(1, max_power + 1))
    return [Job(f"duality {name} k={max_power}", argv, partial(check_duality, relations, reports))]


def duality_z3(workdir, rng, smoke=False):
    if smoke:
        return duality_jobs(workdir, "z3", 3, 1, arity=3)
    return duality_jobs(workdir, "z3", 3, 2)


def duality_z2(workdir, rng, smoke=False):
    return duality_jobs(workdir, "z2", 2, 2 if smoke else 4)


def symmetric_image(n, gens, rng):
    """`gens` under a seeded coordinate permutation and unit multiple x -> u*x.

    Both are symmetries of every question the workloads ask, so each seed
    gets different tuples but the same amount of work.
    """
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    u = rng.choice(units)
    order = list(range(len(gens[0])))
    rng.shuffle(order)
    return [tuple(u * g[i] % n for i in order) for g in gens]


def relation_file(path, name, A, tuples):
    Path(path).write_text(
        relation_text(name, len(tuples[0]), A.name, [tuple(A.perm[v] for v in t) for t in tuples])
    )
    return str(path)


# Relations for `entail`: subgroups of Z_n^k given by (n, generators).
CERTIFY_RELATIONS = [
    (2, [(1, 1, 0, 0), (0, 1, 1, 1)]),
    (2, [(1, 0, 1, 0), (0, 1, 1, 0), (0, 0, 1, 1)]),
    (3, [(1, 2, 0)]),
    (3, [(1, 1, 0), (0, 1, 2)]),
    (4, [(1, 0, 1), (0, 1, 3)]),
    (4, [(1, 2, 1), (0, 2, 2)]),
]

# Hom tables x -> sum(a_i x_i) from Z_m^n to Z_s as (m, s, coefficients);
# s divides m, so every coefficient vector gives a homomorphism.
FACTORIZE_SPECS = [
    (2, 2, (1, 1, 1)),
    (2, 2, (1, 0, 1, 1)),
    (3, 3, (1, 2)),
    (3, 3, (1, 1, 2)),
    (4, 2, (1, 1)),
    (4, 4, (1, 2)),
    (4, 4, (1, 1, 3)),
]

# refute jobs as (n, --arity, premise generators, target generators).  None
# is the diagonal, which every map preserves, so no witness can exist; for
# the last job (premise 0 x Z3, target the graph of x -> -x) a brute-force
# search over unary maps decides, and finds one.
REFUTE_SPECS = [
    (2, 2, [(0, 1)], None),
    (3, 2, [(0, 1)], None),
    (3, 1, [(0, 1)], [(1, 2)]),
]


def certify(workdir, rng, smoke=False):
    work = Path(workdir)
    algebras = {n: write_algebra(workdir, f"z{n}", group_tables((n,))) for n in (2, 3, 4)}
    jobs = []
    for i, (n, gens) in enumerate(CERTIFY_RELATIONS):
        A, k = algebras[n], len(gens[0])
        R = oracles.span((n,) * k, symmetric_image(n, gens, rng))
        path = relation_file(work / f"r{i}.rel", f"r{i}", A, R)
        jobs.append(
            Job(
                f"entail r{i} (|R|={len(R)} in Z{n}^{k})",
                ["entail", A.path, path, "--arity", "3"],
                lambda code, out: expect(code, out, 0, "ENTAIL PASS"),
                then=partial(replay_job, str(work / f"r{i}.cert")),
            )
        )
    if smoke:
        return jobs[:1]

    for i, (m, s, base) in enumerate(FACTORIZE_SPECS):
        (coeffs,) = symmetric_image(s, [base], rng)
        n = len(coeffs)
        src, dst = algebras[m], algebras[s]
        mapping = [0] * m**n
        for x in itertools.product(range(m), repeat=n):
            value = sum(a * v for a, v in zip(coeffs, x)) % s
            mapping[encode([src.perm[v] for v in x], m)] = dst.perm[value]
        text = Path(src.path).read_text()
        if dst is not src:
            text += Path(dst.path).read_text()
        text += f"hom f{i} from {src.name} power {n} to {dst.name}\nm " + " ".join(map(str, mapping)) + "\n"
        hom_path = work / f"f{i}.hom"
        hom_path.write_text(text)
        jobs.append(
            Job(
                f"factorize f{i} (Z{m}^{n} -> Z{s})",
                ["factorize", str(hom_path)],
                lambda code, out: expect(
                    code, out, 0, "identity verified: exhaustive", "FACTORIZE PASS"
                ),
            )
        )

    for i, (n, arity, premise_gens, target_gens) in enumerate(REFUTE_SPECS):
        A = algebras[n]
        premise = oracles.span((n, n), symmetric_image(n, premise_gens, rng))
        if target_gens is None:
            target = [(x, x) for x in range(n)]
            verdict = "NO-WITNESS"
        else:
            target = oracles.span((n, n), symmetric_image(n, target_gens, rng))
            found = oracles.unary_refuter_exists(n, [set(premise)], set(target))
            verdict = "REFUTED" if found else "NO-WITNESS"
        p_path = relation_file(work / f"p{i}.rel", f"p{i}", A, premise)
        t_path = relation_file(work / f"q{i}.rel", f"q{i}", A, target)
        jobs.append(
            Job(
                f"refute p{i} q{i} over z{n}",
                ["refute", A.path, "--premises", p_path, "--target", t_path, "--arity", str(arity)],
                partial(check_refute, verdict),
            )
        )
    return jobs


def homgroups(workdir, rng, smoke=False):
    # 0 stays the zero and 1 a generator of largest order, so the greedy
    # generating sets, and with them the hom searches, keep their size.
    algebras = {
        name: write_algebra(workdir, name, group_tables(m), rng, fixed=2) for name, m in GROUPS.items()
    }
    others = {
        "s3": write_algebra(workdir, "s3", s3_tables(), rng),
        "meet2": write_algebra(workdir, "meet2", meet2_tables(), rng),
    }
    jobs = []
    for a, b in itertools.product(GROUPS, repeat=2):
        files = [algebras[a].path] if a == b else [algebras[a].path, algebras[b].path]
        count = oracles.hom_count(GROUPS[a], GROUPS[b])
        jobs.append(Job(f"hom {a} {b}", ["hom", *files], partial(check_count, r"^count (\d+)$", count)))
        jobs.append(
            Job(f"hk {a} {b}", ["hk", *files], partial(check_count, r"^group order (\d+),", count))
        )
    if smoke:
        return jobs[:1]
    for name, A in algebras.items():
        jobs.append(
            Job(f"galois {name}", ["galois", A.path], lambda code, out: expect(code, out, 0, "GALOIS PASS"))
        )
        jobs.append(
            Job(
                f"sub {name}",
                ["sub", A.path, "--max-power", "2"],
                partial(check_sub, GROUPS[name] * 2),
            )
        )
    for name, A in {**algebras, **others}.items():
        if name in others:
            check = lambda code, out: expect(code, out, 1, "FAIL")
        else:
            check = lambda code, out, name=name: expect(code, out, 0, f"PASS: {name} is affine")
        jobs.append(Job(f"check-abelian {name}", ["check-abelian", A.path], check))
        jobs.append(
            Job(
                f"bound {name}",
                ["bound", A.path],
                partial(check_count, r"^N = (\d+)$", oracles.arity_bound(A.size)),
            )
        )
    return jobs


WORKLOADS = {
    "duality-z3": duality_z3,
    "duality-z2": duality_z2,
    "certify": certify,
    "homgroups": homgroups,
}
