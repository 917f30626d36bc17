import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from adual import affine, core, zoo

# Every Hypothesis test draws the same examples on every run, and none has a
# time limit per example (timings on a shared machine vary too much).
settings.register_profile("adual", derandomize=True, deadline=None)
settings.load_profile("adual")


def serialize_algebra(A):
    """An `algebra` block of A, as `textio.parse_document` reads it."""
    out = [f"algebra {A.name}", f"size {A.size}"]
    for o in A.ops:
        out.append(f"op {o.name} {o.arity}")
        out.append(" ".join(str(v) for v in o.table))
    return "\n".join(out) + "\n"


@pytest.fixture(scope="session")
def z2():
    return zoo.cyclic_group(2)


@pytest.fixture(scope="session")
def z3():
    return zoo.cyclic_group(3)


@pytest.fixture(scope="session")
def z4():
    return zoo.cyclic_group(4)


@pytest.fixture(scope="session")
def z6():
    return zoo.cyclic_group(6)


@pytest.fixture(scope="session")
def v4():
    return zoo.klein_group()


@pytest.fixture(scope="session")
def s3():
    return zoo.symmetric_group_3()


@pytest.fixture(scope="session")
def semilattice():
    return zoo.two_element_semilattice()


@pytest.fixture(scope="session")
def terms(z2, z3, z4, z6, v4):
    return {A.name: affine.find_affine_term(A) for A in (z2, z3, z4, z6, v4)}


@pytest.fixture(scope="session")
def relabeled():
    """A -> the copy of A under x -> perm[x], under A's name but with other tables."""

    def relabel(A, perm):
        ops = []
        for o in A.ops:
            table = [0] * len(o.table)
            for args in itertools.product(range(A.size), repeat=o.arity):
                table[core.encode_tuple([perm[a] for a in args], A.size)] = perm[o(*args)]
            ops.append(core.Operation(o.name, o.arity, A.size, table))
        return core.FiniteAlgebra(A.name, A.size, ops)

    return relabel


@pytest.fixture()
def count_calls(monkeypatch):
    """fn -> a list that gets the arguments of each call of fn, through any adual module."""

    def install(fn):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "adual" or name.startswith("adual."):
                for key, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, key, counted)
        return calls

    return install


@pytest.fixture(scope="session")
def under_optimize():
    """(script, *args) -> the standard output of `python -O -c script args`.

    The script imports adual from this checkout's sources; a nonzero exit
    fails the calling test with the script's standard error.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def run(script, *args):
        done = subprocess.run(
            [sys.executable, "-O", "-c", script, *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run
