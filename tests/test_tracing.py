"""The benchmark's tracer around traced `duality` runs.

bench/tracing.py counts what `duality.dual_of` and `duality.double_dual`
return, so those results must keep the shapes it reads: `.homs`,
`.ego.relations` and an iterable `.lifted` on the dual, a list of maps from
the double dual.  The tracer is loaded from its file and not changed.
"""

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from adual import cli, duality

ROOT = Path(__file__).resolve().parents[1]

# The graph of x + y + z and the zero tuple: a partial alter ego of z2 that
# passes up to k_max = 2.
PARTIAL_Z2 = "relation sum 4 over z2\n" + "".join(
    f"t {x} {y} {z} {x ^ y ^ z}\n" for x in (0, 1) for y in (0, 1) for z in (0, 1)
) + "relation zero 4 over z2\nt 0 0 0 0\n"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("partial", [False, True], ids=["complete", "partial"])
def test_traced_duality_run_counts_every_evaluated_subalgebra(partial, tmp_path, count_calls):
    argv = ["duality", str(ROOT / "data" / "z2.alg"), "--max-power", "2"]
    if partial:
        path = tmp_path / "z2.rel"
        path.write_text(PARTIAL_Z2)
        argv += ["--partial-relations", str(path)]
    evaluated = count_calls(duality.evaluate_subalgebra)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        tracer.begin_pass()
        tracer.begin_job()
        with redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    finally:
        tracer.uninstall()
    (m,) = tracer.per_pass()
    assert code == 0
    assert m["cli.main.calls"] == 1
    assert m["duality.dual_of.calls"] == len(evaluated) >= 1
    # a PASS: each double dual is exactly e(B)
    assert m["duality.double_dual.survivors"] == sum(len(B.carrier) for B, *_ in evaluated)
    assert (m["duality.dual_of.lifted_tuples"] > 0) == partial
