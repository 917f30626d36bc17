"""Tests for the benchmark's oracles, input generators and tracer.

Run from the root of the checkout: python3 -m pytest bench/tests -q
"""

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import clock  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_gaussian_binomial_known_values():
    assert [oracles.gaussian_binomial(4, k, 2) for k in range(5)] == [1, 15, 35, 15, 1]
    assert oracles.gaussian_binomial(3, 4, 2) == 0
    assert oracles.subspace_count(4, 2) == 67
    assert oracles.subspace_count(4, 3) == 212
    assert sum(oracles.subspace_count(k, 2) for k in range(1, 5)) == 90
    assert sum(oracles.subspace_count(k, 3) for k in range(1, 3)) == 8


@pytest.mark.parametrize("moduli", [(2,), (2, 2), (3, 3), (2, 2, 2), (2, 2, 2, 2)])
def test_subgroup_count_matches_subspace_count(moduli):
    q, n = moduli[0], len(moduli)
    assert oracles.subgroup_count(moduli) == oracles.subspace_count(n, q)


def test_subgroup_count_non_elementary():
    assert oracles.subgroup_count((4, 4)) == 15  # p^2 + 3p + 5 for Z_{p^2}^2
    assert oracles.subgroup_count((6, 6)) == 5 * 6  # coprime parts multiply


def test_span_is_the_generated_subgroup():
    moduli = (4, 4)
    S = oracles.span(moduli, [(1, 2)])
    assert S == [(0, 0), (1, 2), (2, 0), (3, 2)]
    members = set(S)
    for x in S:
        for y in S:
            assert tuple((a + b) % m for a, b, m in zip(x, y, moduli)) in members
    assert oracles.span((3, 3), []) == [(0, 0)]
    assert len(oracles.span((2, 2, 2, 2), [(1, 1, 0, 0), (0, 1, 1, 1)])) == 4


def test_hom_count_gcd_product():
    assert oracles.hom_count((2, 2), (6,)) == 4
    assert oracles.hom_count((4,), (6,)) == 2
    assert oracles.hom_count((6,), (6,)) == 6
    assert oracles.hom_count((3,), (2, 2)) == 1
    assert oracles.hom_count((2, 2), (2, 2)) == 16


def test_arity_bound():
    assert [oracles.arity_bound(n) for n in (2, 3, 4, 6, 8, 12)] == [4, 4, 9, 4, 28, 9]


def test_unary_refuter():
    below = {(0, 0), (0, 1)}
    assert oracles.unary_refuter_exists(2, [], below)  # x -> 1 leaves it
    assert not oracles.unary_refuter_exists(2, [below], below)
    diagonal = {(0, 0), (1, 1), (2, 2)}
    assert not oracles.unary_refuter_exists(3, [], diagonal)


def test_relabel_round_trip_and_tables():
    size, ops = workloads.group_tables((2, 2))
    assert ops[0][2] == [0, 1, 2, 3, 1, 0, 3, 2, 2, 3, 0, 1, 3, 2, 1, 0]
    perm = [2, 0, 3, 1]
    inverse = [perm.index(x) for x in range(size)]
    moved = workloads.relabel(size, ops, perm)
    assert moved != ops
    assert workloads.relabel(size, moved, inverse) == ops
    size, ops = workloads.s3_tables()
    mul = ops[2][2]
    assert len(set(mul)) == 6 and any(mul[a * 6 + b] != mul[b * 6 + a] for a in range(6) for b in range(6))


def test_symmetric_image_keeps_the_subgroup_size():
    import random

    rng = random.Random(0)
    gens = [(1, 0, 1), (0, 1, 3)]
    for _ in range(10):
        assert len(oracles.span((4,) * 3, workloads.symmetric_image(4, gens, rng))) == 16


def test_cert_block_drops_the_summary_lines():
    out = "# adual entail\ncert r-cert over z2 base 2\n  neutral 0\npremises 1 of arity <= 4\nENTAIL PASS\n"
    assert workloads.cert_block(out) == "cert r-cert over z2 base 2\n  neutral 0\n"


def test_clock_speed_is_relative_to_the_reference():
    sampler = clock.Sampler()
    sampler.samples = [(2 * clock.REFERENCE_S, 2 * clock.REFERENCE_S), (clock.REFERENCE_S, clock.REFERENCE_S)]
    assert sampler.speed(0) == pytest.approx((0.75, 0.75))
    assert sampler.speed(1) == pytest.approx((1.0, 1.0))
    assert sampler.speed(2) > (0, 0)  # no samples yet: takes one
    assert len(sampler.samples) == 3


def test_clock_samples_on_the_timer_and_leaves_them_out():
    import time

    sampler = clock.Sampler(interval=0.01)
    sampler.start()
    try:
        watch = clock.Stopwatch(sampler)
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        wall, cpu = watch.read()
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 5
    assert sampler.spent_wall > 0
    assert wall == pytest.approx(time.perf_counter() - t0 - sampler.spent_wall, abs=0.01)
    assert 0 < cpu <= wall + 0.01


def test_tracer_wraps_every_binding_and_counts():
    import adual.cli
    import adual.core
    import adual.duality

    original = adual.core.enumerate_homs
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert adual.duality.enumerate_homs is adual.core.enumerate_homs
        assert adual.cli.enumerate_homs is adual.core.enumerate_homs
        assert adual.core.enumerate_homs.__wrapped__ is original
        tracer.begin_pass()
        tracer.begin_job()
        with redirect_stdout(io.StringIO()):
            assert adual.cli.main(["hom", str(ROOT / "data" / "z2.alg"), str(ROOT / "data" / "z4.alg")]) == 0
    finally:
        tracer.uninstall()
    assert adual.core.enumerate_homs is original
    (m,) = tracer.per_pass()
    assert m["cli.main.calls"] == 1
    searches = m["core.enumerate_homs.calls"]  # `hom` also searches inside its bound checks
    assert searches >= 1
    assert m["core.enumerate_homs.homs"] == 2 * searches  # Hom(Z2, Z4) has 2 members
    assert m["core.enumerate_homs.assignments"] == 4 * searches  # one generator, 4 images
    assert m["core.enumerate_homs.hit_ratio"] == 0.5
    assert m["textio.parse_document.calls"] == 2
    assert m["cli.main.self_s"] >= 0
    assert set(m) | {"trace.overhead_s"} == set(tracing.metric_units())


def test_smoke_runs_one_checked_job_per_workload():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == len(workloads.WORKLOADS) + 1  # certify adds a replay
