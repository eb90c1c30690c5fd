"""Self-tests of the benchmark: deterministic generators, oracles with
known values, oracles against the library on the cases they stand in
for, equal traced and untraced digests, and the result-line contract.

    python3 -m pytest -q bench
"""
import itertools
import json
import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles                                          # noqa: E402
import run                                              # noqa: E402
from layertrace import COUNTERS, LAYERS, Tracer         # noqa: E402
from workloads import WORKLOADS, CATALOG_SPACES, leq_of  # noqa: E402


def first_blocks(name, seed, n=2):
    return list(itertools.islice(WORKLOADS[name].blocks(seed), n))


def test_generators_are_deterministic_per_seed():
    for name in WORKLOADS:
        assert first_blocks(name, 7) == first_blocks(name, 7)
        assert first_blocks(name, 7) != first_blocks(name, 8)


def test_blocks_hold_one_job_per_cell():
    for name, w in WORKLOADS.items():
        for block in first_blocks(name, 3, 3):
            assert len(block) == len(w.cells)


def test_elementary_divisors_known_matrix():
    rows = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    assert oracles.elementary_divisors(rows, 3) == [2, 6, 12]
    assert oracles.elementary_divisors([[0, 0], [0, 0]], 2) == []


def test_cohomology_oracle_pseudo_circle_z3():
    pts, less = CATALOG_SPACES["pseudo-circle"]
    assert oracles.simplicial_cohomology(pts, leq_of(less), 3, 2) == \
        [[3], [3], []]


def test_cohomology_oracle_pseudo_sphere_z2():
    pts, less = CATALOG_SPACES["pseudo-sphere-6"]
    assert oracles.simplicial_cohomology(pts, leq_of(less), 2, 3) == \
        [[2], [], [2], []]


def test_ext_oracle_z4_z2_z2_every_degree():
    assert [oracles.ext_zmod(4, 2, 2, k) for k in range(6)] == [2] * 6


def test_baer_oracle():
    assert oracles.baer_zmod(4, 2) is False
    assert oracles.baer_zmod(6, 2) is True
    assert oracles.baer_zmod(12, 4) is True
    assert oracles.baer_zmod(12, 6) is False


def test_delta0_oracle():
    bounded = ("q", "forall", "Set", "a0", ("in", "v1", "a0"), "v1")
    free = ("q", "exists", "Set", None, ("eq", "v1", "a0"), "v1")
    assert oracles.formula_delta0(bounded)
    assert not oracles.formula_delta0(("bin", "and", bounded, free))


def test_skyscraper_oracle_against_library():
    """H^0 = A and H^k = 0 for a pushforward from a point: 25 cases."""
    gw = run.load_groundwork()
    w = WORKLOADS["cohomology"]
    rng = random.Random(20261017)
    cases = 0
    while cases < 25:
        spec = w.draw(rng, ("sky", rng.choice([2, 3]), (1, 400)))
        job = w.build(gw, w.context(gw), spec)
        _, answer = w.run(gw, job)
        assert w.check(spec, job, answer) is None, spec
        cases += 1


def test_baer_oracle_against_library():
    gw = run.load_groundwork()
    for n in (4, 6, 8, 9, 12):
        R = gw.modres.ring_zmod(n)
        for k in [d for d in range(2, n) if n % d == 0]:
            ok, _ = gw.modres.baer_check(gw.modres.zmod_module(R, k))
            assert ok == oracles.baer_zmod(n, k), (n, k)


def _digest_of_first_block(name, tracer_on):
    w = WORKLOADS[name]
    gw = run.load_groundwork()
    tracer = None
    if tracer_on:
        tracer = Tracer(vars(gw))
        tracer.install()
    try:
        ctx = w.context(gw)
        block = next(w.blocks(5))
        records = []
        for i, spec in enumerate(block):
            job = w.build(gw, ctx, spec)
            if tracer:
                tracer.begin_job(i, spec[0])
            dt, _, lines, answer, exc = run.run_job(w, gw, spec, job)
            if tracer:
                tracer.end_job()
            records.append(run.Record(w, spec, job, dt, lines, answer, exc))
            assert records[-1].problem is None, records[-1].problem
    finally:
        if tracer:
            tracer.uninstall()
    return run.digest(records, len(records)), tracer


def test_traced_and_untraced_digests_are_equal():
    for name in WORKLOADS:
        plain, _ = _digest_of_first_block(name, False)
        traced, tracer = _digest_of_first_block(name, True)
        assert plain == traced, name
        metrics = tracer.metrics(os.path.join(run.SRC, "groundwork"))
        for layer in LAYERS:
            assert metrics[layer + ".lines"][0] > 0
        assert all(c in metrics for c in COUNTERS)


def test_tracer_uninstall_restores_the_library():
    gw = run.load_groundwork()
    before = (gw.intmat.snf, gw.fpgroup.int_solve,
              gw.intmat.IntMatrix.__dict__["mul"])
    tracer = Tracer(vars(gw))
    tracer.install()
    assert gw.fpgroup.int_solve is not before[1]
    tracer.uninstall()
    assert (gw.intmat.snf, gw.fpgroup.int_solve,
            gw.intmat.IntMatrix.__dict__["mul"]) == before


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py")] + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_result_line_contract():
    root = os.path.dirname(HERE)
    proc = _bench(root, "--workload", "sites", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= run.MIN_JOBS
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_fails_without_the_program(tmp_path):
    root = os.path.dirname(HERE)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    proc = _bench(str(tmp_path), "--workload", "les", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
