"""The benchmark's seed-1 digests, rebuilt in the test run: each
workload's digest jobs go through `bench/run.py`'s own `build_inputs`,
`run_job`, `Record`, `tally` and `digest`, so a change to any report line
those jobs print shows here.  It reads `bench/` and imports the layer
modules already loaded, without `load_groundwork`, which would purge
`sys.modules` under the other tests."""
import importlib
import os
import sys
import types

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import run                                  # noqa: E402
from layertrace import LAYERS               # noqa: E402
from workloads import WORKLOADS             # noqa: E402

DIGESTS = {"cohomology": "30d09a82", "les": "c87bbcc4",
           "rings": "9d6fe1ea", "sites": "e65f9c30"}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_seed_1_digest(name):
    gw = types.SimpleNamespace(**{
        layer: importlib.import_module("groundwork." + layer)
        for layer in LAYERS})
    workload = WORKLOADS[name]
    _, _, jobs = run.build_inputs(workload, gw, 1, workload.trace_jobs)
    records = []
    for spec, job in jobs[:workload.trace_jobs]:
        dt, _, lines, answer, exc = run.run_job(workload, gw, spec, job)
        records.append(run.Record(workload, spec, job, dt, lines, answer,
                                  exc))
    _, correct = run.tally(records)
    assert correct
    assert run.digest(records, workload.trace_jobs).startswith(DIGESTS[name])
