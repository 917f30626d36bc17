"""One set-up probe, started by run.py in a fresh interpreter.

    python3 bench/probe.py DIR WORKLOAD SEED

Imports the benchmark and adual and writes the workload's inputs under DIR,
with a `clock.Sampler` taking speed samples from the first line on.  Then
prints `ready <seconds the samples took> <mean wall speed>` so that the
caller can time the set-up at the reference speed.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import clock  # noqa: E402

sampler = clock.Sampler(interval=0.005)
sampler.start()

from pathlib import Path  # noqa: E402

import run  # noqa: E402

run.load_adual()
run.make_jobs(sys.argv[2], int(sys.argv[3]), Path(sys.argv[1]))
sampler.stop()
print("ready", sampler.spent_wall, sampler.speed()[0], flush=True)
