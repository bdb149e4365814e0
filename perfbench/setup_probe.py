"""Set-up time in a fresh interpreter: ``import hypiss`` plus loading and
building the given scenario files, as the CLI would before its first
command.  Prints the seconds taken.

    python3 setup_probe.py <repo root> <scenario file>[@J] ...
"""

import sys
import time

start = time.perf_counter()
root, jobs = sys.argv[1], sys.argv[2:]
sys.path.insert(0, f"{root}/src")

import hypiss  # noqa: E402  (timed on purpose)

for job in jobs:
    path, _, J = job.partition("@")
    hypiss.load_scenario(path).build(J=int(J) if J else None)
print(time.perf_counter() - start)
