"""Wall time and peak memory of an in-process `curvkind analyze --p half`.

Run from the repository root:

    PYTHONPATH=src python benchmarks/analyze_scan.py 12 13 14

For each n and each input kind (a seeded random tensor written as a --dense
file, and product_sphere n), a fresh Python process imports curvkind, runs
`analyze --p half` through cli.main a few times and prints one JSON line:
the first and the best wall time in ms, and the process's max RSS in MB.
The dimension cap is raised to the largest n asked for through
CURVKIND_NMAX, in the child processes only.
"""

import json
import os
import subprocess
import sys
import tempfile

CHILD = r"""
import contextlib, io, json, resource, sys, time
import numpy as np
from curvkind import random_curvature
from curvkind.cli import main

n, kind, repeats, workdir = int(sys.argv[1]), sys.argv[2], int(sys.argv[3]), sys.argv[4]
if kind == "dense":
    path = f"{workdir}/dense-{n}.json"
    R = random_curvature(n, np.random.default_rng(n))
    with open(path, "w") as f:
        json.dump({"n": n, "components": R.components.ravel().tolist()}, f)
    source = ["--dense", path]
else:
    source = ["--model", json.dumps({"kind": kind, "n": n})]
times = []
for _ in range(repeats):
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["analyze", *source, "--p", "half"])
    times.append(1e3 * (time.perf_counter() - start))
    assert code == 0, code
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"n": n, "kind": kind, "first_ms": round(times[0], 2),
                  "best_ms": round(min(times), 2), "max_rss_mb": round(rss, 1)}))
"""


def main(argv):
    sizes = [int(a) for a in argv] or [12, 13, 14]
    env = dict(os.environ, CURVKIND_NMAX=str(max(sizes)))
    with tempfile.TemporaryDirectory() as workdir:
        for n in sizes:
            for kind in ("dense", "product_sphere"):
                repeats = 2 if n >= 14 else 5
                out = subprocess.run(
                    [sys.executable, "-c", CHILD, str(n), kind, str(repeats), workdir],
                    env=env, check=True, capture_output=True, text=True,
                ).stdout
                print(out.strip(), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
