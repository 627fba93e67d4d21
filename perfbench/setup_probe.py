"""Time one cold start in this fresh process.

First the reference import (numpy and scipy.linalg, which dyngraph itself
imports) is timed on its own. Then the program's own set-up is timed:
importing dyngraph, parsing the workload's model and running its first
solve. Generating the inputs is the benchmark's own work and is left out
of the clock.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
Prints {"reference_import_s": seconds, "own_s": seconds} as its last line.
"""

import json
import pathlib
import sys
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent


def main():
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    t0 = perf_counter()
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    t1 = perf_counter()
    import dyngraph
    t2 = perf_counter()

    from workloads import driven_names, generate, make_problem

    urdf, requests = generate(sys.argv[1], int(sys.argv[2]), count=1)
    raw = requests[0]
    t3 = perf_counter()
    model = dyngraph.parse_urdf(urdf)
    state, spec = make_problem(model, driven_names(model), raw)
    dyngraph.solve_dynamics(model, state, spec, raw.ordering)
    t4 = perf_counter()
    print(json.dumps({"reference_import_s": t1 - t0, "own_s": (t2 - t1) + (t4 - t3)}))


if __name__ == "__main__":
    main()
