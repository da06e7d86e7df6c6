"""End-to-end benchmark of the code that trains and predicts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/`` next
to this directory and driven only through its public functions:
``hot.train.gen_synthetic``, ``hot.train.train_model`` and
``HOTModel.initialize/save/load/predict``.  The workloads are described in
``workloads.py`` and ``README.md``.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the same run is traced (``spans.py``)
and the object holds the per-layer metrics.  The exit code is 0 whenever a
result is printed, and ``correct`` tells whether every check passed; it is 2
when the program's sources are missing or an argument is invalid.
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before numpy loads: a single closed-loop caller,
# not competing with itself for the machine's cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


@contextmanager
def _tracing(enabled: bool):
    if not enabled:
        yield None
        return
    from spans import Tracer

    tracer = Tracer()
    with tracer.installed():
        yield tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hot" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'hot'})", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    t0 = perf_counter()
    import hot.model  # noqa: F401  (the program's import cost is part of set-up)
    import hot.train  # noqa: F401
    import_s = perf_counter() - t0

    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    with _tracing(bool(args.trace)) as tracer:
        run = Run(WORKLOADS[args.workload], args.seed, args.seconds, tracer, import_s)
        run.run()
    print(json.dumps(run.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
