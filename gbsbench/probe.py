"""Fresh-interpreter set-up probe, started by run.py several times per run.

Usage: python3 gbsbench/probe.py <workload> <work dir>

Imports ``gbs_toolkit.cli``, then runs the workload's warm-up jobs (the
first-call lazy work a user's first solve pays) and prints one JSON line:
the import time, the time spent making warm-up inputs (excluded from set-up)
and ``time.monotonic()`` when the process was ready for its first timed job.
The parent compares that with the monotonic time at which it started us.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    name, work = argv
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import gbs_toolkit.cli  # noqa: F401  (the import is what is measured)
    import_s = time.perf_counter() - t0

    import workloads

    t0 = time.perf_counter()
    jobs = workloads.make(name, Path(work)).warmup()
    gen_s = time.perf_counter() - t0
    workloads.run_warmup(jobs)
    print(json.dumps({"import_s": import_s, "gen_s": gen_s, "ready": time.monotonic()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
