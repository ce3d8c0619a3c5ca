"""Set-up time of one fresh interpreter: import ``staircase`` and
``staircase.cli``, then generate a workload's inputs.

Prints the elapsed seconds.  Nothing is imported before the package, so its
import cost (and that of everything it imports) is measured in full; the
import of the benchmark's own generator module is not counted.
"""

import sys
import time
from pathlib import Path


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    bench = Path(__file__).resolve().parent
    sys.path.insert(0, str(bench.parent / "src"))
    sys.path.insert(0, str(bench))

    start = time.perf_counter()
    import staircase  # noqa: F401
    import staircase.cli  # noqa: F401
    imported = time.perf_counter()

    import workloads

    start_gen = time.perf_counter()
    workloads.build(name, seed)
    print(repr(imported - start + time.perf_counter() - start_gen))
    return 0


if __name__ == "__main__":
    sys.exit(main())
