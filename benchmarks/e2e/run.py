"""Script entry of the end-to-end benchmark (see ``cli.py``).

Run from the checkout root: ``python3 benchmarks/e2e/run.py --workload
NAME --seed N``.  It needs the repository's ``src`` tree beside it and
exits with status 2 when that is missing.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"benchmark: no simulator sources under {ROOT}/src",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from benchmarks.e2e.cli import main
    sys.exit(main())
