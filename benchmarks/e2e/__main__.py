"""``PYTHONPATH=src python -m benchmarks.e2e --seed N [--workload NAME]``."""

import sys

from .cli import main

sys.exit(main())
