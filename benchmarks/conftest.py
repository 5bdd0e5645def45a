"""Make the benchmarks directory, and the test suite's shared helpers
(the eager training reference lives there), importable as plain modules."""

import os
import sys

HERE = os.path.dirname(__file__)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "tests"))
sys.path.insert(0, HERE)
