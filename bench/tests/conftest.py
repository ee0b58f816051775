import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
# the benchmark's modules, the package sources, and the repository's test oracles
sys.path[:0] = [BENCH, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
