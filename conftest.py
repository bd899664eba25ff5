"""Settings for every test run, from any directory and any invocation.

No run writes bytecode caches into the checkout, nor do the subprocesses it
starts (the environment variable reaches them): a cache in src/hybridsis
lowers what perfbench measures when the benchmark later runs from the same
tree.  This file is loaded before any test module imports the package.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
