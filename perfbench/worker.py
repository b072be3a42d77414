"""One pass of one workload, in a fresh process (started by run.py).

Protocol on standard output: the line "ready" as soon as ratbase is
imported and the AdeleContexts exist (run.py times the set-up up to that
line), then one JSON line with the pass's measurements.  With --setup-only
the process exits right after "ready".  ratbase comes from PYTHONPATH,
which run.py points at the checkout's src/.
"""

import sys

import ratbase
import ratbase.cli
from ratbase import AdeleContext, Base

# set-up, as a command-line user pays it: the imports (numpy among them)
# and the contexts
CONTEXTS = {(a, b): AdeleContext(Base(a, b))
            for a, b in ((3, 2), (5, 2), (5, 3), (7, 4), (10, 1))}
print("ready", flush=True)

if __name__ == "__main__":
    from harness import main

    sys.exit(main(ratbase, CONTEXTS))

