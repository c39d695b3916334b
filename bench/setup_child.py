"""One CLI call in a fresh interpreter, timed by the speed probe.

    PYTHONPATH=src python3 bench/setup_child.py --json bound --grass 4 29

Prints the answer on standard output and the probe's slice times, as a JSON
list, on standard error.
"""

import json
import sys

from speed import SpeedProbe

with SpeedProbe(interval=0.005) as probe:
    from grassdef.cli import main

    code = main(sys.argv[1:])
print(json.dumps(probe.slices), file=sys.stderr)
sys.exit(code)
