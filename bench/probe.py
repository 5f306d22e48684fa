"""Set-up probe: import kllab, build one workload's inputs, print "ready".

``run.py`` starts this in a fresh interpreter and times it up to the
"ready" line, which is the cost a user pays before the first unit of work.
Usage: ``python3 bench/probe.py <workload> <seed>``.
"""

import sys

import workloads

workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
print("ready", flush=True)
