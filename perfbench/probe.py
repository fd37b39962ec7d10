"""Set-up probe, run in a fresh interpreter by run.py.

    python3 perfbench/probe.py <workload> <seed>

Imports blowuplab, completes the workload's first operation and prints one
JSON line: the monotonic clock at completion, the import time, and the time
the probe spent on its own bookkeeping (reading references), which run.py
subtracts from the set-up time.
"""

import json
import sys
import time


def main():
    t0 = time.monotonic()
    from common import REFS, import_package

    bl = import_package()
    import_s = time.monotonic() - t0

    t1 = time.monotonic()
    import workloads

    refs = json.loads(REFS.read_text())
    wl = workloads.make(sys.argv[1], bl, refs, int(sys.argv[2]))
    own_s = time.monotonic() - t1

    wl.first_op()
    done = time.monotonic()
    print(json.dumps({"done": done, "import_s": import_s, "own_s": own_s}))


if __name__ == "__main__":
    main()
