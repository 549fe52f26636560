"""Set-up probe: time `import simplexconn` and input generation in a fresh process.

Usage: python3 perfbench/probe.py SRC_DIR WORKLOAD SEED

Prints [import_s, setup_s, loop_s, loop_s] as JSON, where setup_s also
counts generating the workload's inputs and the last two are the times of
two runs of the calibration loop made right after, with which run.py
normalizes the first two for the host's speed. run.py starts the probe a
few times per run and reports the median, since one process can import a
package only once.
"""

import json
import sys
import time


def main():
    src, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    start = time.perf_counter()
    sys.path.insert(0, src)
    import simplexconn  # noqa: F401

    imported = time.perf_counter()
    import workloads

    workloads.build(workload, seed)
    done = time.perf_counter()
    import hostspeed

    print(json.dumps([imported - start, done - start,
                      hostspeed.calibration_s(), hostspeed.calibration_s()]))


if __name__ == "__main__":
    main()
