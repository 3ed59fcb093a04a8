"""Speed sampler: times a fixed piece of pure-Python work at a steady pace.

    python3 perfbench/sampler.py OUT.json

Run on the same CPU as the program under test, it shares that CPU's speed
from moment to moment: on a virtual machine whose host is busy elsewhere,
both slow down together.  Every PERIOD_S it wakes, runs ``unit`` and records
[start, duration].  On SIGTERM it writes the samples to OUT.json and exits.
The unit does not touch globop, so a change to the program cannot change it.
"""

import json
import signal
import sys
import time

PERIOD_S = 0.025


def unit() -> int:
    d = {}
    for i in range(3000):
        d[(i, i % 7)] = hash((i, "x"))
    return len(d)


def main() -> None:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    samples = []
    while not stop:
        time.sleep(PERIOD_S)
        t = time.perf_counter()
        unit()
        samples.append([t, time.perf_counter() - t])
    with open(sys.argv[1], "w") as f:
        json.dump(samples, f)


if __name__ == "__main__":
    main()
