"""Machine-speed probe, so that op times can be reported at a fixed speed.

The benchmark runs on shared hosts where the CPU speed available to one
process moves a lot: on the 2-core reference machine a fixed pure-Python
loop takes from 28 to 46 ms from one second to the next, and the median
over a minute moves by up to 40% from one minute to the next.  CPU time
moves with it, so neither wall time nor CPU time of a run can be compared
with that of a run made some minutes later.

So every timed op is preceded by a probe: `LOOP` turns of a fixed
pure-Python loop, timed alone.  A time is reported at reference speed,
scaled by `REF_S` over the median of the probes taken around it:

    t_ref = t * REF_S / median(nearby probes)

`REF_S` is a constant, so a change that makes periodkit slower or faster
moves t_ref as it moves t; only the speed of the host is divided out.  The
probe is timed in the measuring process between ops, never while periodkit
runs.  A probe taken in another process tracks the op much worse: the
speed differs between the machine's cores.  Set-up is scaled the same way,
by probes the worker takes at each end of its set-up.  Raw times and probes
are kept in the run record.
"""

from __future__ import annotations

import statistics
import time

# Turns of the probe loop, and the probe time that defines reference speed
# (about the probe's fastest time on the reference machine).
LOOP = 6_000
REF_S = 1e-3

# Probes on each side of an op that its scale factor is the median of.
WINDOW = 2


def _loop(n: int) -> int:
    acc, table = 0, {}
    for i in range(n):
        acc = (acc * 31 + i * i) % 1_000_003
        table[i & 255] = acc
    return acc + len(table)


def probe() -> float:
    """Seconds for one probe loop."""
    start = time.perf_counter()
    _loop(LOOP)
    return time.perf_counter() - start


def at_reference(durations: list, probes: list) -> list[float]:
    """Durations of one pass at reference speed; probes[i] was taken just
    before durations[i]."""
    n = len(durations)
    return [
        d * REF_S / statistics.median(probes[max(0, i - WINDOW) : min(n, i + WINDOW + 1)])
        for i, d in enumerate(durations)
    ]
