"""The machine's current speed for interpreted code, for rescaling times.

Other tenants of a shared host change the speed of interpreted code by up
to 2x within seconds: pass times of one op list ranged 0.36-0.73 s within a
minute on a 2-vCPU 2.1 GHz Xeon guest, with no CPU steal reported. A fixed
reference kernel timed next to the measured work tracks that speed, and
times are rescaled to the speed at which the kernel takes NOMINAL_S, about
its uncontended time on that machine.

The kernel mixes Fraction arithmetic on multi-word integers with a float
loop. On that machine the log time of chunks of each workload's ops
followed the log time of this kernel with slope 0.96-0.99 (a pure float
loop gave 1.2, so it under-corrected). Over ten runs of a workload the
quartile spread of the rescaled pass time was 0.03-0.05 of its median,
against 0.10-0.32 for the raw pass time.
"""

import random
import statistics
import time
from fractions import Fraction

NOMINAL_S = 4e-4

_rng = random.Random(0)
_FRACTIONS = [Fraction(_rng.randint(1, 10 ** 12), _rng.randint(1, 10 ** 9)) for _ in range(64)]


def reference_seconds():
    """Time of the fixed reference kernel, now."""
    clock = time.perf_counter
    start = clock()
    acc = Fraction(0)
    for i in range(50):
        acc += _FRACTIONS[i & 63] * _FRACTIONS[(i * 5) & 63]
    total = 0.0
    for i in range(500):
        total += (i * 1.0000001) / (i + 1.0)
    return clock() - start


def scale(nearby):
    """Factor taking a time to reference speed, from the reference times
    measured nearest to it (their median, so one disturbed kernel run does
    not skew it)."""
    return NOMINAL_S / statistics.median(nearby)
