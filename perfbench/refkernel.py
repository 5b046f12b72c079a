"""A gauge of the core's speed, timed beside a measurement.

On a shared host the other hyperthread of the core a pass runs on is
loaded in bursts of seconds to minutes, and plain-Python work then runs
about 1.5 times slower.  A pass or import that is itself mostly plain
Python slows in step with this kernel, so its time scaled by the kernel's
(``to_reference_s``) holds still while the load comes and goes.  The module
imports nothing but ``time``, so that a fresh interpreter can time the
kernel before importing the package without importing any of its
dependencies first.
"""

import time

#: Seconds of one ``reference_kernel`` on an uncontended core of a 2-vCPU
#: Xeon (Python 3.11): the length of a reference second.
REFERENCE_KERNEL_S = 0.016


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of plain Python."""
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(120_000):
        acc += i * i % 7
        table[i & 1023] = acc
    sorted(table.values())
    return time.perf_counter() - start


def to_reference_s(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """``seconds`` measured between two kernel timings, in reference seconds.

    The geometric mean of the two kernel times stands for the core's speed
    during the measurement.
    """
    return seconds * REFERENCE_KERNEL_S / (kernel_before * kernel_after) ** 0.5
