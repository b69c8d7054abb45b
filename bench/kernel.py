"""The reference kernel that defines one `ref`.

A fixed stdlib-only workload on the interpreter paths kstab leans on:
Fraction arithmetic, tuple building and dict updates.  It touches no
kstab object and allocates nothing that outlives the call, so the
state of kstab's heap cannot change its cost.
"""

from fractions import Fraction
from time import thread_time

ROUNDS = 48

# The one clock for items, kernel calls and trace spans: this thread's
# CPU time.  On a shared host a wall clock also counts the time the
# worker waits for a CPU, which lands on long items far more than on
# the median of three short kernel calls, so it skews every ratio.
clock = thread_time


def kernel():
    acc = Fraction(0)
    counts = {}
    for i in range(1, ROUNDS + 1):
        f = Fraction(i, i + 3)
        acc = (acc + f * f - Fraction(1, i)) / 2
        key = (i % 7, acc.numerator % 11, acc.denominator % 13)
        counts[key] = counts.get(key, 0) + 1
    return acc, len(counts)
