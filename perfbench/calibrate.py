"""A fixed reference loop that measures how fast the machine is right now.

On a shared host the same compile can take 1.5-1.9x longer for minutes
at a time, while neighbours load the machine.  The benchmark times this
loop next to every op.  It then reports op times rescaled to a machine
on which the loop takes ``REF_MS`` (unit ``ref_ms``), which cancels
slowdowns that hit the whole machine.  The loop uses no code from
``repro``, so a change to the compiler never moves it.  It does what a
CP propagation loop does: attribute reads and writes on small objects,
a trail, and dict traffic.
"""

import time

#: the loop's duration on the reference machine, in milliseconds
REF_MS = 15.0


class _Cell:
    __slots__ = ("lo", "hi", "subs")

    def __init__(self, lo: int, hi: int):
        self.lo, self.hi, self.subs = lo, hi, []


def _work() -> int:
    cells = [_Cell(0, 1000) for _ in range(300)]
    for i, c in enumerate(cells):
        c.subs = [cells[(i * 7 + k) % 300] for k in range(4)]
    trail, index = [], {}
    for rnd in range(60):
        for i, c in enumerate(cells):
            for d in c.subs:
                if d.lo < c.lo + 1:
                    trail.append((d, d.lo, d.hi))
                    d.lo = c.lo + 1
                index[(i, rnd % 7)] = d.hi - d.lo
        while trail:
            d, lo, hi = trail.pop()
            d.lo, d.hi = lo, hi
    return len(index)


def calibrate() -> float:
    """Milliseconds the reference loop takes right now."""
    t0 = time.perf_counter()
    _work()
    return (time.perf_counter() - t0) * 1000.0
