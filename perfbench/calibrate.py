"""Machine-speed reference for the end-to-end times.

On a shared host the same Python code runs tens of percent slower in one
minute than in the next.  A fixed pure-Python kernel, independent of
trustmarket, is timed between passes; each pass's times are then scaled by
REFERENCE_NS / (the kernel's time around that pass), which expresses them
at the speed the host had when the kernel took REFERENCE_NS.  The kernel
mixes what trustmarket's hot paths do: sorting tuples, building small
objects, and set and dict lookups and inserts.
"""

import gc
import statistics
import time

# The kernel's typical time on the 2-core 2.0 GHz Xeon VM the bounds were
# set on, under CPython 3.11.
REFERENCE_NS = 1_400_000

_ITEMS = [((i * 7919) % 1009, i, f"k{i}") for i in range(400)]
_GROUP = {i: (i * 7) % 13 for i in range(400)}


class _Cell:
    __slots__ = ("key", "group")

    def __init__(self, key, group):
        self.key = key
        self.group = group


def _kernel() -> int:
    total = 0
    for _ in range(4):
        cells = [_Cell(key, _GROUP[key]) for _, key, _ in sorted(_ITEMS)]
        seen = set()
        for cell in cells:
            if cell.group not in seen:
                seen.add(cell.group)
                total += cell.key
        groups = {}
        for cell in cells:
            groups.setdefault(cell.group, []).append(cell.key)
        total += sum(len(keys) for keys in groups.values())
    return total


def sample() -> int:
    """Median ns of five kernel runs, with the cyclic collector paused so
    the workload's heap does not slow the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(5):
            start = time.perf_counter_ns()
            _kernel()
            times.append(time.perf_counter_ns() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)
