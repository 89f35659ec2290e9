"""SIM501 clean look-alike: heapq inside repro/sim/engine.py is the
one allowed location — the event loop owns the priority queues.
"""

import heapq


def pop_min(heap):
    return heapq.heappop(heap)
