"""Jain's fairness index (paper §4.3.6, Figure 15b).

``J = (sum x_i)^2 / (n * sum x_i^2)`` — 1.0 when all allocations are equal,
``1/n`` when a single member receives everything.
"""

from __future__ import annotations

from typing import Sequence


def jain_index(values: Sequence[float]) -> float:
    """Return Jain's fairness index of ``values``.

    An empty sequence or an all-zero sequence has no meaningful fairness;
    by convention we return 1.0 (everyone equally got nothing).
    Negative allocations are rejected.
    """
    if not values:
        return 1.0
    if any(v < 0 for v in values):
        raise ValueError("allocations must be non-negative")
    peak = float(max(values))
    if peak == 0.0:
        return 1.0
    # Scale into [0, 1] first: the index is scale-invariant, and squares
    # of tiny allocations would otherwise go subnormal and lose the
    # precision that keeps the result <= 1.
    scaled = [float(v) / peak for v in values]
    total = sum(scaled)
    return total * total / (len(scaled) * sum(x * x for x in scaled))
