"""Summary statistics and process readings."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], fraction: float) -> Optional[float]:
    """The *fraction* quantile (linear interpolation between order
    statistics), or ``None`` when fewer than ``MIN_TAIL_SAMPLES`` samples
    lie strictly beyond it."""
    ordered = sorted(samples)
    if len(ordered) < 2:
        return None
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (position - low)
    beyond = sum(1 for sample in ordered if sample > value)
    return value if beyond >= MIN_TAIL_SAMPLES else None


def samples_for_tail(fraction: float) -> int:
    """The fewest samples for which the *fraction* tail can be reported."""
    return int(MIN_TAIL_SAMPLES / (1.0 - fraction) + 0.5) + 1


def _status_kb(pid: str, field: str) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return float(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no {field}")


def peak_rss_mb(pid: str = "self") -> float:
    """The process's peak resident set (``VmHWM``) in MB."""
    return _status_kb(str(pid), "VmHWM") / 1024.0


def private_mb(pids: Iterable[int]) -> float:
    """Summed private (clean + dirty) memory of *pids* from ``smaps_rollup``."""
    total_kb = 0.0
    for pid in pids:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as rollup:
            for line in rollup:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    total_kb += float(line.split()[1])
    return total_kb / 1024.0
