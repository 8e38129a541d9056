"""Host-speed calibration: scale timings to a reference speed of the host.

On a shared host the same code runs up to twice as fast in one minute as in
the next, because other tenants contend for the physical cores, and those
phases last longer than a run.  ``HostProbe`` times a fixed piece of work
between units of measured work (training steps, served calls) and the
workload's timings are scaled by ``reference / measured`` probe time, so a
run in a slow phase and a run in a fast phase report comparable numbers.

The probe is Python-level arithmetic plus small numpy operations on arrays
that stay in cache; it imports nothing from the program, touches no file and
allocates little, so no change to the program can change its work.  It is
timed with ``time.thread_time``: host contention inflates that, while other
threads of this process holding the GIL do not.  The unscaled values are kept
in the run's details as ``<metric>_raw``.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

#: Seconds of probe work the timings are scaled to: about its typical time
#: between steps or calls on a 2 GHz Xeon vCPU.  Only a constant: changing it
#: rescales every scaled metric.
REFERENCE_S = 0.007
#: Seconds between probe samples inside the timed window.
INTERVAL_S = 0.5
ROUNDS = 12


def _probe_work() -> float:
    rng = np.random.default_rng(1)
    rows = rng.standard_normal((128, 64))
    queries = rng.standard_normal((8, 64))
    total = 0.0
    for _ in range(ROUNDS):
        dist = ((rows[:, None, :] - queries[None]) ** 2).sum(-1)
        total += float(dist[np.argpartition(dist[:, 0], 10)[:10], 0].sum())
        table = {i: i * i for i in range(400)}
        for i in range(2500):
            total += table[i % 400] * 1e-9
    return total


class HostProbe:
    """Samples the probe every ``INTERVAL_S`` when ``tick`` is called.

    ``spent_s`` is the wall time the samples took; a workload subtracts it
    from its window so the probe does not count as the program's time.
    """

    def __init__(self) -> None:
        self.samples_s: List[float] = []
        self.spent_s = 0.0
        self._next = 0.0
        _probe_work()  # warm-up: imports, allocator

    def tick(self) -> None:
        now = time.perf_counter()
        if now < self._next:
            return
        start = time.thread_time()
        _probe_work()
        self.samples_s.append(time.thread_time() - start)
        done = time.perf_counter()
        self.spent_s += done - now
        self._next = done + INTERVAL_S

    def slowdown(self) -> float:
        """Mean probe time over the reference: above 1 in a slow phase."""
        return float(np.mean(self.samples_s)) / REFERENCE_S


def scale_timings(end_to_end: Dict[str, float], slowdown: float) -> Dict[str, float]:
    """``throughput_per_s`` times and ``latency_ms_*`` over ``slowdown``.

    Returns the scaled metrics plus each original as ``<name>_raw``.
    """
    out = dict(end_to_end)
    for name, value in end_to_end.items():
        if name == "throughput_per_s":
            out[name] = value * slowdown
        elif name.startswith("latency_ms"):
            out[name] = value / slowdown
        else:
            continue
        out[name + "_raw"] = value
    return out
