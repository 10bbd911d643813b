"""A speed probe: fixed work whose time follows the machine's current speed.

The machine this benchmark was built on runs the same code at speeds that
differ by up to 1.7x from one second to the next (other tenants share its
cores and caches), so raw wall times of two identical runs disagree by
more than any bound worth gating on.  While the worker measures, a timer
signal runs the probe every ``INTERVAL_S``.  The worker scales each
stretch of about 0.1 s of queries by ``speed_factor``, and takes the time
spent in the signal handler out of every interval it measures.  A time in
reference seconds is the time the work would take while the probe takes
``REFERENCE_S``.

The probe imitates the program's work: Moore refinement over tuples and
dicts, as in ``automata.minimize``, and dependent loads through a table
larger than the caches, as in big dict lookups and table merges.  It never
calls finord, so a change to the program cannot move it.
"""

from __future__ import annotations

import random
import signal
import statistics
import tracemalloc
from time import perf_counter

import numpy as np

REFERENCE_S = 0.0012
INTERVAL_S = 0.05

_rng = random.Random(20261018)
_STATES, _LETTERS = 96, 8
_DELTA = [tuple(_rng.randrange(_STATES) for _ in range(_LETTERS))
          for _ in range(_STATES)]
_ACCEPT = frozenset(_rng.sample(range(_STATES), _STATES // 3))

# A full-period linear congruential walk over a 16 MB table (Hull-Dobell:
# odd increment, multiplier 1 mod 4), built in place to keep the peak low.
_CYCLE = np.arange(1 << 22, dtype=np.uint32)
_CYCLE *= np.uint32(1664525)
_CYCLE += np.uint32(1013904223)
_CYCLE &= np.uint32((1 << 22) - 1)


def refine() -> int:
    """Moore partition refinement of a fixed random DFA."""
    cls = {s: int(s in _ACCEPT) for s in range(_STATES)}
    while True:
        signatures: dict[tuple, int] = {}
        nxt = {}
        for s in range(_STATES):
            sig = (cls[s],) + tuple(cls[_DELTA[s][a]] for a in range(_LETTERS))
            nxt[s] = signatures.setdefault(sig, len(signatures))
        if len(signatures) == len(set(cls.values())):
            return len(signatures)
        cls = nxt


def chase() -> int:
    """1500 dependent loads through the table."""
    i = 0
    for _ in range(1500):
        i = int(_CYCLE[i])
    return i


def probe() -> float:
    start = perf_counter()
    refine()
    chase()
    return perf_counter() - start


class Sampler:
    """Runs the probe on every tick of a wall-clock interval timer.

    ``samples`` holds the probe times; ``spent`` is the total time spent in
    the signal handler, which the caller takes out of what it measures.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        # Under tracemalloc (the traced evaluate) the probe would time the
        # tracer, not the machine; the stretch then falls back on the
        # probes around it.
        if tracemalloc.is_tracing():
            return
        start = perf_counter()
        self.samples.append(probe())
        self.spent += perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        # Ignored, not the default action: a tick already raised but not
        # yet delivered (numpy's threads can take it late) would otherwise
        # end the process.
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def speed_factor(self, since: int) -> float:
        """``REFERENCE_S`` over the mean probe time of the samples taken
        from index ``since`` on (one fresh probe if there are none)."""
        recent = self.samples[since:] or [probe()]
        return REFERENCE_S / statistics.fmean(recent)
