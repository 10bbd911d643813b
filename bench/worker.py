"""One workload in one process: set up, time whole passes, check them.

``run.py`` starts this file with ``src`` on the import path.  It prints one
JSON object on its last line of output.  With ``--setup-only`` it stops
after set-up and reports only the set-up time.

Times are reported in reference seconds; see ``probe.py``.
"""

from __future__ import annotations

import argparse
import json
from array import array
import math
import random
import resource
import statistics
import sys
import time

import numpy  # noqa: F401  (finord's import, timed as part of the set-up)

_probe_built = time.monotonic()
from probe import Sampler  # noqa: E402

# The probe's own table is not the program's set-up.
_probe_built = time.monotonic() - _probe_built
_setup_sampler = Sampler()
_setup_sampler.start()   # before finord is imported

from tracer import UNITS, Tracer  # noqa: E402
from workloads import WORKLOADS, Raised  # noqa: E402

STRETCH_S = 0.1
# Each query's time is its median over the passes, and batch_s the median
# pass: with two passes a median is a mean and one slow pass moves it.
MIN_PASSES = 3
# Ends a run early when one more pass would cross it, so a much slower
# program still finishes well inside the three minutes a run may take.
DEADLINE_S = 140.0
_MS_METRICS = [name for name, unit in UNITS.items() if unit == "ms"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() just before this process started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    _setup_sampler.stop()
    setup_wall = (time.monotonic() - args.started - _probe_built
                  - _setup_sampler.spent)
    setup_s = setup_wall * _setup_sampler.speed_factor(0)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    sampler = Sampler()
    tracer = Tracer(sampler)
    if args.trace:
        tracer.install()
    timer = PassTimer(tracer, sampler)
    queries = workload.queries
    # A seeded shuffle spreads every kind of query over the whole pass, so
    # that no kind is timed only in one stretch of the machine's speed.
    order = list(range(len(queries)))
    random.Random(args.seed).shuffle(order)
    # compact, so that the benchmark's own records barely move peak_rss_mb
    times = [array("d") for _ in queries]
    batches, walls, layer_passes = [], [], []
    attempted = failed = wrong = 0
    while True:
        tracer.reset()
        tracer.active = bool(args.trace)
        timer.start()
        outputs: list = [None] * len(queries)
        for i in order:
            q = queries[i]
            if q.prepare is not None:
                q.prepare()
            spent = sampler.spent
            t0 = time.perf_counter()
            try:
                out = q.call()
            except Exception as exc:  # a failed operation, counted below
                out = Raised(exc)
            timer.add(i, time.perf_counter() - t0 - (sampler.spent - spent))
            outputs[i] = out
        timer.finish()
        tracer.active = False
        for i, seconds in timer.scaled:
            times[i].append(seconds)
        batches.append(timer.batch)
        walls.append(timer.wall)
        layer_passes.append({**tracer.snapshot(), **timer.layer_ms})
        attempted += len(queries)
        bad = workload.check(outputs)
        failed += len(bad)
        wrong += sum(not isinstance(outputs[i], Raised) for i in bad)
        for i in sorted(bad)[:5]:
            print(f"wrong: {queries[i].label}: {outputs[i]!r}",
                  file=sys.stderr)
        elapsed = time.monotonic() - args.started
        done = sum(walls) >= args.seconds and len(walls) >= MIN_PASSES
        if done or elapsed + walls[-1] > DEADLINE_S:
            break

    # A traced evaluate can take no sample at all: no probe runs under
    # tracemalloc.
    probe_ms = (f"{statistics.median(sampler.samples) * 1000:.3f} ms"
                if sampler.samples else "not sampled")
    print(f"{args.workload}: {len(walls)} passes, "
          f"{statistics.median(walls):.3f} wall s per pass, probe "
          f"{probe_ms}", file=sys.stderr)
    if args.trace:
        metrics = _layer_metrics(layer_passes)
        metrics["trace.batch_s"] = {"value": statistics.median(batches),
                                    "unit": "s"}
    else:
        medians = [statistics.median(ts) for ts in times]
        gmean = math.exp(statistics.fmean(math.log(max(t, 1e-9))
                                          for t in medians))
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "batch_s": {"value": statistics.median(batches), "unit": "s"},
            "query_gmean_ms": {"value": gmean * 1000.0, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"passes": len(walls), "attempted": attempted,
                      "failed": failed, "wrong": wrong, "metrics": metrics}))
    return 0


class PassTimer:
    """Scales one pass, stretch by stretch, to reference seconds: query
    times, the pass's own time and the tracer's per-layer times."""

    def __init__(self, tracer: Tracer, sampler: Sampler):
        self.tracer = tracer
        self.sampler = sampler

    def start(self) -> None:
        self.batch = self.wall = 0.0
        self.scaled: list[tuple[int, float]] = []
        self.layer_ms = dict.fromkeys(_MS_METRICS, 0.0)
        self._pending: list[tuple[int, float]] = []
        self._mark = self.tracer.snapshot()
        self._pass_first = len(self.sampler.samples)
        self.sampler.start()
        self._open_stretch()

    def add(self, index: int, seconds: float) -> None:
        self._pending.append((index, seconds))
        if time.perf_counter() - self._start >= STRETCH_S:
            self._close_stretch()

    def finish(self) -> None:
        if self._pending:
            self._close_stretch()
        self.sampler.stop()

    def _open_stretch(self) -> None:
        self._start = time.perf_counter()
        self._spent = self.sampler.spent
        self._first = len(self.sampler.samples)

    def _close_stretch(self) -> None:
        wall = (time.perf_counter() - self._start
                - (self.sampler.spent - self._spent))
        # the stretch's own samples, and the last one before it
        since = max(self._pass_first, self._first - 1)
        scale = self.sampler.speed_factor(since)
        self.batch += wall * scale
        self.wall += wall
        self.scaled += [(i, s * scale) for i, s in self._pending]
        self._pending = []
        totals = self.tracer.snapshot()
        for name in _MS_METRICS:
            self.layer_ms[name] += (totals[name] - self._mark[name]) * scale
        self._mark = totals
        self._open_stretch()


def _layer_metrics(passes):
    """Counts from the first pass (every pass repeats them); times and
    memory as the median over passes."""
    out = {}
    for name, unit in UNITS.items():
        if unit == "count":
            value = passes[0][name]
        else:
            value = statistics.median(p[name] for p in passes)
        out[name] = {"value": value, "unit": unit}
    return out


if __name__ == "__main__":
    sys.exit(main())
