"""Machine-speed probes that scale every timed phase.

The benchmark box's speed swings by up to 2x within seconds, because its
vCPU shares a core with other tenants.  Raw phase times from runs a few
minutes apart then differ by more than any bound worth setting.  So each
phase is measured next to a fixed probe: a piece of interpreter-bound numpy
work shaped like a tape, which never touches scenewise.  Probes run before
the phase, after it, and during it after a tick-point call once
``PROBE_EVERY_S`` has passed since the last probe.  Probe time is left out
of the phase's raw time.

A phase's scaled time is its raw time times ``REF_PROBE_S`` over the mean
probe time.  It is the time the phase takes when the probe takes
``REF_PROBE_S``, which it does on an uncontended core of the reference box
(2 vCPU x86_64, Python 3.11, numpy 2.4).  A change to scenewise moves the
scaled time and leaves the probe alone.
"""

from __future__ import annotations

import functools
import statistics
from time import perf_counter

import numpy as np

from spans import resolve

REF_PROBE_S = 0.02
PROBE_EVERY_S = 0.25
# library calls after which a probe may run: one per optimizer step, per
# scored script, and per trajectory script
TICK_POINTS = ("autodiff.Adam.step", "classifier.predict_tags",
               "descriptors.DescriptorModel.weights_for_script")

_X = np.random.default_rng(0).normal(size=50)
_W = np.random.default_rng(1).normal(size=(50, 150)) * 0.1


def speed_probe(n: int = 4000) -> float:
    """Seconds for a fixed, tape-shaped piece of work: a small matmul and a
    closure per node, and a reverse sweep over every 200 nodes."""
    start = perf_counter()
    nodes = []
    for _ in range(n):
        h = np.tanh(_X @ _W)
        nodes.append(lambda g, h=h: g * (1.0 - h * h))
        if len(nodes) > 200:
            for vjp in reversed(nodes):
                vjp(h)
            nodes.clear()
    return perf_counter() - start


class PhaseClock:
    """Times one phase net of the probes taken during it.

    ``before`` reuses a probe taken just before the phase.  With a tracer,
    probes are ``trace.probe`` spans, so they count as tracer time.
    """

    def __init__(self, lib: dict, tracer=None, before: float | None = None):
        self.lib = lib
        self.tracer = tracer
        self.samples = [self._probe() if before is None else before]
        self.probing = 0.0
        self.raw = self.scaled = self.after = 0.0
        self._patched: list[tuple[object, str, object]] = []
        self._start = self._last = 0.0

    def _probe(self) -> float:
        if self.tracer is not None:
            return self.tracer.call("trace.probe", speed_probe)
        return speed_probe()

    def tick(self) -> None:
        now = perf_counter()
        if now - self._last >= PROBE_EVERY_S:
            self.samples.append(self._probe())
            self._last = perf_counter()
            self.probing += self._last - now

    def __enter__(self) -> "PhaseClock":
        for path in TICK_POINTS:
            found = resolve(self.lib, path)
            if found is None:
                continue
            owner, attr = found
            fn = vars(owner)[attr]

            @functools.wraps(fn)
            def ticking(*args, _fn=fn, **kwargs):
                result = _fn(*args, **kwargs)
                self.tick()
                return result

            setattr(owner, attr, ticking)
            self._patched.append((owner, attr, fn))
        self._start = self._last = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.raw = perf_counter() - self._start - self.probing
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self.after = self._probe()
        self.samples.append(self.after)
        self.scaled = self.raw * REF_PROBE_S / statistics.fmean(self.samples)
        return False
