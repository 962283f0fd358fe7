"""Span tracing around txsched's public functions, from outside the package.

`Tracer.installed()` replaces module attributes with wrappers for the
duration of a `with` block and restores the originals afterwards, so
the untraced passes of the benchmark call the unwrapped functions.
Where one module imported a function from another, the wrapper goes on
the name the caller looks up (for example `verifier.decompose`), because
rebinding the defining module's attribute would not reach that caller.

Spans are kept in memory as (name, start, end, parent, instance) tuples
and written out as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import Counter, defaultdict

from txsched import harness, model, oracle, power, scheduler, verifier

# layer label -> the (module, attribute) names its callers look up
SPAN_TARGETS = {
    "model.instance_from_json": [(model, "instance_from_json")],
    "model.decompose": [
        (model, "decompose"),
        (scheduler, "decompose"),
        (verifier, "decompose"),
        (oracle, "decompose"),
        (harness, "decompose"),
    ],
    "scheduler.solve": [(scheduler, "solve")],
    "scheduler.edf_fill": [(scheduler, "edf_fill"), (harness, "edf_fill")],
    "scheduler.json": [
        (scheduler, "schedule_to_json"),
        (scheduler, "schedule_from_json"),
    ],
    "power.schedule_energy": [
        (power, "schedule_energy"),
        (scheduler, "schedule_energy"),
        (harness, "schedule_energy"),
    ],
    "verifier.check_feasible": [(verifier, "check_feasible")],
    "verifier.check_optimality": [(verifier, "check_optimality")],
    "verifier.extract_certificate": [(verifier, "extract_certificate")],
    "oracle.pgd": [(oracle, "solve_projected_gradient")],
    "harness.generate": [(harness, "generate")],
}

# Called thousands of times per oracle run on tiny arrays: counted only,
# since a span per call would cost more than the call.
COUNTED_METHODS = {
    "power.g": "g",
    "power.power": "power",
}
POWER_CLASSES = (power.PowerModel, power.Shannon, power.Monomial)

ROOT = "instance"


class Tracer:
    """Records spans and call counts while installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.instance = -1
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int, name: str, t0: float):
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, t0, t1, parent, self.instance)

    @contextlib.contextmanager
    def span(self, name: str, instance: int | None = None):
        if instance is not None:
            self.instance = instance
        idx, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, parent, name, t0)

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = self._open()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, parent, name, t0)

        return traced

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block.

        A target name that no longer exists is listed in `absent` and
        skipped, so a refactor that deletes it does not stop the run.
        """
        saved = []
        absent = []
        try:
            for name, targets in SPAN_TARGETS.items():
                found = False
                for mod, attr in targets:
                    fn = getattr(mod, attr, None)
                    if fn is None:
                        continue
                    found = True
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, self._span_wrapper(name, fn))
                if not found:
                    absent.append(name)
            for name, attr in COUNTED_METHODS.items():
                found = False
                for cls in POWER_CLASSES:
                    fn = cls.__dict__.get(attr)
                    if fn is None:
                        continue
                    found = True
                    saved.append((cls, attr, fn))
                    setattr(cls, attr, self._count_wrapper(name, fn))
                if not found:
                    absent.append(name)
            self.absent = absent
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], Counter, dict[str, float], float]:
        """Self time and call count per span name inside instance spans,
        self time per span name outside them, and the total duration of
        the instance spans.

        A span's self time is its duration minus its direct children's
        durations; the instance span's own self time is the remainder
        that no layer span covers. Raises ValueError when a child does
        not lie inside its parent or the self times under the instance
        spans fail to add up to their durations, either of which would
        make the per-layer split meaningless.
        """
        child_time: defaultdict[int, float] = defaultdict(float)
        top = []
        for idx, (name, t0, t1, parent, _) in enumerate(self.spans):
            if parent < 0:
                top.append(idx)
                continue
            p = self.spans[parent]
            if t0 < p[1] or t1 > p[2]:
                raise ValueError(f"span {name} escapes its parent {p[0]}")
            child_time[parent] += t1 - t0
            top.append(top[parent])
        inside: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        outside: defaultdict[str, float] = defaultdict(float)
        root_time = 0.0
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            own = (t1 - t0) - child_time[idx]
            if self.spans[top[idx]][0] == ROOT:
                inside[name] += own
                calls[name] += 1
            else:
                outside[name] += own
            if name == ROOT:
                root_time += t1 - t0
        covered = sum(inside.values())
        if abs(covered - root_time) > 1e-9 * max(root_time, 1.0):
            raise ValueError(
                f"self times add up to {covered} s, instance spans to {root_time} s"
            )
        return dict(inside), calls, dict(outside), root_time

    def write(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, t0, t1, parent, inst in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": t0, "end": t1,
                         "parent": parent, "instance": inst}
                    )
                    + "\n"
                )
