"""Outside-in span tracer for the ddvef layers.

The tracer wraps the public functions each layer exposes, without changing
the package: while installed it rebinds every module attribute that holds
an entry point (transport, diffusion and vef bind them with
``from ... import``, so patching only the defining module would miss their
calls), wraps ``AndersonAccelerator.propose`` on the class and
``scipy.sparse.linalg.spsolve`` on its module, and reaches
``emission_terms`` through a material proxy. The map handed to
``fixed_point_solve`` is wrapped too, so one Picard pass is a span of its
own and the work a pass does outside the traced layers counts toward the
step that owns it, not toward the iteration.

Spans are kept in memory as (name, start, end, parent) and written out at
the end. A span's self time is its duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import scipy.sparse.linalg as spla

from ddvef import diffusion, iteration, physics, transport, vef

#: (span name, defining module, attribute) of each wrapped entry point.
ENTRY_POINTS = (
    ("sweep", transport, "sweep"),
    ("fom_step", transport, "fom_step"),
    ("update_temperature", physics, "update_temperature"),
    ("fixed_point_solve", iteration, "fixed_point_solve"),
    ("diffusion_step", diffusion, "diffusion_step"),
    ("vef_step", vef, "vef_step"),
    ("closure_from_sweep", vef, "closure_from_sweep"),
)

PICARD_PASS = "picard_pass"


class Tracer:
    """Spans and work counters of one traced march.

    spans[i] is [name, start, end, parent index or None]; a parent always
    precedes its children. counts holds work totals recorded at the same
    boundaries ("sweep.updates": cells x groups x directions swept,
    "emission.cellgroups": cells x groups evaluated).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def _wrap_sweep(self, fn):
        traced = self.wrap("sweep", fn)

        @functools.wraps(fn)
        def counted(mesh, quad, kappa, *args, **kwargs):
            self.counts["sweep.updates"] += kappa.size * quad.n_directions
            return traced(mesh, quad, kappa, *args, **kwargs)

        return counted

    def _wrap_fixed_point(self, fn):
        traced = self.wrap("fixed_point_solve", fn)

        @functools.wraps(fn)
        def with_passes(G, *args, **kwargs):
            return traced(self.wrap(PICARD_PASS, G), *args, **kwargs)

        return with_passes

    @contextmanager
    def installed(self):
        """Patch every binding of the entry points; restore them on exit."""
        saved = []
        try:
            for name, owner, attr in ENTRY_POINTS:
                original = getattr(owner, attr)
                if name == "sweep":
                    wrapped = self._wrap_sweep(original)
                elif name == "fixed_point_solve":
                    wrapped = self._wrap_fixed_point(original)
                else:
                    wrapped = self.wrap(name, original)
                for module in [m for key, m in sys.modules.items() if key == "ddvef" or key.startswith("ddvef.")]:
                    if getattr(module, attr, None) is original:
                        saved.append((module, attr, original))
                        setattr(module, attr, wrapped)
            for owner, attr, name in ((iteration.AndersonAccelerator, "propose", "anderson.propose"), (spla, "spsolve", "spsolve")):
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, with self time added."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for (name, start, end, parent), own in zip(self.spans, self_times(self.spans)):
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "self": own}) + "\n")


class TracedMaterial:
    """Material proxy that records a span around every emission_terms call."""

    def __init__(self, material, tracer: Tracer):
        self._material = material
        self._tracer = tracer

    def emission_terms(self, T, constants):
        self._tracer.counts["emission.cellgroups"] += T.size * self._material.fgrid.n_groups
        with self._tracer.span("emission_terms"):
            return self._material.emission_terms(T, constants)

    def __getattr__(self, name):
        return getattr(self._material, name)


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out
