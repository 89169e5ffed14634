"""Span tracing of the dirac2d layers, installed from outside the package.

``Tracer`` replaces every public function of the six layer modules (and every
``from ... import`` copy of it held by another layer module or the package
namespace) plus the three ``KummerProfile`` evaluation methods with a wrapper
that records a span: name, start, end, parent span and operation id.  Private
helpers stay unwrapped, so their time counts as self time of the public
function that called them.  ``uninstall`` puts the original objects back, so
untraced passes run the unmodified program.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("units", "specfun", "spectrum", "wavefn", "oracle", "cli")
PROFILE_METHODS = ("value_z", "dvalue_dz", "d2value_dz2")


def _kummer_work(args, kwargs):
    """(points, terms) of one kummer_m call, counted from its arguments."""
    import numpy as np

    a = kwargs.get("a", args[0] if args else None)
    z = kwargs.get("z", args[2] if len(args) > 2 else None)
    points = int(np.size(z))
    degree = -round(float(a)) if float(a) <= 0 and float(a) == round(float(a)) else 0
    return points, degree * points


def _eigen_work(args, kwargs):
    count = kwargs.get("count", args[1] if len(args) > 1 else 0)
    return int(count), 0


# Work counted from the arguments of these spans, as (first, second) totals.
WORK = {
    "specfun.kummer_m": _kummer_work,
    "oracle.smallest_eigenvalues": _eigen_work,
}


class Tracer:
    """In-memory span recorder for one worker process."""

    def __init__(self, package):
        self.spans = []  # [name, start, end, parent, op, work, raised]
        self._stack = []
        self.op = 0
        self._patches = []
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        originals = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    originals[id(obj)] = (obj, f"{layer}.{attr}")
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in originals.items()}
        for owner in [package, *modules]:
            for attr, obj in vars(owner).items():
                if id(obj) in wrappers:
                    self._patches.append((owner, attr, obj, wrappers[id(obj)]))
        profile = package.wavefn.KummerProfile
        for attr in PROFILE_METHODS:
            fn = vars(profile)[attr]
            self._patches.append(
                (profile, attr, fn, self._wrap(fn, f"wavefn.KummerProfile.{attr}"))
            )

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        work = WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    work(args, kwargs) if work else None, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    def self_times(self):
        """Per span name: (calls, self seconds, work totals, escaped errors).

        Self time is a span's duration minus the durations of its direct
        children.  An error escapes a layer when a span that raised has a
        parent in another layer (or no parent at all).
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0, 0, 0])
        for i, (name, start, end, parent, _op, work, raised) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += (end - start) - child_time[i]
            if work:
                row[2] += work[0]
                row[3] += work[1]
            if raised:
                layer = name.split(".")[0]
                if parent < 0 or self.spans[parent][0].split(".")[0] != layer:
                    row[4] += 1
        return dict(out)

    def write(self, path, header):
        """Write the header and every span as JSON lines (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as handle:
            handle.write(json.dumps(header) + "\n")
            for name, start, end, parent, op, work, raised in self.spans:
                handle.write(
                    json.dumps([name, start, end, parent, op, work, raised]) + "\n"
                )
