"""Reference kernels that measure how fast the machine runs right now.

The 2-vCPU virtual machine this benchmark was written on shares its cores
with other machines' work: for stretches of tens of seconds to minutes every
operation runs 20-50% slower, and how much slower depends on the kind of
code.  The end-to-end metrics therefore divide each timed operation by the
time of a reference kernel measured next to it in the same process.  The kernels are
fixed and share no code with dirac2d; each imitates one kind of work the
workloads do, and each workload names the kernels that match its own mix:

- ``scalar``: a pure-Python recurrence over a 4095-element list, like the
  Sturm count of the eigen-oracle;
- ``vector``: compensated numpy passes over 4097-point arrays, like the
  double-double Kummer series;
- ``render``: per-row dicts formatted as CSV and JSON, like the cli tables.
"""

from __future__ import annotations

import json
import time

import numpy as np

N = 4097
_SPLIT = 134217729.0


def scalar() -> float:
    diag = [2.0 + 1e-3 * i for i in range(N - 2)]
    count = 0
    for _ in range(8):
        q = diag[0]
        for d in diag:
            q = d - 0.25 / q
            count += q < 2.0
    return float(count)


def vector() -> float:
    z = np.linspace(0.0, 50.0, N)
    hi, lo = np.ones_like(z), np.zeros_like(z)
    for k in range(60):
        p = hi * z
        c = _SPLIT * hi
        h = c - (c - hi)
        err = ((h * z - p) + (hi - h) * z) + lo * z
        s = p / (k + 1.0)
        t = s - hi
        lo = (hi - (s - t)) + (err - t) / (k + 1.0)
        hi = s
    return float(hi[-1] + lo[-1])


def render() -> float:
    z = np.linspace(0.0, 12.0, N // 8 + 1)
    rows = [{"rho": r, "z": r * r, "f": r / (1.0 + r)} for r in z.tolist()]
    text = json.dumps({"rows": rows}, indent=2)
    csv = "\n".join(f"{r['rho']:.16e},{r['z']:.16e},{r['f']:.16e}" for r in rows)
    return float(len(text) + len(csv))


KERNELS = {"scalar": scalar, "vector": vector, "render": render}


def timed(names, clock=time.perf_counter) -> float:
    """Seconds for one run of the named kernels, one after another."""
    start = clock()
    for name in names:
        KERNELS[name]()
    return clock() - start
