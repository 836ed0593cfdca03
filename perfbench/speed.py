"""A fixed probe of the machine's current speed, to scale timings by.

The benchmark host is a shared VM whose speed drifts by 10-25% over tens of
seconds, in CPU time as much as in wall time, so raw timings of the same
jobs spread by about as much from run to run.  The probe uses none of
matprox's code and runs before every job.  A job's latency is multiplied by
``REFERENCE_S`` over the median probe time of the ``WINDOW`` jobs around it,
which gives the latency at the reference speed: the speed at which the
probe takes ``REFERENCE_S``.  The probe is a miniature of what the
workloads spend their time on, made of numpy and scipy calls alone: small
norms inside a scalar minimiser, a batched SVD and a difference stack, many
tiny norms and a JSON encoding.  Its inputs are allocated once, and its
transient arrays are well under a MB.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np
from scipy.optimize import minimize_scalar

# About the probe's median on an idle 2-vCPU Intel Xeon at 2.1 GHz (numpy 2.4, scipy 1.17).
REFERENCE_S = 0.022
WINDOW = 9


class Probe:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        self._a, self._b = cplx(32, 32), cplx(32, 32)
        self._stack = cplx(64, 24, 24)
        self._rows = cplx(16, 1, 24, 24)
        self._tiny = cplx(750, 4, 4)
        self._values = [float(x) for x in rng.standard_normal(4000)]

    def _norm_along(self, t: float) -> float:
        return float(np.linalg.norm(self._a + t * self._b, 2))

    def __call__(self) -> float:
        """Seconds the probe takes now."""
        t0 = time.perf_counter()
        # Single small norms inside a scalar minimiser, as in reach.
        for hi in (1.0, 2.0):
            minimize_scalar(self._norm_along, bounds=(0.0, hi), method="bounded", options={"xatol": 1e-10})
        # A batched SVD and a difference stack, as in torus.
        np.linalg.svd(self._stack, compute_uv=False)
        diff = self._rows - self._rows.transpose(1, 0, 2, 3)
        np.einsum("abij,abij->ab", diff, diff.conj())
        # Thousands of tiny norms and a JSON encoding, as in leibniz.
        np.linalg.svd(self._tiny, compute_uv=False)
        json.dumps({"values": self._values})
        return time.perf_counter() - t0


def factors(probe_s: list[float]) -> list[float]:
    """Per-sample scale factors: REFERENCE_S over the median probe time nearby."""
    half = WINDOW // 2
    return [
        REFERENCE_S / statistics.median(probe_s[max(0, i - half) : i + half + 1])
        for i in range(len(probe_s))
    ]
