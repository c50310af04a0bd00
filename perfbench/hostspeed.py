"""Host-speed calibration for the benchmark's timings.

On a shared VM the speed of one core drifts by 20-30% over minutes, so a
raw wall time says as much about the neighbours as about lossynet.  Every
timed interval is therefore bracketed by a fixed calibration loop, and the
benchmark reports times at a reference speed: the interval times
REFERENCE_S over the mean of the two loop times around it.

The loop makes the kind of calls lossynet's rounds and certificates are
made of, small numpy operations called from Python, because the drift
hits such code harder than a plain integer loop or a large vectorised
kernel.  It does not touch lossynet, so no change to the program moves it.
"""

from __future__ import annotations

import time

import numpy as np

# Median time of ``loop_seconds`` on the VM the README's figures come from.
REFERENCE_S = 0.023

_Z = np.linspace(-1.0, 1.0, 16).reshape(8, 2)
_A = np.zeros(2)
_LO = np.full(2, -1.0)
_HI = np.full(2, 1.0)


def loop_seconds() -> float:
    """Wall time of the fixed calibration loop."""
    started = time.perf_counter()
    for _ in range(1500):
        x = np.clip(-0.1 * _Z, _LO, _HI)
        np.sign(x - _A)
        np.linalg.norm(x - _A)
    return time.perf_counter() - started


def factor(before: float, after: float) -> float:
    """Reference seconds per measured second for an interval bracketed by
    loops that took ``before`` and ``after`` seconds."""
    return REFERENCE_S / ((before + after) / 2.0)
