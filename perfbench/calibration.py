"""Host-speed calibration: a fixed kernel timed around every measurement.

On a shared host the same work can take up to twice as long for tens of
seconds at a time, when other tenants load the machine.  The benchmark
therefore times this kernel, which does not involve mgsim, around every
timed repetition and every set-up.  It reports each timing scaled to
the speed at which the kernel takes ``REFERENCE_S``:

    reported seconds = measured seconds * REFERENCE_S / kernel seconds

The kernel is a pure-Python arithmetic loop.  It tracked the slow spells
of every workload better than a numpy FFT kernel or a mix of the two.
``REFERENCE_S`` is roughly the kernel's time on an unloaded 2-vCPU Xeon
host.  It only sets the scale of the reported seconds, and it is the same
for every commit.
"""

import time

REFERENCE_S = 0.018
_LOOP = 300_000
_SAMPLES = 5


def kernel_seconds():
    """Median of a few timings of the calibration kernel."""
    return sorted(_kernel_once() for _ in range(_SAMPLES))[_SAMPLES // 2]


def _kernel_once():
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(_LOOP):
        acc += i * 0.5
    return time.perf_counter() - t0


def scale(before, after):
    """Factor that turns seconds measured between two kernel timings into
    seconds at the reference speed."""
    return REFERENCE_S / (0.5 * (before + after))
