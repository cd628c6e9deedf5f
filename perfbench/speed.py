"""How fast this machine is running right now, from fixed kernels.

On the shared 2-vCPU virtual machine where the baseline was recorded, the
CPU's speed switches between two modes about 1.5x apart. A mode lasts from
seconds to minutes, so a whole 30 s run can fall into one of them, and raw
wall-time medians from two sets of runs differ by more than any useful
bound. The worker runs a kernel between operations. It then reports times
rescaled to that kernel's reference speed:

    time * (calls * reference seconds per call) / (seconds those calls took)

Interpreted code and OpenBLAS products do not speed up and slow down by the
same factor, so each workload names the kernel that matches its work:
``python`` (dicts and floats in the interpreter) for ``cases`` and ``laws``,
``blas`` (two 200x200 by 200x201 products) for ``fixpoint``. Neither
kernel touches probfold, so no change to the library can move it. Raw wall
times stay in the run's record.
"""

import time
from functools import cache


def _python() -> None:
    acc: dict = {}
    for i in range(60):
        for j in range(60):
            k = (i * 31 + j) % 211
            acc[k] = acc.get(k, 0.0) + (i + 0.5) * j


@cache
def _blas_operands():
    # imported here so that importing this module does not import numpy,
    # whose import time belongs to the set-up measurement
    import numpy as np

    return np.random.default_rng(0).random((200, 200)), np.random.default_rng(1).random((200, 201))


def _blas() -> None:
    a, x = _blas_operands()
    a @ x
    a @ x


# kernel, and the median seconds of one call on the baseline machine; the
# reference only sets the scale of rescaled times
KERNELS = {"python": (_python, 0.001), "blas": (_blas, 0.0005)}


def sample(kind: str, calls: int = 2) -> float:
    """Seconds taken by ``calls`` calls of the named kernel."""
    kernel = KERNELS[kind][0]
    t0 = time.perf_counter()
    for _ in range(calls):
        kernel()
    return time.perf_counter() - t0


def rescaled(seconds: float, kind: str, cal_s: float, calls: int) -> float:
    """``seconds`` at the reference speed, given ``calls`` kernel calls took ``cal_s``."""
    return seconds * calls * KERNELS[kind][1] / cal_s

