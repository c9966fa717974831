"""Host speed, measured by a fixed numpy kernel run beside the operations.

The benchmark runs on virtual machines that share their cores and memory
with other tenants, whose load changes over minutes. An operation that takes
1.3 s in a quiet minute takes 1.8 s in a busy one, with CPU time following
wall time, so raw seconds from two sets of runs an hour apart differ by more
than any useful bound. The kernel below is timed at the start of a run and
after each set-up and each operation, and every time the run reports is
scaled by KERNEL_REF_S over the median of those kernel times. The result
reads as seconds at the reference speed: the speed at which the kernel takes
KERNEL_REF_S.

The kernel is the benchmark's own code and never calls graphtree, so a
change to the program cannot move the yardstick. It does what the
estimators' chunked distance passes do, in both of their shapes: at n=128,
where each chunk is a fresh 16 MiB block that has to be faulted in, and at
n=1000, where one 32 MiB block is reused and memory is streamed. Each fills
the block with pairwise row differences, takes absolute values and reduces.
Timed beside the three kinds of operation, the streaming shape correlated
with every kind as well as or better than the other candidates; the
fresh-block shape stays because the modified passes also fault in fresh
pages, which streaming does not. The kernel runs in a child process of its
own, idle while an operation runs, so that its blocks do not count in the
run's peak RSS.

    python3 perfbench/hostspeed.py    # one kernel time per line read on stdin
"""

from __future__ import annotations

import subprocess
import sys
import time

KERNEL_REF_S = 0.2  # the kernel's typical time on the 2-vCPU host where this was set


def kernel_seconds(small, large, buf, out) -> float:
    """Wall time of one pass of the fixed kernel: 8 fresh-block chunks of the
    Chebyshev row distances of the 128x128 array `small`, then the first 20
    rows of those of the 1000x1000 array `large`, 4 rows at a time in `buf`."""
    import numpy as np

    t0 = time.perf_counter()
    for _ in range(8):
        fresh = np.empty((128, 128, 128))
        np.subtract(small[:, None, :], small[None, :, :], out=fresh)
        np.abs(fresh, out=fresh)
        fresh.max(axis=2)
    for lo in range(0, 20, 4):
        np.subtract(large[lo:lo + 4, None, :], large[None, :, :], out=buf)
        np.abs(buf, out=buf)
        buf.max(axis=2, out=out)
    return time.perf_counter() - t0


class Kernel:
    """The kernel's child process; `seconds()` runs one pass there.

    Use as a context manager: leaving it closes the child's stdin, which
    ends the child, and waits for it.
    """

    def __enter__(self) -> "Kernel":
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        return self

    def seconds(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host-speed kernel ended (exit {self.proc.wait()})")
        return float(line)

    def __exit__(self, *exc) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def main() -> None:
    import numpy as np

    rng = np.random.default_rng(0)
    args = rng.random((128, 128)), rng.random((1000, 1000)), np.empty((4, 1000, 1000)), \
        np.empty((4, 1000))
    kernel_seconds(*args)  # the first pass pays one-off costs; not a sample
    for _ in sys.stdin:
        print(repr(kernel_seconds(*args)), flush=True)


if __name__ == "__main__":
    main()
