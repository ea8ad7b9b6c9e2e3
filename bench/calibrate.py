"""Host-speed calibration for the benchmark's timings.

On the reference machine (a 2-vCPU VM) the speed of pure-Python code drifts
by up to 1.8x over seconds to minutes, independently on each vCPU: a fixed
loop measured 8 ms in some 5-second windows and 15 ms in others, and it
shows in CPU time as much as in wall time.  Raw seconds from two runs
minutes apart therefore differ by more than any useful regression bound.

So every worker starts a sampler process on its own vCPU at the lowest
priority.  The sampler runs a fixed kernel of stdlib-only code (Fraction
arithmetic into a dict, the engine's mix) over and over and records the CPU
time of each run; it gets about 1.5% of the vCPU while the worker is busy.
Each timed interval of the worker is then scaled by the kernel's nominal
time times the mean speed (1 / kernel time) sampled during (or, for short
intervals, around) that interval.  A change to fockcalc cannot change
the kernel, so the scaled time moves only with the engine's own work.

    python3 bench/calibrate.py        # the sampler: one "time cpu_s" line
                                      # per kernel run until terminated
"""

import os
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter, sleep, thread_time

# Nominal kernel CPU time: about the median of the sampler running alone for
# 30 seconds on the reference machine (0.62 ms), so that scaled seconds read
# close to raw seconds there.
NOMINAL_S = 0.0006
# intervals with fewer samples inside are widened on both sides until they
# hold this many
MIN_SAMPLES = 40
# the sampler runs alone this long at start and end, so that every interval
# has samples on both sides
SETTLE_S = 0.02


def kernel():
    acc = {}
    third = Fraction(1, 3)
    for i in range(150):
        key = (i % 89, i % 7)
        val = acc.get(key, 0) + third * i
        if val:
            acc[key] = val
        else:
            acc.pop(key, None)
    return acc


def sampler_main():
    """Sample until SIGTERM, then write all samples to stdout; exit
    silently when the worker is gone.

    The first sample is written at once, to say that sampling has begun;
    the rest are kept in memory so that a full pipe never stalls sampling.
    """
    os.nice(19)
    samples = []

    def stop(signum, frame):
        sys.stdout.write("".join(f"{t} {s}\n" for t, s in samples))
        sys.stdout.flush()
        sys.exit(0)

    signal.signal(signal.SIGTERM, stop)
    parent = os.getppid()
    # a worker that was killed cannot stop its sampler: stop when orphaned
    while os.getppid() == parent:
        start = thread_time()
        kernel()
        # perf_counter is CLOCK_MONOTONIC on Linux, shared with the worker
        samples.append((perf_counter(), thread_time() - start))
        if len(samples) == 1:
            sys.stdout.write(f"{samples[0][0]} {samples[0][1]}\n")
            sys.stdout.flush()


class Clock:
    """A running sampler and the scaling of intervals against its samples.

    Use as a context manager; the sampler is stopped and reaped on exit.
    """

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, __file__],
                                     stdout=subprocess.PIPE, text=True)
        self.proc.stdout.readline()  # the sampler is running
        sleep(SETTLE_S)  # samples of the host speed before the first interval
        return self

    def __exit__(self, *exc):
        sleep(SETTLE_S)  # and after the last one
        self.proc.terminate()
        self.samples = []
        for line in self.proc.stdout.read().splitlines():
            parts = line.split()
            if len(parts) == 2:
                self.samples.append((float(parts[0]), float(parts[1])))
        self.proc.stdout.close()
        self.proc.wait()
        return False

    def scale(self, start, end):
        """Scaled length of the interval [start, end] of perf_counter time.

        Call after the context has exited.
        """
        times = [t for t, _ in self.samples]
        lo = next((k for k, t in enumerate(times) if t >= start), len(times))
        hi = next((k for k, t in enumerate(times) if t > end), len(times))
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(times))
        if lo == hi:
            raise RuntimeError("the calibration sampler recorded nothing")
        # work done = time x speed, so average the sampled speed 1/cpu
        speed = statistics.fmean(1 / s for _, s in self.samples[lo:hi])
        return (end - start) * NOMINAL_S * speed


if __name__ == "__main__":
    sampler_main()
