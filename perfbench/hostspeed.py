"""Host-speed sampling, so that times can be given at a reference speed.

On the shared machine this benchmark was written on, the speed of a
single-threaded loop drifts by 20-50% over seconds to minutes, more than any
bound worth having.  So while measured work runs, a SIGALRM handler times a
chunk of a fixed pure-Python loop every PERIOD_S; the handler's own time is
taken out of the measured time, and

    reported = measured * REF_CHUNK_S / (mean chunk time)

i.e. seconds on the reference host (2-vCPU Intel Xeon VM, Python 3.11.7),
where a chunk took REF_CHUNK_S.  The loop holds no program code, so a change
to the program moves the reported time as it moves the measured one; only
the host's drift is divided out.
"""

import signal
import time

LOOPS = 250_000
REF_CHUNK_S = 0.02
PERIOD_S = 0.25


def chunk() -> float:
    """Seconds for one chunk of the fixed loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOPS):
        acc += i * i
    return time.perf_counter() - t0


class Sampler:
    """Times a chunk every PERIOD_S while inside `with`, from a SIGALRM
    handler, and keeps the handler's wall and CPU time of that `with`."""

    def __init__(self):
        self.chunks = []
        self.wall = self.cpu = 0.0

    def _tick(self, signum, frame):
        t0, c0 = time.perf_counter(), time.process_time()
        self.chunks.append(chunk())
        self.cpu += time.process_time() - c0
        self.wall += time.perf_counter() - t0

    def __enter__(self):
        self.chunks = []
        self.wall = self.cpu = 0.0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


def scale(chunks: list) -> float:
    """Factor from measured to reference-speed seconds, given the chunk times
    sampled during the measurement; adds one more so that there is one."""
    chunks.append(chunk())
    return REF_CHUNK_S * len(chunks) / sum(chunks)

