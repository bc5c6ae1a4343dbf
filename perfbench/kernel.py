"""The fixed reference kernel that every timed unit is measured against.

On a shared machine the CPU's speed drifts by up to 2x in phases of
seconds to tens of seconds, and process CPU time drifts with it.  So the
benchmark samples this kernel between consecutive units of work and
reports each unit's time as a multiple of the mean of the samples taken
just before and just after it, rescaled to seconds by the nominal
duration.  The kernel runs no qnetcap code.

It has four parts, timed separately, because the slow phases do not slow
all kinds of work alike: interpreter loops slow by up to 1.9x, dense
complex matrix products by about 1.5x, and starting a fresh interpreter
(exec, dynamic loading, page faults) follows neither.  Each workload is
normalised by the parts that resemble its own work
(``workloads.REFERENCE``); fresh-interpreter timings use ``spawn``.
"""

from __future__ import annotations

import sys
import time

import numpy as np

# Median duration of each part on the reference machine (README.md); a
# unit's normalised time is (unit s / reference s) * nominal s.
NOMINAL_S = {"interp": 0.0044, "small": 0.0036, "dense": 0.0055, "spawn": 0.059}

# each part is repeated this many times per sample and the fastest
# repetition is kept, so a single preemption does not count
REPEATS = 3

_rng = np.random.default_rng(20121208)


def _hermitian(d):
    a = _rng.normal(size=(d, d)) + 1j * _rng.normal(size=(d, d))
    return a @ a.conj().T


_SMALL = [_hermitian(4) for _ in range(8)]
_MEDIUM = _hermitian(48)
_DENSE = [_rng.normal(size=(256, 256)) + 1j * _rng.normal(size=(256, 256))
          for _ in range(4)]


def _interp():
    """Dictionary grouping of tuples, like the entropy layer's marginals."""
    table = {}
    for i in range(9000):
        key = (i % 7, i % 5, i % 3)
        table[key] = table.get(key, 0.0) + 0.5 * i
    return sum(table.values())


def _small():
    """Many tiny Hermitian spectra and one 48x48 spectrum and product."""
    acc = 0.0
    for _ in range(12):
        for m in _SMALL:
            w = np.linalg.eigvalsh(m)
            acc += float(np.sum(w[w > 1e-12]))
    for _ in range(4):
        acc += float(np.linalg.eigvalsh(_MEDIUM)[-1])
        acc += abs(complex((_MEDIUM @ _MEDIUM)[0, 0]))
    return acc


def _dense():
    """256x256 complex products and traces, like the 2^8 decoder algebra."""
    acc = abs(complex((_DENSE[0] @ _DENSE[1])[0, 0]))
    for a in _DENSE:
        for b in _DENSE:
            acc += np.vdot(a, b).real
    return acc


def _timed(fn):
    def part(spawner):
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    return part


def _spawn(spawner):
    """A fresh interpreter that does nothing, timed from spawn to exit."""
    return spawner.run([sys.executable, "-c", "pass"], cwd=spawner.out_dir).seconds


PARTS = {"interp": _timed(_interp), "small": _timed(_small), "dense": _timed(_dense),
         "spawn": _spawn}


def sample(parts, spawner) -> dict:
    """Seconds per part: the fastest of REPEATS runs of each."""
    return {p: min(PARTS[p](spawner) for _ in range(REPEATS)) for p in parts}


def reference(samples, parts) -> float:
    """Mean over the given samples of the summed time of ``parts``."""
    return sum(s[p] for s in samples for p in parts) / len(samples)


def nominal(parts) -> float:
    return sum(NOMINAL_S[p] for p in parts)
