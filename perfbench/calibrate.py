"""Machine-speed probe: fixed interpreter, numpy and LAPACK work.

The shared machines this benchmark runs on change speed by 20-50 % within
seconds to minutes, and interpreter, numpy and LAPACK code slow down by
different amounts.  The benchmark therefore runs a probe before and after
every timed step.  A workload's mix gives the share of its time each kind
of work takes; the probe's slowdown is the mix-weighted ratio of its part
times to REFERENCE, and a step's raw seconds are divided by the mean
slowdown of the probes on either side.  Times are thus reported in
seconds of a machine on which the probe parts take REFERENCE.  The probe
never calls the package, so a faster program lowers the scaled times by
the same ratio as the raw ones.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict

import numpy as np

# Median part times on a 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4, one
# BLAS thread.  Only units: changing them rescales every run alike.
REFERENCE = {"python": 0.035, "numpy": 0.080, "lapack": 0.025}

# 5001 x 1025 doubles (41 MB) is above glibc's largest mmap threshold, so
# the block is mapped and unmapped on every call, as the program's own
# blocks are, and leaves the allocator's tuning untouched.
_TAU = np.linspace(-20.0, 20.0, 5001)
_OMEGA = np.linspace(-1.0, 1.0, 1025)
_WEIGHTS = np.linspace(0.0, 1.0, 1025)
_HERMITIAN = np.diag(np.linspace(1.0, 2.0, 401)).astype(complex) + 1e-3j * np.tri(401, k=-1)
_HERMITIAN = _HERMITIAN + np.triu(_HERMITIAN.conj().T, k=1)


def _python() -> None:
    """Dict and tuple churn, like the oracle's branch bookkeeping."""
    table: dict = {}
    for i in range(150000):
        key = (i % 16, i % 7)
        table[key] = table.get(key, 0.0) + i * 0.5


def _numpy() -> None:
    """One cos(outer) pass of the envelope kernel's shape, in place."""
    block = np.outer(_TAU, _OMEGA)
    np.cos(block, out=block)
    block @ _WEIGHTS


def _lapack() -> None:
    """A Hermitian eigvalsh, like the density-operator check."""
    np.linalg.eigvalsh(_HERMITIAN)


_PARTS = {"python": _python, "numpy": _numpy, "lapack": _lapack}


def probe(mix: Dict[str, float]) -> Dict[str, float]:
    """Seconds taken by each probe part that ``mix`` weighs."""
    times = {}
    for name in mix:
        start = perf_counter()
        _PARTS[name]()
        times[name] = perf_counter() - start
    return times


def probed(calls, mix: Dict[str, float]):
    """Run each call between probes; returns (results, scales, probes).

    A call's scale, the factor from its raw to its reported seconds, is
    one over the mean slowdown of the probes just before and after it.
    """
    def slowdown(times):
        return sum(share * times[name] / REFERENCE[name] for name, share in mix.items())

    probes, results = [probe(mix)], []
    for call in calls:
        results.append(call())
        probes.append(probe(mix))
    scales = [2.0 / (slowdown(a) + slowdown(b)) for a, b in zip(probes, probes[1:])]
    return results, scales, probes
