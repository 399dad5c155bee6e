"""Spans around the calls into each layer's public functions.

The traced run swaps the functions below for wrappers while a pass runs
and puts the originals back afterwards; nothing inside the package is
edited.  A name imported into another module is patched there too,
since that is the reference the caller uses.  Each span records its
name, start, end, parent and an optional note (a work count, or the
scanned interferometer kind).  Spans stay in memory until the run writes
them out.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
from time import perf_counter
from typing import Dict, List

import numpy as np

from biphoton import analysis, cli, interferometer, modesim, spatial, spectral, states


def _cos_terms(args, _result):
    evaluator, tau = args[0], args[1]
    return int(np.size(tau)) * evaluator.grid.point_count


def _targets():
    """(span name, [(owner, attribute)], note) for every traced function."""
    return [
        ("cli.load_config", [(cli, "load_config")], None),
        ("cli.build_problem", [(cli, "build_problem")], None),
        ("interferometer.scan", [(cli, "scan"), (interferometer, "scan")],
         lambda args, _r: args[1].kind),
        ("spectral.first_order", [(spectral.EnvelopeEvaluator, "first_order")], _cos_terms),
        ("states.reduced_spatial_operator",
         [(interferometer, "reduced_spatial_operator"), (states, "reduced_spatial_operator")],
         None),
        ("spatial.flip_overlap", [(interferometer, "flip_overlap"), (spatial, "flip_overlap")],
         None),
        ("spatial.pump_parity_overlap",
         [(interferometer, "pump_parity_overlap"), (spatial, "pump_parity_overlap")], None),
        ("modesim.oracle_scan", [(modesim, "oracle_scan")], None),
        ("modesim.build_initial_state", [(modesim, "build_initial_state")], None),
        ("modesim.apply_pipeline", [(modesim, "apply_pipeline")],
         lambda _a, result: len(result.branches)),
        ("modesim.singles_rate", [(modesim, "singles_rate")], None),
        ("modesim.coincidence_rate", [(modesim, "coincidence_rate")], None),
        ("analysis.report", [(analysis, "report")], None),
    ]


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, note]."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Trace the layer functions for the duration of the block."""
        saved = []
        try:
            for name, owners, note in _targets():
                for owner, attr in owners:
                    original = getattr(owner, attr)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original, note))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as out:
            out.write("id\tparent\tname\tstart_s\tend_s\tnote\n")
            for i, (name, start, end, parent, note) in enumerate(self.spans):
                out.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\t"
                          f"{'' if note is None else note}\n")


def summarize(tracer: Tracer, passes) -> Dict[str, float]:
    """Per-layer metrics over traced passes.

    ``passes`` holds (first span, end span, scale) per pass; each pass's
    times are multiplied by its machine-speed scale.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]

    per_pass = []
    delays_us: List[float] = []
    branches: List[int] = []
    scans = mzim_scans = first_order = cos_terms = rso_mzim = 0
    for lo, hi, scale in passes:
        busy: Dict[str, float] = {}
        self_time = {"cli.main": 0.0, "interferometer.scan": 0.0}
        delay_start = None
        for i in range(lo, hi):
            name, start, end, parent, note = spans[i]
            busy[name] = busy.get(name, 0.0) + (end - start) * scale
            if name in self_time:
                self_time[name] += ((end - start) - child_time[i]) * scale
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "interferometer.scan":
                scans += 1
                mzim_scans += note == interferometer.MZIM
            elif name == "spectral.first_order" and parent_name == "interferometer.scan":
                first_order += 1
                cos_terms += note
            elif (name == "states.reduced_spatial_operator"
                  and parent_name == "interferometer.scan"
                  and spans[parent][4] == interferometer.MZIM):
                rso_mzim += 1
            elif name == "modesim.apply_pipeline":
                delay_start = start
                branches.append(note)
            elif name == "modesim.coincidence_rate" and delay_start is not None:
                delays_us.append((end - delay_start) * 1e6 * scale)
                delay_start = None
        per_pass.append((busy, self_time))

    def median_busy(name):
        return statistics.median(b.get(name, 0.0) for b, _ in per_pass)

    def median_self(name):
        return statistics.median(s[name] for _, s in per_pass)

    def ratio(num, den):
        return num / den if den else 0.0

    p99 = (statistics.quantiles(delays_us, n=100)[98] if len(delays_us) >= 100
           else max(delays_us, default=0.0))
    return {
        "spectral.first_order_s": median_busy("spectral.first_order"),
        "spectral.first_order_calls": ratio(first_order, scans),
        "spectral.cos_terms": ratio(cos_terms, scans),
        "states.reduced_spatial_operator_s": median_busy("states.reduced_spatial_operator"),
        "states.reduced_spatial_operator_calls": ratio(rso_mzim, mzim_scans),
        "spatial.flip_overlap_s": median_busy("spatial.flip_overlap"),
        "spatial.pump_parity_overlap_s": median_busy("spatial.pump_parity_overlap"),
        "interferometer.scan_s": median_busy("interferometer.scan"),
        "interferometer.self_s": median_self("interferometer.scan"),
        "modesim.oracle_scan_s": median_busy("modesim.oracle_scan"),
        "modesim.build_initial_state_s": median_busy("modesim.build_initial_state"),
        "modesim.delay_us_p50": statistics.median(delays_us) if delays_us else 0.0,
        "modesim.delay_us_p99": p99,
        "modesim.branches_per_delay": ratio(sum(branches), len(branches)),
        "analysis.report_s": median_busy("analysis.report"),
        "cli.self_s": median_self("cli.main"),
    }
