"""Benchmark of the biphoton CLI: end-to-end timings, or a traced per-layer run.

Usage, from the repository root:

    python3 perfbench/run.py --workload closed_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The load is a single-client closed loop: one process calls
``biphoton.cli.main`` with configs generated from the seed, each command
after the previous one returns, with one BLAS thread and
``BIPHOTON_THREADS`` unset.  A pass runs the workload's command list once.
After one untimed warm-up pass, passes repeat until ``--seconds`` have
gone by (at least three, or four when traced).  Every command's exit code
and output are checked, the warm-up's included.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics plus the
tracing overhead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result, with provenance and sample counts, goes to
``.perfbench-out/<workload>-seed<n>-trace<t>.json``; a traced run also
writes its spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("closed_sweep", "engine_both", "fine_pump_survey")
COLD_STARTS = 7
MIN_PASSES = 3
MIN_TRACED_PASSES = 4
COLD_START_MIX = {"python": 1.0}  # imports are interpreter work

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "simulate_s": "s",
    "pass_s": "s",
    "delays_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Printed for reading, not in the JSON line: they do not apply to every workload.
COMMAND_TIMINGS = ("simulate_closed_s", "simulate_both_s", "simulate_oracle_s",
                   "analyze_s", "compare_s")
PER_LAYER = {  # name -> unit
    "biphoton.import_s": "s",
    "cli.load_config_s": "s",
    "cli.build_problem_s": "s",
    "spectral.first_order_s": "s",
    "spectral.first_order_calls": "count",
    "spectral.cos_terms": "count",
    "states.reduced_spatial_operator_s": "s",
    "states.reduced_spatial_operator_calls": "count",
    "spatial.flip_overlap_s": "s",
    "spatial.pump_parity_overlap_s": "s",
    "interferometer.scan_s": "s",
    "interferometer.self_s": "s",
    "modesim.oracle_scan_s": "s",
    "modesim.build_initial_state_s": "s",
    "modesim.delay_us_p50": "us",
    "modesim.delay_us_p99": "us",
    "modesim.branches_per_delay": "count",
    "analysis.report_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.bytes_read": "bytes",
    "trace.overhead_frac": "1",
}


def _pin_environment() -> dict:
    """One BLAS thread and no BIPHOTON_THREADS, before numpy is imported.

    A shared BLAS pool makes the 1025 x 1025 eigvalsh swing with the load
    of other processes on the machine; the benchmark is one client in one
    thread.  Returns what the environment held before.
    """
    before = {var: os.environ.get(var) for var in BLAS_VARS + ("BIPHOTON_THREADS",)}
    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.environ.pop("BIPHOTON_THREADS", None)
    return before


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _provenance(workload, inherited: dict) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "biphoton").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "biphoton_threads": os.environ.get("BIPHOTON_THREADS", "unset (means 1)"),
        "inherited_environment": inherited,
        "config_sha256": {k: _sha256(p) for k, p in workload.configs.items()},
        "params": workload.params,
    }


def _cold_start(probe_cmd, env):
    """(wall seconds, step report) of one fresh interpreter."""
    start = perf_counter()
    proc = subprocess.run(probe_cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {proc.stderr.strip()}")
    report = json.loads(proc.stdout)
    if not Path(report["biphoton_file"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"cold start imported {report['biphoton_file']}")
    return wall, report


def _cold_starts(config: Path, calibrate) -> dict:
    """Median scaled time of fresh interpreters doing import/load_config/build_problem."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(ROOT / "perfbench" / "cold_start.py"), str(config)]
    _cold_start(cmd, env)  # writes the bytecode caches; not timed
    runs, scales, _ = calibrate.probed([functools.partial(_cold_start, cmd, env)] * COLD_STARTS,
                                       COLD_START_MIX)
    steps = [{k: v * f for k, v in report.items() if k.endswith("_s")}
             for (_, report), f in zip(runs, scales)]
    return {
        "setup_s": statistics.median(wall * f for (wall, _), f in zip(runs, scales)),
        "raw_setup_s": statistics.median(wall for wall, _ in runs),
        "biphoton.import_s": statistics.median(s["import_s"] for s in steps),
        "cli.load_config_s": statistics.median(s["load_config_s"] for s in steps),
        "cli.build_problem_s": statistics.median(s["build_problem_s"] for s in steps),
        "samples": len(runs),
    }


def _run_command(main, argv):
    """(exit code, seconds, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed command, not a failed benchmark
            traceback.print_exc()
            code = -1
        elapsed = perf_counter() - start
    return code, elapsed, out.getvalue(), err.getvalue()


def _run_pass(workload, checker, cli, calibrate, tracer=None) -> dict:
    first_span = len(tracer.spans) if tracer else 0
    with tracer.patched() if tracer else contextlib.nullcontext():
        main = tracer.wrap("cli.main", cli.main) if tracer else cli.main
        results, scales, probes = calibrate.probed(
            [functools.partial(_run_command, main, c.argv) for c in workload.commands],
            workload.probe_mix)
    record = {"traced": tracer is not None, "times": {}, "raw_times": {}, "failed": 0,
              "scale": statistics.median(scales), "probes": probes,
              "spans": (first_span, len(tracer.spans) if tracer else 0),
              "bytes_written": 0, "bytes_read": 0}
    simulate_seconds = delays = 0.0
    for command, (code, elapsed, out, err), scale in zip(workload.commands, results, scales):
        label = (f"simulate_{command.argv[-1]}_s" if command.kind == "simulate"
                 else f"{command.kind}_s")
        record["times"].setdefault(label, []).append(elapsed * scale)
        record["raw_times"].setdefault(label, []).append(elapsed)
        record["bytes_read"] += sum(p.stat().st_size for p in command.reads)
        if command.kind == "simulate":
            simulate_seconds += elapsed * scale
            delays += workload.delays
            if command.output.exists():
                record["bytes_written"] += command.output.stat().st_size
        problems = [f"exit code {code}: {err.strip()[-500:]}"] if code != 0 else \
            checker.check(command, out)
        if problems:
            record["failed"] += 1
            print(f"FAILED {' '.join(command.argv)}: {'; '.join(problems)}", file=sys.stderr)
    every = [t for ts in record["times"].values() for t in ts]
    sims = [t for k, ts in record["times"].items() if k.startswith("simulate") for t in ts]
    record["pass_s"] = sum(every)
    record["raw_pass_s"] = sum(t for ts in record["raw_times"].values() for t in ts)
    record["simulate_s"] = statistics.fmean(sims)
    record["delays_per_s"] = delays / simulate_seconds
    return record


def _median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def run_workload(name: str, seed: int, seconds: float, traced: bool, inherited: dict):
    """Measure one workload; returns (metrics, units, attempted, failed)."""
    from biphoton import cli

    import calibrate
    import checks
    import spans
    import workloads

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as tmp:
        workload = workloads.build(name, seed, Path(tmp))
        provenance = _provenance(workload, inherited)
        setup = _cold_starts(workload.first_config, calibrate)
        checker = checks.Checker(workload)
        tracer = spans.Tracer() if traced else None
        # The warm-up pass is checked but not timed: first calls pay for
        # lazy allocations (the first 1025 x 1025 eigvalsh takes ~1 s more).
        warmup = _run_pass(workload, checker, cli, calibrate)
        passes = []
        start = perf_counter()
        while (len(passes) < (MIN_TRACED_PASSES if traced else MIN_PASSES)
               or perf_counter() - start < seconds):
            use = tracer if traced and len(passes) % 2 == 1 else None
            passes.append(_run_pass(workload, checker, cli, calibrate, use))

    attempted = (len(passes) + 1) * len(workload.commands)
    failed = warmup["failed"] + sum(p["failed"] for p in passes)
    rows = [("passes", len(passes), "count",
             f"{len(workload.commands)} commands each, after one untimed warm-up pass"),
            ("speed_factor", _median_of(passes, "scale"), "1",
             f"median over passes; probe mix {workload.probe_mix}")]
    if traced:
        plain = [p for p in passes if not p["traced"]]
        timed = [p for p in passes if p["traced"]]
        metrics = {k: setup[k] for k in
                   ("biphoton.import_s", "cli.load_config_s", "cli.build_problem_s")}
        metrics.update(spans.summarize(tracer, [(*p["spans"], p["scale"]) for p in timed]))
        metrics["cli.bytes_written"] = _median_of(timed, "bytes_written")
        metrics["cli.bytes_read"] = _median_of(timed, "bytes_read")
        metrics["trace.overhead_frac"] = (_median_of(timed, "pass_s")
                                          / _median_of(plain, "pass_s") - 1.0)
        units = dict(PER_LAYER)
        note = f"{len(timed)} traced passes, per pass or per scan"
        rows += [(k, v, units[k], note) for k, v in metrics.items()]
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"{name}-seed{seed}-spans.tsv")
    else:
        metrics = {
            "setup_s": setup["setup_s"],
            "simulate_s": _median_of(passes, "simulate_s"),
            "pass_s": _median_of(passes, "pass_s"),
            "delays_per_s": _median_of(passes, "delays_per_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        rows.append(("setup_s", metrics["setup_s"], "s",
                     f"raw {setup['raw_setup_s']:.4g} s, median of {setup['samples']} cold starts"))
        for key in ("simulate_s", "pass_s", "delays_per_s"):
            rows.append((key, metrics[key], units[key], f"median over {len(passes)} passes"))
        rows.append(("raw_pass_s", _median_of(passes, "raw_pass_s"), "s", "unscaled"))
        for key in COMMAND_TIMINGS:
            calls = [p["times"][key] for p in passes if key in p["times"]]
            value = statistics.median(statistics.fmean(c) for c in calls) if calls else None
            rows.append((key, value, "s",
                         f"n={sum(map(len, calls))} calls, median over passes of the pass mean"))
        rows += [
            ("peak_rss_mb", metrics["peak_rss_mb"], "MB", "whole benchmark process"),
            ("engine_agreement", checker.engine_agreement, "1", "max over --engine both outputs"),
            ("reference_residual", checker.reference_residual, "1", "max over non-parity pumps"),
        ]
    rows.append(("fail_frac", failed / attempted, "1", f"{failed} of {attempted} commands"))

    OUT_DIR.mkdir(exist_ok=True)
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
              "attempted": attempted, "failed": failed, "provenance": provenance,
              "setup": setup,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
              "table": [list(r) for r in rows],
              "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes]}
    (OUT_DIR / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(result, indent=1) + "\n")

    print(f"== {name}  seed {seed}  trace {int(traced)}  "
          f"commit {provenance['git_commit'] or 'n/a'}  source {provenance['source_sha256'][:12]}")
    print(f"   python {provenance['python']}  numpy {provenance['numpy']}  "
          f"nproc {provenance['nproc']}  blas threads 1  BIPHOTON_THREADS unset")
    for key, sha in provenance["config_sha256"].items():
        print(f"   config {key}: sha256 {sha}")
    for key, value, unit, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"   {key:<38} {shown:>14} {unit:<6} {note}")
    return metrics, units, attempted, failed


def _run_all(args) -> int:
    """Every workload in its own process, so each peak memory is its own."""
    metrics, attempted, failed = {}, 0, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        *table, last = proc.stdout.splitlines()
        print("\n".join(table))
        result = json.loads(last)
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "biphoton" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'biphoton'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    inherited = _pin_environment()
    sys.path.insert(0, str(SRC))
    metrics, units, attempted, failed = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), inherited)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
