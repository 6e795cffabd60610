"""cotv benchmark: one command, three workloads, a correctness gate.

Usage (from the repository root)::

    python3 bench/run.py --workload report-mix --seed 1 --seconds 20 --trace 0

Workloads: ``cli-cold`` (fresh ``cotv value`` processes), ``report-mix``
(in-process reports over a seeded corpus) and ``sweep-grid`` (in-process
sweeps over seeded grids); see README.md for why each exists.

The run measures the checkout's own ``src/`` through ``PYTHONPATH``.  It
times set-up (spawn to ready) several times and reports the median, then
lets the last worker measure for ``--seconds``.  The run and every
process it starts are pinned to one CPU, and every reported time is scaled
to a nominal machine speed by fixed reference work timed beside it on that
CPU (``reference.py``), so drift of a shared host cancels out.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` instruments
the library from outside and reports per-layer metrics instead.  Human-readable lines come first; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A run whose outputs fail the correctness gate
prints ``"correct": false`` with no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("cli-cold", "report-mix", "sweep-grid")
SETUPS = 3
SETUP_REFERENCE_CALLS = 10  # interpreter starts before each spawn and once it is ready
IMPORT_PROBES = 3
WORKER_TIMEOUT_S = 160.0  # all spawns of one run together

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# What one operation and one throughput item are on each workload, and the
# names the end-to-end metrics go by there.
ALIASES = {
    "cli-cold": {"op": "one `cotv value` process", "item": "processes",
                 "latency_p50_ms": "cli_value_ms", "throughput_per_s": "cli_values_per_s"},
    "report-mix": {"op": "one parse+report+render (method both)", "item": "reports",
                   "latency_p50_ms": "report_p50_ms", "latency_p90_ms": "report_p90_ms",
                   "throughput_per_s": "reports_per_s"},
    "sweep-grid": {"op": "one 32-point sweep + CSV render", "item": "grid points",
                   "throughput_per_s": "sweep_points_per_s"},
}

PER_LAYER = {
    "import.cotv_s": "s", "import.modules": "count", "import.scipy_stats": "count",
    "config.parse_calls": "count", "config.parse_s": "s",
    "config.model_builds": "count", "config.utility_builds": "count",
    "preferences.construct_s": "s",
    "distributions.pdf_calls": "count", "distributions.cdf_calls": "count",
    "distributions.nodes": "count", "distributions.pdf_cdf_s": "s",
    "distributions.expect_calls": "count", "distributions.expect_s": "s",
    "numerics.integrate_calls": "count", "numerics.panels": "count",
    "numerics.integrand_evals": "count", "numerics.integrate_s": "s",
    "numerics.find_root_calls": "count", "numerics.root_evals": "count",
    "numerics.bracket_expansions": "count", "numerics.find_root_s": "s",
    "numerics.integrate_per_report": "count", "numerics.evals_per_report": "count",
    "eu.evaluate_s": "s", "non_eu.dt_valuation_s": "s", "non_eu.rdu_valuation_s": "s",
    "cli.run_scenario_s": "s", "cli.render_s": "s",
    "selfcheck.eu_exact.integrate_calls": "count",
    "selfcheck.eu_exact.find_root_calls": "count",
    "selfcheck.rdu_exact.integrate_calls": "count",
    "trace.overhead_frac": "frac",
    "ledger.still_failing": "count",
    "src.lines": "count",
}

IMPORT_PROBE = (
    "import json, sys, time\n"
    "before = time.perf_counter()\n"
    "import cotv\n"
    "elapsed = time.perf_counter() - before\n"
    "print(json.dumps({'import.cotv_s': elapsed, 'import.modules': len(sys.modules),"
    " 'import.scipy_stats': int('scipy.stats' in sys.modules)}))\n"
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", *ref[5:].split("/"))
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    return None


def _src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, "rb") as handle:
            total += handle.read().count(b"\n")
    return total


def _import_probe() -> dict:
    """Median import time and module counts of ``import cotv``, in fresh
    interpreters."""
    runs = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        runs.append(json.loads(done.stdout))
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


def _pin_to_one_cpu() -> int | None:
    """Pin this process, and so every process it starts, to the
    highest-numbered CPU it may use.  The reference work then runs on the
    CPU the program runs on; another CPU of a shared host can run at
    another speed.  Returns the CPU, or None where affinity is not
    supported."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _worker(args, out_dir: str, setups: int) -> tuple[dict, list[float], list[float]]:
    """Spawn the worker ``setups`` times, timing spawn-to-ready; the last
    one measures.  Returns its result, the set-up times and each set-up's
    scale to the nominal reference speed.  Workers still running at the
    deadline are killed."""
    import reference

    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    setup_times = []
    setup_scales = []
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    for attempt in range(setups):
        samples = reference.SPAWN.timings(SETUP_REFERENCE_CALLS)
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, env=_env(), stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True)
        killer = threading.Timer(max(deadline - started, 1.0), proc.kill)
        killer.start()
        try:
            ready = proc.stdout.readline()
            setup_times.append(time.perf_counter() - started)
            # the worker now waits on stdin, so the reference runs alone
            samples += reference.SPAWN.timings(SETUP_REFERENCE_CALLS)
            setup_scales.append(reference.SPAWN.scale(samples))
            last = attempt == setups - 1
            stdout, _ = proc.communicate("go\n" if last else "stop\n")
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if ready.strip() != "READY" or proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1]), setup_times, setup_scales


def _summary(args, result: dict, setup_times: list[float], metrics: dict) -> None:
    alias = ALIASES[args.workload]
    n = result["samples"]
    print(f"workload {args.workload} seed {args.seed}: one operation = {alias['op']}; "
          f"{n['inputs']} inputs x {n['passes']} whole passes = {n['ops']} operations, "
          f"{n['items_per_pass']} {alias['item']} per pass")
    fail_frac = result["failed"] / result["attempted"]
    print(f"  fail_frac = {fail_frac:.6g} ({result['failed']} of {result['attempted']} attempted)")
    per_input = f"{n['inputs']} inputs, each its median of {n['passes']} passes"
    counts = {"setup_s": f"{len(setup_times)} set-ups", "throughput_per_s": per_input,
              "latency_p50_ms": per_input, "latency_p90_ms": per_input,
              "peak_rss_mb": (f"{n['ops']} processes" if args.workload == "cli-cold"
                              else "1 process")}
    for name, entry in metrics.items():
        label = alias.get(name, name)
        label = name if label == name else f"{name} ({label})"
        samples = counts.get(name)
        tail = f"  (n = {samples})" if samples is not None else ""
        print(f"  {label:48s} {entry['value']:.6g} {entry['unit']}{tail}")
    ref = result["reference_ms"]
    print(f"  times at the nominal reference speed: one {ref['kind']} reference call {ref['nominal']:.3g} ms"
          f" nominal, {ref['median']:.3g} ms measured (quartiles {ref['q1']:.3g}"
          f"-{ref['q3']:.3g} ms, {ref['calls']} calls); unscaled in the context line")
    for name, check in result["checks"].items():
        status = "ok" if check["failed"] == 0 else f"FAILED: {check['first_failure']}"
        print(f"  check {name}: {check['checked']} checked, {status}")
    ledger = result["ledger"]
    still = [f"{key}={value}" for key, value in sorted(ledger.items()) if value != "passes"]
    print(f"  ledger: {len(still)} of {len(ledger)} fast reproducers still fail"
          f" ({', '.join(still)})")


def main() -> int:
    parser = argparse.ArgumentParser(description="cotv benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "cotv", "cli.py")):
        sys.stderr.write(f"bench: no cotv sources under {SRC}; run from a full checkout\n")
        return 2

    cpu = _pin_to_one_cpu()
    out_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        probe = _import_probe() if args.trace else {}
        result, setup_times, setup_scales = _worker(args, out_dir,
                                                    1 if args.trace else SETUPS)
        spans = result.pop("spans", None)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    if args.trace:
        values = dict(result["per_layer"], **probe)
        values["ledger.still_failing"] = sum(v != "passes" for v in result["ledger"].values())
        values["src.lines"] = _src_lines()
        # a layer the workload never calls has no spans: zero calls, zero time
        metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER.items()}
        with open(os.path.join(OUT, f"spans-{args.workload}.jsonl"), "w",
                  encoding="utf-8") as handle:
            for span in spans or []:
                handle.write(json.dumps(span) + "\n")
    else:
        values = dict(result["end_to_end"], setup_s=statistics.median(
            t * scale for t, scale in zip(setup_times, setup_scales)))
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}

    _summary(args, result, setup_times, metrics)
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "pinned_cpu": cpu,
        **result["versions"],
        "git_commit": _git_commit(), "src_lines": _src_lines(),
        "samples": result["samples"], "setup_runs": len(setup_times),
        "setup_times_s": setup_times, "setup_scales": setup_scales,
        "unscaled": result["unscaled"], "reference_ms": result["reference_ms"],
        "checks": result["checks"],
        "ledger": result["ledger"],
    }
    print("context " + json.dumps(context, sort_keys=True))
    correct = bool(result["correct"])
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics if correct else {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
