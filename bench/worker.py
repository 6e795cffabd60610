"""Benchmark worker: sets up one workload, says READY, then measures it.

Started by ``run.py`` with ``src/`` on ``PYTHONPATH``.  After set-up
(import, inputs, warm-up) it prints ``READY`` and waits for one line on
stdin: ``go`` runs the measurement and prints one JSON result line,
anything else exits, so ``run.py`` can time set-up several times.

The caller is closed loop with one client: each operation starts when the
previous one has finished.  Operations run in passes over a fixed input
list, and only whole passes are measured, so every run weighs the inputs
the same.  After each timed operation the worker times the fixed
reference work of ``reference.py``, and scales each operation's time by
the median reference time around it, so drift of the shared host between
and within runs cancels out.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
import warnings

import inputs
import reference
import spans

HERE = os.path.dirname(os.path.abspath(__file__))

# Correctness tolerances, fixed before any measurement.  Observed when this
# benchmark was added: 1.2e-12 on the quadratic ceiling and exactly 0
# between RDU with identity weighting and EU.
RHO_BOUND_RTOL = 1e-9
IDENTITY_RTOL = 1e-9
IDENTITY_FIELDS = ("premium_exact", "vot_exact", "cot_exact", "cotv_exact",
                   "rho_exact")

LEDGER_LIMIT_S = 5.0
CLI_TIMEOUT_S = 60.0


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checks:
    """Named pass/fail results of the correctness gate."""

    def __init__(self):
        self.results: dict[str, list] = {}

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        entry = self.results.setdefault(name, [0, 0, ""])
        entry[0] += 1
        if not ok:
            entry[1] += 1
            entry[2] = entry[2] or detail

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(f == 0 for _, f, _ in self.results.values())

    def to_dict(self) -> dict:
        return {name: {"checked": n, "failed": f, "first_failure": d}
                for name, (n, f, d) in self.results.items()}


class Passes:
    """Per-input latencies, digests, operation time and reference timings
    of whole passes."""

    def __init__(self):
        self.latencies: list[list[float]] = []
        self.digests: list[list[str]] = []
        self.walls: list[float] = []
        self.references: list[list[float]] = []  # one list per operation, in run order
        self.attempted = 0
        self.failed = 0

    def scaled_latencies(self, ref: reference.Reference,
                         window: int) -> list[list[float]]:
        """Per input, its latency in each pass at the nominal reference
        speed.  Operation j is scaled by the reference timings taken after
        operations j - window to j + window - 1, so those just before and
        just after it are always in."""
        inputs = len(self.latencies)
        out: list[list[float]] = [[] for _ in range(inputs)]
        for j in range(len(self.references)):
            near = [t for samples in self.references[max(0, j - window):j + window]
                    for t in samples]
            latency = self.latencies[j % inputs][j // inputs]
            out[j % inputs].append(latency * ref.scale(near))
        return out


class InProcess:
    """A workload whose operations are calls into the imported library."""

    # The reference work, the calls of it timed after each operation of a
    # calibrated pass, and how many operations on each side of one
    # contribute theirs to its scale: 40 timings over about a second.
    REFERENCE = reference.COMPUTE
    REFERENCE_CALLS = 1
    REFERENCE_WINDOW = 20

    def __init__(self, seed: int, out_dir: str):
        import cotv.cli
        import cotv.config

        self.cli = cotv.cli
        self.config = cotv.config
        self.out_dir = out_dir
        self.inputs = self.make_inputs(seed)
        self.first_outputs: list[bytes | None] = []
        self.last_spans: list[list] = []
        for raw in self.warmup_inputs():
            self.op(raw)

    def make_inputs(self, seed):
        raise NotImplementedError

    def warmup_inputs(self):
        return self.inputs[:1]

    def op(self, raw) -> bytes:
        raise NotImplementedError

    def items(self, raw) -> int:
        return 1

    def run_pass(self, passes: Passes, tracer: spans.Tracer | None = None,
                 calibrate: bool = False) -> None:
        """One pass over the inputs.  ``calibrate`` times the reference
        work after each operation, outside the operation's time."""
        digests = []
        elapsed = 0.0
        keep = not self.first_outputs
        if not passes.latencies:
            passes.latencies = [[] for _ in self.inputs]
        for raw, latencies in zip(self.inputs, passes.latencies):
            passes.attempted += 1
            t0 = time.perf_counter()
            index = tracer.open(spans.OP) if tracer else None
            try:
                out = self.op(raw)
            except Exception:  # boundary: count the failure and keep measuring
                passes.failed += 1
                traceback.print_exc(file=sys.stderr)
                out = None
            finally:
                if tracer:
                    tracer.close(index)
                    tracer.op += 1
            latencies.append(time.perf_counter() - t0)
            elapsed += latencies[-1]
            digests.append(_digest(out) if out is not None else "failed")
            if keep:
                self.first_outputs.append(out)
            if calibrate:
                passes.references.append(self.REFERENCE.timings(self.REFERENCE_CALLS))
        passes.walls.append(elapsed)
        passes.digests.append(digests)

    def traced_pass(self, passes: Passes, tracer: spans.Tracer) -> dict:
        uninstall = spans.install(tracer)
        try:
            self.run_pass(passes, tracer)
        finally:
            uninstall()
        spans_, counts = tracer.drain()
        self.last_spans = spans_
        return spans.layer_metrics(spans_, counts)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def reports_per_pass(self) -> int:
        return sum(self.items(raw) for raw in self.inputs)

    def check_outputs(self, checks: Checks) -> None:
        raise NotImplementedError


class ReportMix(InProcess):
    """parse_config + run_scenario (method both) + render on one scenario."""

    def make_inputs(self, seed):
        self.corpus = inputs.report_corpus(seed)
        return [item["config"] for item in self.corpus]

    def warmup_inputs(self):
        seen = {}
        for item in self.corpus:
            seen.setdefault(item["cell"], item["config"])
        return list(seen.values())

    def op(self, raw) -> bytes:
        config = self.config.parse_config(raw)
        return self.cli.render_envelope(self.cli.run_scenario(config)).encode()

    def check_outputs(self, checks: Checks) -> None:
        results = [json.loads(out)["results"] if out is not None else None
                   for out in self.first_outputs]
        for item, res in zip(self.corpus, results):
            if res is None:
                continue
            if "pq_bound" in item["tags"]:
                checks.record("eu_pure_quadratic_rho_exact_eq_cv2_over_2",
                              _close(res["rho_exact"], res["rho_upper_bound"], RHO_BOUND_RTOL),
                              f"rho_exact={res['rho_exact']!r} bound={res['rho_upper_bound']!r}")
            if item["twin"] is not None and results[item["twin"]] is not None:
                twin = results[item["twin"]]
                bad = [k for k in IDENTITY_FIELDS if not _close(res[k], twin[k], IDENTITY_RTOL)]
                checks.record("rdu_identity_matches_eu", not bad, f"fields {bad}")


class SweepGrid(InProcess):
    """sweep_rows + render_csv over one two-axis grid."""

    def make_inputs(self, seed):
        return inputs.sweep_grids(seed)  # every grid has both model families

    def items(self, raw) -> int:
        total = 1
        for values in raw["sweep"]["axes"].values():
            total *= len(values)
        return total

    def op(self, raw) -> bytes:
        config = self.config.parse_config(raw)
        columns, rows = self.cli.sweep_rows(config)
        return self.cli.render_csv(columns, rows).encode()

    def check_outputs(self, checks: Checks) -> None:
        for raw, out in zip(self.inputs, self.first_outputs):
            if out is None:
                continue
            rows = list(csv.DictReader(io.StringIO(out.decode())))
            checks.record("sweep_row_count", len(rows) == self.items(raw),
                          f"{len(rows)} rows for {self.items(raw)} grid points")
            for row in rows:
                checks.record("sweep_bound_not_violated",
                              row["bound_violated_exact"] == "false", str(row))
                if float(row["axis:preference.params.b"]) == 0.0:
                    checks.record("eu_pure_quadratic_rho_exact_eq_cv2_over_2",
                                  _close(float(row["rho_exact"]),
                                         float(row["rho_upper_bound"]), RHO_BOUND_RTOL),
                                  f"rho_exact={row['rho_exact']} bound={row['rho_upper_bound']}")


class CliCold(InProcess):
    """One fresh ``python -m cotv.cli value --config FILE`` process."""

    # a process takes about 1.3 s; 8 interpreter starts (about 0.1 s)
    # before and after it
    REFERENCE = reference.SPAWN
    REFERENCE_CALLS = 8
    REFERENCE_WINDOW = 1

    def make_inputs(self, seed):
        configs = inputs.cli_configs(seed)
        self.paths = []
        self.expected = {}
        for index, raw in enumerate(configs):
            path = os.path.join(self.out_dir, f"cli-{index}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(raw, handle)
            self.paths.append(path)
            envelope = self.cli.run_scenario(self.config.parse_config(raw))
            self.expected[path] = self.cli.render_envelope(envelope).encode()
        self.rss: list[float] = []
        self.traced_metrics: list[dict] = []
        self.tracing = False
        return self.paths

    def warmup_inputs(self):
        # computing the expected envelopes has imported and run everything
        # the child processes load
        return []

    def op(self, path) -> bytes:
        stdout_path = os.path.join(self.out_dir, "cli-stdout")
        stderr_path = os.path.join(self.out_dir, "cli-stderr")
        if self.tracing:
            summary = os.path.join(self.out_dir, "cli-trace.json")
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), summary,
                   "value", "--config", path]
        else:
            cmd = [sys.executable, "-m", "cotv.cli", "value", "--config", path]
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err)
            killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss.append(usage.ru_maxrss / 1024.0)
        if proc.returncode != 0:
            with open(stderr_path, encoding="utf-8", errors="replace") as handle:
                raise RuntimeError(f"cotv value exited {proc.returncode}: {handle.read()}")
        if self.tracing:
            with open(summary, encoding="utf-8") as handle:
                traced = json.load(handle)
            self.traced_metrics.append(traced["metrics"])
            self.last_spans = traced["spans"]
        with open(stdout_path, "rb") as handle:
            return handle.read()

    def traced_pass(self, passes: Passes, tracer: spans.Tracer) -> dict:
        self.tracing = True
        self.traced_metrics = []
        try:
            self.run_pass(passes)
        finally:
            self.tracing = False
        total: dict[str, float] = {}
        for metrics in self.traced_metrics:
            for name, value in metrics.items():
                total[name] = total.get(name, 0.0) + value
        return total

    def peak_rss_mb(self) -> float:
        return statistics.median(self.rss)

    def check_outputs(self, checks: Checks) -> None:
        for path, out in zip(self.paths, self.first_outputs):
            if out is None:
                continue
            checks.record("cli_output_equals_library_output", out == self.expected[path],
                          f"{os.path.basename(path)} differs from the in-process envelope")
            res = json.loads(out)["results"]
            if res.get("rho_upper_bound") is not None and "rho_exact" in res:
                checks.record("eu_pure_quadratic_rho_exact_eq_cv2_over_2",
                              _close(res["rho_exact"], res["rho_upper_bound"], RHO_BOUND_RTOL),
                              f"rho_exact={res['rho_exact']!r}")


WORKLOADS = {"cli-cold": CliCold, "report-mix": ReportMix, "sweep-grid": SweepGrid}


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile, inclusive method (defined for two or more values)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _determinism(passes: Passes, checks: Checks, name: str) -> None:
    first = passes.digests[0]
    for other in passes.digests[1:]:
        checks.record(name, other == first, "rendered output changed between passes")


def _self_check() -> dict:
    """Wrapper counts against an independent count of the kernel's code
    objects, on one EU exact exponential and one RDU exact report.

    When this benchmark was added the counts were 3 integrate + 1 find_root
    (EU) and 6 integrate (RDU); only the agreement of the two counters gates.
    """
    import cotv.cli
    import cotv.config
    from cotv import numerics

    codes = {numerics.integrate.__code__: "numerics.integrate_calls",
             numerics.find_root.__code__: "numerics.find_root_calls"}
    cases = {
        "eu_exact": {"framework": "eu", "distribution": {"family": "exponential",
                     "params": {"rate": 1.0}}, "preference": {"family": "pure_quadratic",
                     "params": {"a": -1.0}}, "method": "exact"},
        "rdu_exact": {"framework": "rdu", "distribution": {"family": "lognormal",
                      "params": {"log_mean": 1.0, "log_sd": 0.5}}, "preference": {
                      "family": "power", "params": {"exponent": 1.5}}, "weighting": {
                      "family": "inverse_s", "params": {"gamma": 0.8}}, "method": "exact"},
    }
    result = {}
    for name, raw in cases.items():
        tracer = spans.Tracer()
        profiled = {key: 0 for key in codes.values()}

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                profiled[codes[frame.f_code]] += 1

        uninstall = spans.install(tracer)
        sys.setprofile(profile)
        try:
            cotv.cli.run_scenario(cotv.config.parse_config(raw))
        finally:
            sys.setprofile(None)
            uninstall()
        wrapped = {key: tracer.counts[key] for key in codes.values()}
        result[name] = {"wrapped": wrapped, "profiled": profiled}
    return result


class _Timeout(Exception):
    pass


def _run_ledger() -> dict:
    """Re-run the fast known-defect reproducers, untimed."""
    import cotv.cli
    import cotv.config
    from cotv.errors import CotvError

    with open(os.path.join(HERE, "ledger.json"), encoding="utf-8") as handle:
        regions = json.load(handle)["regions"]

    def expire(signum, frame):
        raise _Timeout()

    previous = signal.signal(signal.SIGALRM, expire)
    outcome = {}
    try:
        # the reproducers hit singular weightings on purpose
        warnings.simplefilter("ignore", RuntimeWarning)
        for region in regions:
            if not region["fast"]:
                continue
            signal.setitimer(signal.ITIMER_REAL, LEDGER_LIMIT_S)
            try:
                cotv.cli.run_scenario(cotv.config.parse_config(region["config"]))
                outcome[region["id"]] = "passes"
            except CotvError as exc:
                outcome[region["id"]] = type(exc).__name__
            except _Timeout:
                outcome[region["id"]] = "timeout"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return outcome


def measure(workload: InProcess, seconds: float, trace: bool) -> dict:
    checks = Checks()
    timed = Passes()
    result: dict = {}
    if trace:
        selfcheck = _self_check()
        for name, counts in selfcheck.items():
            checks.record("selfcheck_wrappers_count_every_call",
                          counts["wrapped"] == counts["profiled"], f"{name}: {counts}")

    # Traced passes alternate with untraced ones, so drift on a shared
    # machine lands on both sides of trace.overhead_frac alike.
    traced = Passes()
    tracer = spans.Tracer()
    layers = []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        workload.run_pass(timed, calibrate=True)
        if trace:
            layers.append(workload.traced_pass(traced, tracer))
        now = time.perf_counter()
        if now + (now - started) > deadline:  # the next round would overrun
            break
    rss = workload.peak_rss_mb()

    if trace:
        _determinism(traced, checks, "traced_output_identical_to_untraced")
        checks.record("traced_output_identical_to_untraced",
                      traced.digests[0] == timed.digests[0])
        per_layer = dict(layers[0])
        for name in per_layer:
            if name.endswith("_s"):
                per_layer[name] = statistics.median(layer.get(name, 0.0) for layer in layers)
        reports = per_layer.get("cli.run_scenario_calls", 0.0)
        if reports:
            per_layer["numerics.integrate_per_report"] = (
                per_layer.get("numerics.integrate_calls", 0.0) / reports)
            per_layer["numerics.evals_per_report"] = (
                per_layer.get("numerics.integrand_evals", 0.0) / reports)
        per_layer["trace.overhead_frac"] = statistics.median(
            t / u for t, u in zip(traced.walls, timed.walls)) - 1.0
        for name, counts in selfcheck.items():
            for counter, value in counts["wrapped"].items():
                per_layer[f"selfcheck.{name}.{counter.split('.')[1]}"] = float(value)
        result["per_layer"] = per_layer
        result["spans"] = workload.last_spans

    _determinism(timed, checks, "output_identical_across_passes")
    workload.check_outputs(checks)
    ledger = _run_ledger()

    # An input's latency is its median over the passes, each operation
    # scaled to the nominal reference speed (see reference.py).  The
    # unscaled figures go to the context record.
    scaled = [statistics.median(x)
              for x in timed.scaled_latencies(workload.REFERENCE, workload.REFERENCE_WINDOW)]
    raw = [statistics.median(x) for x in timed.latencies]
    reference_ms = [1e3 * t for samples in timed.references for t in samples]
    quartiles = statistics.quantiles(reference_ms, n=4)
    result.update({
        "attempted": timed.attempted + traced.attempted,
        "failed": timed.failed + traced.failed,
        "end_to_end": dict(_latency_metrics(workload, scaled), peak_rss_mb=rss),
        "unscaled": _latency_metrics(workload, raw),
        "reference_ms": {"kind": workload.REFERENCE.name,
                         "nominal": 1e3 * workload.REFERENCE.nominal_s,
                         "median": quartiles[1], "q1": quartiles[0], "q3": quartiles[2],
                         "calls": len(reference_ms)},
        "samples": {"inputs": len(scaled), "passes": len(timed.walls),
                    "ops": timed.attempted, "items_per_pass": workload.reports_per_pass()},
        "checks": checks.to_dict(),
        "correct": checks.ok and timed.failed + traced.failed == 0,
        "ledger": ledger,
        "versions": _versions(),
    })
    return result


def _latency_metrics(workload: InProcess, latencies: list[float]) -> dict:
    return {"throughput_per_s": workload.reports_per_pass() / sum(latencies),
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_p90_ms": 1e3 * _quantile(latencies, 90)}


def _versions() -> dict:
    import numpy
    import scipy
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for scratch files")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.out)
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    if sys.stdin.readline().strip() != "go":
        return 0
    result = measure(workload, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
