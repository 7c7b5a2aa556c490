"""The dodl benchmark: per-command CLI latency, and a traced per-layer run.

Run from the repository root, for example:

    python3 perfbench/run.py --workload member-scan --seed 1 --seconds 30 --trace 0

One caller drives ``dodl.cli.main(argv)`` in-process in a closed loop, with
stdout captured; each call loads the workspace fresh, as every ``dodl``
invocation does.  A share of the time goes to cold invocations, a fresh
``python -m dodl`` process each.  Every call's exit code and stdout are
checked against answers computed without the engine (see workloads.py).

Times are steadied against a shared host whose speed drifts: the process
is pinned to one CPU, and each measured call is bracketed by readings of
a fixed pure-Python kernel.  A time is reported as measured, rescaled to
a host on which that kernel takes KERNEL_NS (see :func:`steady`).

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run (see tracing.py), and the spans are written under
``.perfbench/``.  A summary with sample counts and tails goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

KERNEL_NS = 2_000_000  # the kernel's time on the reference host
SETUPS = 9            # set-ups per run; setup_s is their median
COLD_SHARE = 0.2      # share of the measured time given to cold invocations
MIN_ROTATIONS = 3     # every metric gets at least this many samples
MIN_COLD = 5
COLD_TIMEOUT_S = 120
REPORTED_FAILURES = 5

# Runs dodl as ``python -m dodl`` does, then appends the process's own peak
# resident set to stderr.  VmHWM starts afresh at exec.  The ru_maxrss of
# RUSAGE_CHILDREN would not do: on Linux a child starts from the peak of
# the process that spawned it, so it would read the harness's memory.
RSS_MARK = "perfbench VmHWM kB: "
RSS_PROBE = f"""\
import runpy, sys
try:
    runpy.run_module("dodl", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status", encoding="ascii") as status:
        peak = [line.split()[1] for line in status if line.startswith("VmHWM:")]
    sys.stderr.write("\\n{RSS_MARK}" + " ".join(peak) + "\\n")
"""

END_TO_END = {
    "setup_s": "s",
    "cold.p50_ms": "ms",
    **{f"{command}.p50_ms": "ms" for command in workloads.COMMANDS},
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{layer}.self_ms": "ms" for layer in tracing.LAYERS},
    "lexer.tokens": "count",
    "parser.statements": "count",
    "printer.bytes": "bytes",
    "diagrams.filter_calls": "count",
    "diagrams.filter_self_ms": "ms",
    "diagrams.filter_us_per_call": "us",
    "diagrams.check_self_ms": "ms",
    "diagrams.check_inputs": "count",
    "relational.select_self_ms": "ms",
    "relational.project_self_ms": "ms",
    "relational.join_self_ms": "ms",
    "relational.setop_self_ms": "ms",
    "relational.oracle_self_ms": "ms",
    "evolver.derive_self_ms": "ms",
    "evolver.derive_calls": "count",
    "evolver.trigger_self_ms": "ms",
    "evolver.exchange_self_ms": "ms",
    "trace.overhead_pct": "%",
}


def _kernel() -> int:
    """Fixed interpreter work: build, sort and join a small table.  It takes
    about KERNEL_NS on an idle core of the host the README's baseline was
    measured on."""
    table = {}
    for i in range(3000):
        table[(i % 97, str(i))] = [i, i * 2]
    rows = sorted(table.items(), key=lambda item: item[0][1])
    return len(",".join(key[1] for key, _ in rows))


def host_speed() -> int:
    """Time the kernel, in ns, as a reading of how fast the host runs now.

    The collection and the untimed first run keep the measured work's
    garbage and cache footprint out of the reading."""
    gc.collect()
    _kernel()
    start = time.perf_counter_ns()
    _kernel()
    return time.perf_counter_ns() - start


def steady(elapsed_ns: int, before_ns: int, after_ns: int) -> float:
    """A measured time in ms, rescaled by the kernel readings just before
    and just after it, to a host where the kernel takes KERNEL_NS."""
    return elapsed_ns * KERNEL_NS / ((before_ns + after_ns) / 2) / 1e6


def pin_to_one_cpu():
    """Keep this process and its children on the CPU it runs on now, so the
    kernel gauges the core that runs the measured work."""
    try:
        cpu = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, ValueError, IndexError):
        pass  # no /proc or no affinity call on this platform: run unpinned


class Runner:
    """Invokes the CLI and checks every result; counts what it attempted."""

    def __init__(self):
        self.cli = importlib.import_module("dodl.cli")
        self.attempted = 0
        self.failed = 0
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}

    def _check(self, call: workloads.Call, code, stdout: str, stderr: str):
        self.attempted += 1
        if code == 0 and stdout == call.stdout:
            return
        self.failed += 1
        if self.failed <= REPORTED_FAILURES:
            print(f"FAILED {' '.join(call.args)[:100]}: exit {code}, "
                  f"stdout {stdout[:200]!r}, expected {call.stdout[:200]!r}, "
                  f"stderr {stderr[-300:]!r}", file=sys.stderr)

    def invoke(self, ws: Path, call: workloads.Call) -> tuple[int, str]:
        """One checked in-process invocation: raw ns and stdout."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter_ns()
            try:
                code = self.cli.main(["--workspace", str(ws), *call.args])
            except Exception as exc:  # a crash is a failed call, not the end of the run
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter_ns() - start
        self._check(call, code, out.getvalue(), err.getvalue())
        return elapsed, out.getvalue()

    def call(self, ws: Path, call: workloads.Call) -> tuple[float, str]:
        """One in-process invocation: steadied ms and stdout."""
        before = host_speed()
        elapsed, stdout = self.invoke(ws, call)
        return steady(elapsed, before, host_speed()), stdout

    def _spawn(self, argv: list[str], call: workloads.Call) -> tuple[str, str]:
        """Run ``argv`` in a fresh interpreter; check and return stdout, stderr."""
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                  timeout=COLD_TIMEOUT_S)
            code, stdout, stderr = (proc.returncode, proc.stdout.decode("utf-8", "replace"),
                                    proc.stderr.decode("utf-8", "replace"))
        except subprocess.TimeoutExpired:
            code, stdout, stderr = "timeout", "", ""
        self._check(call, code, stdout, stderr)
        return stdout, stderr

    def cold(self, ws: Path, call: workloads.Call) -> tuple[float, str]:
        """One ``python -m dodl`` invocation: steadied ms and stdout."""
        before = host_speed()
        start = time.perf_counter_ns()
        stdout, _ = self._spawn(
            [sys.executable, "-m", "dodl", "--workspace", str(ws), *call.args], call)
        return steady(time.perf_counter_ns() - start, before, host_speed()), stdout

    def peak_rss(self, ws: Path, call: workloads.Call) -> float:
        """The peak resident set in MB of one dodl process running ``call``."""
        _, stderr = self._spawn(
            [sys.executable, "-c", RSS_PROBE, "--workspace", str(ws), *call.args], call)
        for line in reversed(stderr.splitlines()):
            if line.startswith(RSS_MARK) and line[len(RSS_MARK):].isdigit():
                return int(line[len(RSS_MARK):]) / 1024
        self.failed += 1
        print(f"FAILED {' '.join(call.args)[:100]}: no peak resident set reported",
              file=sys.stderr)
        return 0.0

    def rotation(self, ws: Path, workload: workloads.Workload) -> dict[str, float]:
        """Run every command once; each command's time is the mean over its
        variants, in steadied ms."""
        return {metric: sum(self.call(ws, call)[0] for call in calls) / len(calls)
                for metric, calls in workload.rotation}


def set_up(runner: Runner, workload: workloads.Workload, ws: Path) -> float:
    """Write the workspace and load it once through the CLI; the steadied
    time in s.  Generating the workload is the benchmark's own work and
    is not timed."""
    shutil.rmtree(ws, ignore_errors=True)
    ws.mkdir(parents=True)
    before = host_speed()
    start = time.perf_counter_ns()
    for file, text in workload.files.items():
        (ws / file).write_text(text, encoding="utf-8")
    runner.invoke(ws, workload.rotation[0][1][0])
    elapsed = time.perf_counter_ns() - start
    return steady(elapsed, before, host_speed()) / 1e3


def check_once(runner: Runner, workload: workloads.Workload, ws: Path) -> float:
    """Checks made once per run, outside the timed loop.  Returns the
    largest peak resident set, in MB, of a dodl process running one of
    the rotation's calls."""
    # dump -> load -> dump reproduces the bytes.
    dump_call = dict(workload.rotation)["dump"][0]
    again = ws.parent / (ws.name + "-dump")
    shutil.rmtree(again, ignore_errors=True)
    again.mkdir()
    (again / "dump.dodl").write_text(runner.call(ws, dump_call)[1], encoding="utf-8")
    runner.call(again, dump_call)
    shutil.rmtree(again)
    # The in-process path prints the bytes the real CLI prints.
    peak = 0.0
    for _, calls in workload.rotation:
        for call in calls:
            inside, outside = runner.call(ws, call)[1], runner.cold(ws, call)[1]
            if inside != outside:
                runner.failed += 1
                print(f"FAILED {call.args}: in-process and subprocess "
                      f"stdout differ", file=sys.stderr)
            peak = max(peak, runner.peak_rss(ws, call))
    return peak


def measure(runner: Runner, workload, ws: Path, seconds: float):
    """Closed loop: rotations of in-process calls, cold calls interleaved."""
    samples: dict[str, list[float]] = {metric: [] for metric, _ in workload.rotation}
    cold: list[float] = []
    cold_ns = 0
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    rotations = 0
    while rotations < MIN_ROTATIONS or time.perf_counter_ns() < deadline:
        for metric, ms in runner.rotation(ws, workload).items():
            samples[metric].append(ms)
        rotations += 1
        while len(cold) < MIN_COLD or cold_ns < COLD_SHARE * (time.perf_counter_ns() - start):
            began = time.perf_counter_ns()
            cold.append(runner.cold(ws, workload.cold)[0])
            cold_ns += time.perf_counter_ns() - began
            if len(cold) >= MIN_COLD and time.perf_counter_ns() >= deadline:
                break
    samples["cold"] = cold
    return samples


class StaleTrace(Exception):
    """The boundary map in tracing.py no longer matches the program."""


def measure_traced(runner: Runner, workload, ws: Path, seconds: float, trace_file: Path):
    """Alternate untraced and traced rotations; per-layer metrics are the
    medians over traced rotations."""
    tracer = tracing.Tracer()
    untraced, traced, layers = [], [], []
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    try:
        while len(traced) < MIN_ROTATIONS or time.perf_counter_ns() < deadline:
            untraced.append(sum(runner.rotation(ws, workload).values()))
            tracer.install()
            first = len(tracer.spans)
            try:
                if tracer.missing:
                    raise StaleTrace("not found: " + ", ".join(sorted(tracer.missing)))
                traced.append(sum(runner.rotation(ws, workload).values()))
            finally:
                tracer.uninstall()
            layers.append(tracing.layer_metrics(tracer.totals(first, len(tracer.spans))))
    finally:
        tracer.write(trace_file)
    # Every workload reaches every boundary, so a boundary without spans
    # means its callers no longer look it up by the wrapped name.
    unseen = set(tracing.BOUNDARIES) - {span[2] for span in tracer.spans}
    if unseen:
        raise StaleTrace("never called: " + ", ".join(sorted(unseen)))
    report_one_call(tracer, first, workload)
    metrics = {name: statistics.median(r[name] for r in layers) for name in layers[0]}
    metrics["trace.overhead_pct"] = \
        (statistics.median(traced) / statistics.median(untraced) - 1) * 100
    return metrics


def report_one_call(tracer: tracing.Tracer, first: int, workload):
    """Show that the layer self times of one call, the first ``index`` call
    of the rotation whose spans start at ``first``, sum to its root span."""
    roots = [i for i in range(first, len(tracer.spans)) if tracer.spans[i][1] == -1]
    position = [metric for metric, calls in workload.rotation
                for _ in calls].index("index")
    root = roots[position]
    end = roots[position + 1]
    by_layer: dict[str, int] = {}
    for span, own in zip(tracer.spans[root:end], tracer.self_times(root, end)):
        layer = tracing.layer_of(span[2])
        by_layer[layer] = by_layer.get(layer, 0) + own
    total = tracer.spans[root][4] - tracer.spans[root][3]
    parts = " + ".join(f"{layer} {ns / 1e6:.3f}" for layer, ns in by_layer.items())
    print(f"trace: one index call: {parts} = {sum(by_layer.values()) / 1e6:.3f} ms; "
          f"its cli.main span {total / 1e6:.3f} ms", file=sys.stderr)


def summarize(samples: dict[str, list[float]]):
    """Median and tail of every timing, with its sample count, to stderr."""
    for metric, values in samples.items():
        ordered = sorted(values)
        n = len(ordered)
        line = f"{metric:12s} n={n:4d} p50={statistics.median(ordered):10.3f} ms"
        if n >= 100:  # the highest percentile with at least 10 samples beyond it
            line += f"  p{100 * (n - 10) / n:.1f}={ordered[n - 11]:10.3f} ms"
        print(line, file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dodl" / "__init__.py").is_file():
        print(f"error: no dodl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    pin_to_one_cpu()
    runner = Runner()
    ws = WORK / f"{args.workload}-seed{args.seed}"
    workload = workloads.build(args.workload, args.seed, ws)
    try:
        setup_times = [set_up(runner, workload, ws) for _ in range(SETUPS)]
        peak_rss_mb = check_once(runner, workload, ws)
        runner.rotation(ws, workload)
        runner.cold(ws, workload.cold)
        # Each timed call starts from a collected heap, as a fresh process
        # would; what exists by now is frozen so collecting stays cheap.
        gc.collect()
        gc.freeze()
        if args.trace:
            trace_file = WORK / f"trace-{args.workload}.tsv"
            try:
                layer = measure_traced(runner, workload, ws, args.seconds, trace_file)
            except StaleTrace as exc:
                # Layer metrics from a partial boundary map would mislead.
                print(f"error: update BOUNDARIES in tracing.py; {exc}", file=sys.stderr)
                return 1
            metrics = {name: {"value": layer[name], "unit": unit}
                       for name, unit in PER_LAYER.items()}
        else:
            samples = measure(runner, workload, ws, args.seconds)
            summarize(samples)
            values = {f"{metric}.p50_ms": statistics.median(v) for metric, v in samples.items()}
            values["setup_s"] = statistics.median(setup_times)
            values["peak_rss_mb"] = peak_rss_mb
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(ws, ignore_errors=True)
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
