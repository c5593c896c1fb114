#!/usr/bin/env python3
"""bellkit benchmark.

    python3 bench/run.py --workload {shots,programs,trace,selfcheck} \\
        --seed N --seconds S --trace {0,1}

Run from a checkout: bellkit is imported from its `src/` directory.  Load is
a closed loop with one client: each operation of the workload's batch, a
`bellkit` command line run in-process through `cli.main`, starts after the
previous one ends, and the batch repeats while another one fits in
`--seconds`.  Interpreter start plus `import bellkit`, which every CLI call
pays on top, is timed in fresh processes.  Every output is checked after the
timed region (see verify.py).

With `--trace 0` the last line carries the end-to-end metrics.  With
`--trace 1` the batch runs once to warm up, once untraced and once with spans
around bellkit's public calls, and the last line carries the per-layer
metrics; spans are written to .bench_build/bellkit-bench/spans-<workload>.npz.
The line before the last holds machine facts, sample counts, the failure
ratio, unscaled times and the metrics that apply to this workload only.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from calibration import Calibration
import tracing
import verify
import workloads

ROOT = Path(__file__).resolve().parent.parent
TIME_LIMIT_S = 170  # the whole run, set-up and checks included
SETUP_SAMPLES = 21
# Set-up times are scaled to a machine on which interpreter start plus
# `import numpy` takes this long.
SETUP_REF_S = 0.15
IMPORTTIME_SAMPLES = 3
REPLAY_SHOTS = 64  # shots per `run` operation in library_replay()

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "shots_per_s": "1/s",
    "programs_per_s": "1/s",
    "latency_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
}

PER_LAYER = {
    "engine.run_us_per_shot": "us",
    "engine.derive_rng_us": "us",
    "engine.run_shot_us": "us",
    "engine.measure_value_us": "us",
    "engine.measure_relative_us": "us",
    "engine.outcome_key_us": "us",
    "core.projector_us": "us",
    "core.apply2_us": "us",
    "core.lift_us": "us",
    "circuit.parse_us": "us",
    "circuit.validate_us": "us",
    "circuit.format_program_us": "us",
    "cli.main_ms": "ms",
    "cli.self_ms": "ms",
    "bell.bell_state_us": "us",
    "bell.separability_defect_us": "us",
    "import.numpy_ms": "ms",
    "import.bellkit_self_ms": "ms",
    "engine.draws_per_shot": "count",
    "engine.det_branches_per_shot": "count",
    "engine.measurements_per_shot": "count",
    "engine.outcome_keys": "count",
    "circuit.steps_per_program": "count",
    "cli.stdout_bytes": "count",
    "cli.self_share": "ratio",
    "circuit.self_share": "ratio",
    "engine.self_share": "ratio",
    "core.self_share": "ratio",
    "bell.self_share": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
}


@dataclass
class Result:
    exit: int
    stdout: bytes
    stderr: bytes
    wall: float  # s
    cpu: float  # user + system s, pool workers included
    rss_mb: float  # max resident set size of this process so far
    calibration_lo: int = 0  # calibration samples taken before the operation
    calibration_hi: int = 0  # and after it


class Runner:
    """Runs bellkit operations in-process, and fresh interpreters for set-up timing."""

    def __init__(self, bellkit) -> None:
        self.bk = bellkit
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.calibration = Calibration()

    def spawn(self, argv: list[str]) -> subprocess.CompletedProcess:
        """Run python with argv in a fresh process."""
        return subprocess.run([sys.executable, *argv], env=self.env, capture_output=True)

    def in_process(self, argv) -> Result:
        """Run one bellkit command line; its times leave out calibration."""
        out, err = io.StringIO(), io.StringIO()
        spent, lo = self.calibration.spent, len(self.calibration.samples)
        cpu = _cpu_s()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.bk.cli.main(list(argv))
        wall = time.perf_counter() - start
        spent = self.calibration.spent - spent
        return Result(code, out.getvalue().encode(), err.getvalue().encode(), wall - spent,
                      _cpu_s() - cpu - spent, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                      lo, len(self.calibration.samples))

    def setup_s(self) -> tuple[float, float]:
        """Interpreter start to `import bellkit` done, in a fresh process; and
        the part of that up to `import numpy` done.  bellkit imports numpy
        before its own code either way."""
        source = "import time, numpy\nnumpy_done = time.monotonic_ns()\nimport bellkit\nprint(numpy_done, time.monotonic_ns())"
        start = time.monotonic_ns()
        child = self.spawn(["-c", source])
        if child.returncode != 0:
            raise RuntimeError(f"import bellkit failed: {child.stderr.decode(errors='replace')}")
        numpy_done, done = (int(t) for t in child.stdout.split())
        return (done - start) / 1e9, (numpy_done - start) / 1e9

    def import_times_ms(self) -> tuple[float, float]:
        """numpy's cumulative and bellkit's own import time, from -X importtime."""
        numpy_us = bellkit_us = 0
        for line in self.spawn(["-X", "importtime", "-c", "import bellkit"]).stderr.decode().splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, cumulative_us, module = (part.strip() for part in line[len("import time:"):].split("|"))
            if module == "numpy":
                numpy_us = int(cumulative_us)
            if module == "bellkit" or module.startswith("bellkit."):
                bellkit_us += int(self_us)
        return numpy_us / 1e3, bellkit_us / 1e3


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _fresh_heap() -> None:
    """Start a batch with the collector state of a fresh CLI process.

    The benchmark's own objects are frozen out of later collections, and the
    generation counters start at zero, so every repetition of a batch
    triggers the same collections.
    """
    gc.collect()
    gc.freeze()


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _serial_twin(ops, index: int):
    """Index of the serial operation a `--workers 2` operation must match."""
    argv = ops[index].argv
    if "--workers" not in argv:
        return None
    at = argv.index("--workers")
    serial = argv[:at] + argv[at + 2:]
    return next(i for i, op in enumerate(ops) if op.argv == serial)


def check_batch(verifier: verify.Verifier, ops, results: list[Result]) -> list[str]:
    failures = []
    for index, (op, result) in enumerate(zip(ops, results)):
        reason = verifier.check(op, result.exit, result.stdout, result.stderr)
        twin = _serial_twin(ops, index)
        if reason is None and twin is not None and result.stdout != results[twin].stdout:
            reason = "--workers 2 stdout differs from the serial stdout"
        if reason is not None:
            failures.append(f"{' '.join(op.argv)}: {reason}")
    return failures


def _same_output(a: Result, b: Result) -> bool:
    return (a.exit, a.stdout, a.stderr) == (b.exit, b.stdout, b.stderr)


def untraced(runner: Runner, verifier: verify.Verifier, workload, seconds: int):
    """Repeat the batch while another one fits in `seconds`; report medians.

    Other tenants of the machine slow it by up to half, from seconds to
    minutes at a time.  Calibration samples its speed all through the run,
    and every operation's times are scaled by calibration.CALIBRATION_REF_S / (median
    calibration time during and around the operation).  Every set-up time
    is scaled by SETUP_REF_S / (the part of it up to `import numpy` done):
    start-up work is slowed by other tenants in a way that calibrate() does
    not follow.  The unscaled values go to the detail line.
    """
    calibration = runner.calibration
    runner.setup_s()  # fills the bytecode and page caches
    setup = []  # (s, of which s up to `import numpy` done)
    setup_every = seconds / SETUP_SAMPLES  # samples are spread over the run

    ops = workload.ops
    batches: list[list[Result]] = []
    failures: list[str] = []
    start = time.perf_counter()
    with calibration.running():
        while not batches or time.perf_counter() - start + sum(r.wall for r in batches[-1]) <= seconds:
            _fresh_heap()
            results = []
            for op in ops:
                while len(setup) < SETUP_SAMPLES and time.perf_counter() - start >= len(setup) * setup_every:
                    setup.append(runner.setup_s())
                results.append(runner.in_process(op.argv))
            if batches:  # every repetition must print exactly what the checked first one printed
                failures += [f"{' '.join(op.argv)}: output changed between repetitions"
                             for op, a, b in zip(ops, batches[0], results) if not _same_output(a, b)]
                results = [replace(r, stdout=b"", stderr=b"") for r in results]  # not kept in peak_rss_mb
            batches.append(results)
        while len(setup) < SETUP_SAMPLES:
            setup.append(runner.setup_s())
    failures = check_batch(verifier, ops, batches[0]) + failures

    def scale(r: Result) -> float:
        return calibration.scale(r.calibration_lo, r.calibration_hi)

    every = [r for results in batches for r in results]
    latencies = [r.wall * scale(r) * 1e3 for r in every]
    metrics = {
        "setup_s": statistics.median(t * SETUP_REF_S / numpy_t for t, numpy_t in setup),
        "wall_s": statistics.median(sum(r.wall * scale(r) for r in results) for results in batches),
        "latency_ms_p50": statistics.median(latencies),
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in results) for results in batches),
        "cpu_s": statistics.median(sum(r.cpu * scale(r) for r in results) for results in batches),
    }
    metrics["shots_per_s"] = workload.shots / metrics["wall_s"]
    metrics["programs_per_s"] = workload.program_runs / metrics["wall_s"]
    raw = {
        "setup_s": statistics.median(t for t, _ in setup),
        "wall_s": statistics.median(sum(r.wall for r in results) for results in batches),
        "latency_ms_p50": statistics.median(r.wall * 1e3 for r in every),
        "cpu_s": statistics.median(sum(r.cpu for r in results) for results in batches),
    }
    extra = {f"unscaled.{name}": _metric(value, END_TO_END[name]) for name, value in raw.items()}
    extra["calibration_s"] = _metric(statistics.median(calibration.samples), "s")
    if len(latencies) >= 1000:  # at least ten samples beyond the 99th percentile
        extra["latency_ms_p99"] = _metric(statistics.quantiles(latencies, n=100)[98], "ms")
    samples = {"batches": len(batches), "ops_per_batch": len(ops), "latency": len(latencies),
               "setup": len(setup), "calibration": len(calibration.samples)}
    return ({k: _metric(metrics[k], u) for k, u in END_TO_END.items()}, extra, samples,
            len(every), failures)


def library_replay(bellkit, ops) -> None:
    """The library calls `bellkit run` does not make, on the batch's programs.

    Every program goes through `format_program` (the canonical round trip),
    and the first shots of every `run` through `derive_rng(seed, i) ->
    run_shot`.  This is where `circuit.format_program_us` and
    `engine.run_shot_us` come from.
    """
    circuit, engine = bellkit.circuit, bellkit.engine
    programs = {}
    for op in ops:
        if op.shots and op.source:
            if op.source not in programs:
                programs[op.source] = circuit.parse(op.source)[0]
                circuit.format_program(programs[op.source])
            for index in range(min(op.shots, REPLAY_SHOTS)):
                engine.run_shot(programs[op.source], engine.derive_rng(op.seed, index))


def traced(runner: Runner, verifier: verify.Verifier, workload, work: Path):
    ops = workload.ops
    warm = [runner.in_process(op.argv) for op in ops]  # fills caches before either timed pass
    _fresh_heap()
    start = time.perf_counter()
    plain = [runner.in_process(op.argv) for op in ops]
    untraced_wall = time.perf_counter() - start

    tracer = tracing.Tracer()
    with tracer.install():
        _fresh_heap()
        start = time.perf_counter()
        spanned = []
        for index, op in enumerate(ops):
            tracer.current_op = index
            spanned.append(runner.in_process(op.argv))
        traced_wall = time.perf_counter() - start
        in_batch = len(tracer)
        tracer.current_op = tracing.REPLAY_OP
        library_replay(runner.bk, ops)
    failures = check_batch(verifier, ops, plain)
    failures += [f"{' '.join(op.argv)}: output changed between repetitions or under tracing"
                 for op, a, b, c in zip(ops, plain, warm, spanned)
                 if not (_same_output(a, b) and _same_output(a, c))]
    tracer.save(str(work / f"spans-{workload.name}.npz"))

    spans = tracing.SpanStats(tracer)
    import_ms = [runner.import_times_ms() for _ in range(IMPORTTIME_SAMPLES)]
    tally = verifier.tally
    self_s = spans.layer_self_s()
    serial_runs = spans.mask("engine.run")
    metrics = {
        "engine.run_us_per_shot": spans.duration[serial_runs].sum() / spans.size[serial_runs].sum() / 1e3,
        "engine.derive_rng_us": spans.median_us("engine.derive_rng"),
        "engine.run_shot_us": spans.median_us("engine.run_shot", replay=True),
        "engine.measure_value_us": spans.median_us("engine.measure_value"),
        "engine.measure_relative_us": spans.median_us("engine.measure_relative"),
        "engine.outcome_key_us": spans.median_us("engine.outcome_key"),
        "core.projector_us": spans.median_us("core.projector"),
        "core.apply2_us": spans.median_us("core.apply2"),
        "core.lift_us": spans.median_us("core.lift"),
        "circuit.parse_us": spans.median_us("circuit.parse"),
        "circuit.validate_us": spans.median_us("circuit.validate"),
        "circuit.format_program_us": spans.median_us("circuit.format_program", replay=True),
        "cli.main_ms": spans.median_us("cli.main") / 1e3,
        "cli.self_ms": float(np.median(spans.self_time[spans.mask("cli.main")])) / 1e6,
        "bell.bell_state_us": spans.median_us("bell.bell_state"),
        "bell.separability_defect_us": spans.median_us("bell.separability_defect"),
        "import.numpy_ms": statistics.median(n for n, _ in import_ms),
        "import.bellkit_self_ms": statistics.median(b for _, b in import_ms),
        "engine.draws_per_shot": tally.draws / tally.shots,
        "engine.det_branches_per_shot": tally.deterministic / tally.shots,
        "engine.measurements_per_shot": tally.measurements / tally.shots,
        "engine.outcome_keys": tally.outcome_keys,
        "circuit.steps_per_program": tally.steps / tally.programs,
        "cli.stdout_bytes": sum(len(r.stdout) for r in plain),
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
    }
    for layer in ("cli", "circuit", "engine", "core", "bell"):
        metrics[f"{layer}.self_share"] = self_s.get(layer, 0.0) / traced_wall

    extra = {}
    if spans.calls("bell.classify"):
        extra["bell.classify_us"] = _metric(spans.median_us("bell.classify"), "us")
    for name in spans.names:
        if name.startswith("checks.") and spans.calls(name):
            extra[f"{name}_s"] = _metric(spans.median_us(name) / 1e6, "s")
    if spans.calls("checks.run_all"):
        extra["checks.self_share"] = _metric(self_s["checks"] / traced_wall, "ratio")
    for index, op in enumerate(ops):
        twin = _serial_twin(ops, index)
        if twin is not None:
            extra["engine.workers2_speedup"] = _metric(plain[twin].wall / plain[index].wall, "ratio")
            extra["engine.workers2_serial_s"] = _metric(plain[twin].wall, "s")
            extra["engine.workers2_parallel_s"] = _metric(plain[index].wall, "s")
    if tally.bad_programs:
        extra["circuit.diagnostics_per_bad_program"] = _metric(tally.diagnostics / tally.bad_programs, "count")
    samples = {"spans": len(tracer), "spans_in_batch": in_batch, "ops_per_batch": len(ops),
               "importtime": IMPORTTIME_SAMPLES}
    return ({k: _metric(v, PER_LAYER[k]) for k, v in metrics.items()}, extra, samples,
            3 * len(ops), failures)


def _loadavg() -> list[float]:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return [float(x) for x in handle.read().split()[:3]]
    except OSError:
        return []


def _import_bellkit():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import bellkit
    import bellkit.checks
    import bellkit.cli

    if not Path(bellkit.__file__).resolve().is_relative_to(src):
        raise ImportError(f"bellkit imported from {bellkit.__file__}, not from {src}")
    return bellkit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bellkit" / "__init__.py").is_file() or not (ROOT / "programs").is_dir():
        print(f"bench: {ROOT} holds no bellkit sources (src/bellkit) and sample programs", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    machine = {"nproc": os.cpu_count(), "python": sys.version.split()[0], "loadavg_start": _loadavg()}
    bellkit = _import_bellkit()
    machine["numpy"] = np.__version__
    workload = workloads.build(args.workload, args.seed)
    work = ROOT / workloads.WORK_DIR
    work.mkdir(parents=True, exist_ok=True)
    for path, text in workload.files.items():
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text, encoding="utf-8", newline="")

    runner = Runner(bellkit)

    def on_alarm(signum, frame):
        raise TimeoutError(f"benchmark exceeded {TIME_LIMIT_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(TIME_LIMIT_S)
    verifier = verify.Verifier(bellkit)
    try:
        if args.trace:
            metrics, extra, samples, attempted, failures = traced(runner, verifier, workload, work)
        else:
            metrics, extra, samples, attempted, failures = untraced(runner, verifier, workload, args.seconds)
    except TimeoutError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
    bad = [k for k, m in metrics.items() if not math.isfinite(m["value"]) or m["value"] <= 0]
    if bad:
        print(f"bench: no measurement for {bad}", file=sys.stderr)
        return 4
    for failure in failures[:20]:
        print(f"bench: FAIL {failure}", file=sys.stderr)
    machine["loadavg_end"] = _loadavg()
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "trace": args.trace,
        "machine": machine,
        "samples": samples,
        "fail_ratio": _metric(len(failures) / attempted, "ratio"),
        "workload_metrics": extra,
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
