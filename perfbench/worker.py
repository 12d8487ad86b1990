"""Benchmark worker: one fresh interpreter, one thread, a closed loop.

`run.py` starts it; each operation is one JSON payload line of the ops file,
handed to `bicanonical.cli.run_scenario`, and the next operation starts
when the previous one has returned.  The worker reports, per operation, the
exit code, the digest of the canonical JSON result, the latency of the
`run_scenario` call alone and the factor that scales it to reference speed.
Each record is written to standard output as one JSON line when its
operation ends and is not kept, so the worker's peak memory is the
program's and does not grow with the number of operations.  A last line
holds the rest of the report.

    python3 worker.py --src SRC --ops FILE --probe
    python3 worker.py --src SRC --ops FILE (--seconds S | --count N)
                      [--warmup-ops K | --warmup-seconds W] [--keep K]
                      [--trace SPANS_FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from collections import deque
from fractions import Fraction
from pathlib import Path

from workloads import canonical_json

CRASH = -1  # exit code recorded when anything but ScenarioError escapes

# The machines this runs on change speed by up to 1.7x within a minute
# (shared hosts), far more than the bounds in BENCHMARK.json.  So every
# latency is also expressed at a reference speed: it is multiplied by
# CAL_REF_NS over the recent time of a fixed calibration kernel, sampled
# every CAL_EVERY_S between operations and averaged over the last
# CAL_WINDOW samples (about one second) without their extremes.  The kernel
# is the benchmark's own code (exact rational arithmetic with growing
# integers, tuples, dicts, like the program's hot paths), so a change to the
# program never moves it.
CAL_REF_NS = 600_000
CAL_EVERY_S = 0.05
CAL_WINDOW = 20


def load_cli(src: str):
    """Import bicanonical.cli from the given source tree, and only from it."""
    sys.path.insert(0, src)
    from bicanonical import cli
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"bicanonical was imported from {cli.__file__}, not from {src}")
    return cli


def digest(result) -> str:
    return hashlib.sha256(canonical_json(result)).hexdigest()[:12]


def run_op(cli, payload, call=None):
    """Run one scenario: (exit code, result or error text, latency ns).

    `call` lets the tracer run the scenario under its root span."""
    def scenario():
        return cli.run_scenario(payload)[0]

    start = time.perf_counter_ns()
    try:
        result = scenario() if call is None else call(scenario)
        code = 0
    except cli.ScenarioError as exc:
        result, code = None, exc.exit_code
    except Exception:  # a raw traceback is a failed operation, not a crash of the bench
        result, code = traceback.format_exc(limit=-4), CRASH
    return code, result, time.perf_counter_ns() - start


def outcome(code, result) -> str:
    """The checked form of an outcome: the exit code, and for exit 0 the
    digest of the canonical JSON result."""
    return f"{code}:{digest(result)}" if code == 0 else f"{code}:"


def calibration_kernel() -> int:
    acc, table = Fraction(0), {}
    for i in range(1, 200):
        acc += Fraction(i, i + 1)
        table[(i % 17, i)] = [acc.numerator % 1000, str(i)]
    return len(table)


class Speed:
    """Scale factor from measured to reference-speed time, from a rolling
    trimmed mean of calibration-kernel timings."""

    def __init__(self):
        self.samples: deque = deque(maxlen=CAL_WINDOW)
        self.last = 0.0
        for _ in range(CAL_WINDOW):
            self.sample()

    def sample(self):
        start = time.perf_counter_ns()
        calibration_kernel()
        self.samples.append(time.perf_counter_ns() - start)
        self.last = time.perf_counter()

    def scale(self) -> float:
        if time.perf_counter() - self.last >= CAL_EVERY_S:
            self.sample()
        recent = sorted(self.samples)[1:-1]
        return CAL_REF_NS / (sum(recent) / len(recent))


def peak_rss_kb() -> int:
    """High-water resident set size of this process image.  ru_maxrss is not
    used because on Linux it also counts the parent's pages before exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Ops:
    """The ops file, one payload per line, read lazily and wrapped around."""

    def __init__(self, path):
        self.fh = open(path, "r", encoding="utf-8")

    def next(self):
        line = self.fh.readline()
        if not line:
            self.fh.seek(0)
            line = self.fh.readline()
        return json.loads(line)

    def close(self):
        self.fh.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--ops", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--count", type=int)
    parser.add_argument("--warmup-ops", type=int, default=0)
    parser.add_argument("--warmup-seconds", type=float, default=0.0)
    parser.add_argument("--keep", type=int, default=0)
    parser.add_argument("--trace")
    args = parser.parse_args(argv)

    cli = load_cli(args.src)
    ops = Ops(args.ops)
    try:
        if args.probe:
            code, result, _ = run_op(cli, ops.next())
            print("ready", outcome(code, result), flush=True)
            print(Speed().scale())  # after "ready", outside the timed setup
            return 0

        errors, kept = {}, {}
        tracer = None
        speed = Speed()
        sent = 0

        def one(timed=1):
            # one record line: [position, exit code, outcome, latency ns,
            # timed (0 for warm-up), speed factor to reference speed]
            nonlocal sent
            pos, sent = sent, sent + 1
            scale = speed.scale()
            call = None if tracer is None else (lambda f: tracer.run_op(pos, f, scale))
            code, result, ns = run_op(cli, ops.next(), call)
            if code == CRASH:
                errors[pos] = result
            elif pos < args.keep:
                kept[pos] = result
            print(json.dumps([pos, code, outcome(code, result), ns, timed, scale]))

        for _ in range(args.warmup_ops):
            one(timed=0)
        warm_end = time.perf_counter() + args.warmup_seconds
        while time.perf_counter() < warm_end:
            one(timed=0)
        warmup = sent

        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        if args.count is not None:
            for _ in range(args.count):
                one()
        else:
            deadline = time.perf_counter() + args.seconds
            while True:
                one()
                if time.perf_counter() >= deadline:
                    break
        report = {
            "warmup": warmup,
            "errors": errors,
            "kept": kept,
            "peak_rss_kb": peak_rss_kb(),
        }
        if tracer is not None:
            tracer.uninstall()
            report["trace"] = tracer.summary(sent - warmup)
            tracer.write_spans(args.trace)
        json.dump(report, sys.stdout, ensure_ascii=False)
    finally:
        ops.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
