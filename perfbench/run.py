"""maskcheck benchmark: the CLI end to end, and each layer from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is a workload of BENCHMARK.json
(screen-mlkem, census-q5), butterfly-sweep or mldsa-bridge (left out of
BENCHMARK.json as too unsteady on a shared host, see README.md), or ``all``
to run each of the four in turn.

With ``--trace 0`` the workload is a closed loop with one client: its fixed
sequence of ``maskcheck`` invocations runs as child processes, one after
another, and the sequence repeats until S seconds have been measured (at
least once).  ``maskcheck --version`` runs SETUP_RUNS times before the
first round and once before each round, for the start-up time.  With
``--trace 1`` every workload's sequence runs in this process, with spans
recorded around the calls into each layer (see tracing.py); it makes one
pass whatever S is, because the screen-mlkem sequence alone takes ~40 s.

Every invocation's output is checked against answers derived from how its
input was built.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it print each
metric by name and unit.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCHER = os.path.join(HERE, "launch.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

SETUP_RUNS = 5
# Peak RSS of `--version` is measured again while this process holds this
# much extra memory; the two must agree within RSS_TOLERANCE_KB.
BALLAST_BYTES = 128 << 20
RSS_TOLERANCE_KB = 16 << 10
# Every child is killed once the run has lasted this long, so that a run of
# one workload stays under three minutes.
RUN_DEADLINE_S = 170.0
CHUNK = 1 << 20


class Failures:
    """Counts attempted and failed operations and keeps the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{label}: {'; '.join(problems)}")

    def absorb(self, other: "Failures") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages += other.messages


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    caches = []
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as lv, open(os.path.join(index, "type")) as ty, \
                    open(os.path.join(index, "size")) as sz:
                kind = {"Data": "d", "Instruction": "i"}.get(ty.read().strip(), "")
                caches.append(f"L{lv.read().strip()}{kind} {sz.read().strip()}")
        except OSError:
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "caches": " / ".join(caches),
            "python": platform.python_version(), "numpy": np.__version__}


class Launcher:
    """Runs the CLI in child processes and measures each one."""

    def __init__(self, workdir: str, deadline: float):
        self.stderr_path = os.path.join(workdir, "stderr.txt")
        self.deadline = deadline
        self.digests = {}

    def run(self, inv: workloads.Invocation) -> tuple[float, int, list[str]]:
        """Returns (wall seconds, peak RSS in kB, problems)."""
        capture = workloads.Capture(inv.section)
        rss_read, rss_write = os.pipe()
        env = dict(os.environ, PERFBENCH_RSS_FD=str(rss_write))
        with open(self.stderr_path, "w+b") as err:
            t0 = time.perf_counter()
            try:
                proc = subprocess.Popen(
                    [sys.executable, LAUNCHER] + inv.argv, cwd=ROOT, env=env,
                    stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
                    pass_fds=(rss_write,))
            finally:
                os.close(rss_write)
            watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                with proc.stdout:
                    for chunk in iter(lambda: proc.stdout.read(CHUNK), b""):
                        capture.feed(chunk)
                returncode = proc.wait()
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
            err.seek(0)
            stderr = err.read().decode("utf-8", errors="replace")
        with os.fdopen(rss_read, "rb") as fh:
            rss = fh.read().strip()
        outcome = workloads.Outcome(returncode, capture, stderr)
        problems = inv.problems(outcome)
        if not rss.isdigit():
            problems.append("no peak RSS reported")
        key = tuple(inv.argv)
        if self.digests.setdefault(key, capture.digest.digest()) != capture.digest.digest():
            problems.append("stdout differs from an earlier run of the same argv")
        return wall, int(rss or 0), problems


def version_invocation() -> workloads.Invocation:
    def check(outcome):
        text = bytes(outcome.stdout.kept).decode("utf-8", errors="replace")
        return [] if text.strip() and text.count("\n") == 1 else [f"stdout {text!r}"]
    return workloads.Invocation("version", ["--version"], check)


def check_rss_ignores_harness(launcher: Launcher, version, baseline_kb: float,
                              failures: Failures) -> None:
    """Peak RSS of `--version` must not grow with this process's own size."""
    ballast = bytearray(BALLAST_BYTES)
    ballast[::4096] = b"\1" * (BALLAST_BYTES // 4096)  # make every page resident
    _, kb, problems = launcher.run(version)
    del ballast
    if abs(kb - baseline_kb) > RSS_TOLERANCE_KB:
        problems.append(f"peak RSS {kb} kB under a {BALLAST_BYTES >> 20} MiB harness "
                        f"vs {baseline_kb} kB without: it counts the harness")
    failures.record("version-ballast", problems)


def run_untraced(name: str, sequence, seconds: float, workdir: str, deadline: float,
                 failures: Failures) -> dict:
    launcher = Launcher(workdir, deadline)
    version = version_invocation()
    setup_times, setup_kb = [], []

    def start_up():
        wall, kb, problems = launcher.run(version)
        failures.record("version", problems)
        setup_times.append(wall)
        setup_kb.append(kb)

    for _ in range(SETUP_RUNS):
        start_up()
    check_rss_ignores_harness(launcher, version, statistics.median(setup_kb), failures)
    rounds = []
    per_position = [[] for _ in sequence]
    peak_kb = 0
    while not rounds or (sum(rounds) < seconds and time.monotonic() < deadline - 2 * rounds[-1]):
        start_up()  # spreads the start-up samples over the whole run
        t0 = time.perf_counter()
        for i, inv in enumerate(sequence):
            wall, kb, problems = launcher.run(inv)
            failures.record(f"{name}/{inv.label}", problems)
            per_position[i].append(wall)
            peak_kb = max(peak_kb, kb)
        rounds.append(time.perf_counter() - t0)
    medians = [statistics.median(times) for times in per_position]
    print(f"{name}: {len(rounds)} round(s) of {len(sequence)} invocation(s), "
          f"{len(setup_times)} start-ups; per-invocation medians: " +
          ", ".join(f"{inv.label} {m:.3f} s" for inv, m in zip(sequence, medians)))
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(rounds),
        "op_p50_s": statistics.median(medians),
        "op_max_s": max(medians),
        "peak_rss_mb": peak_kb / 1024,
        "ok_ratio": (failures.attempted - failures.failed) / failures.attempted,
    }


def emit(spec_metrics: list[dict], values: dict, prefix: str = "") -> dict:
    metrics = {}
    for m in spec_metrics:
        value = values[m["name"]]
        metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
        shown = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"  {prefix + m['name']:<40} {shown:>18} {m['unit']}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "maskcheck", "cli.py")):
        print(f"error: no maskcheck sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = load_spec()
    names = workloads.WORKLOADS if args.workload == "all" or args.trace else (args.workload,)
    deadline = time.monotonic() + RUN_DEADLINE_S * (1 if args.trace else len(names))
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        inputs = workloads.build(args.seed, workdir, names)
        env = environment()
        print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
        print(f"inputs (untimed): seed {args.seed}, {len(inputs.files)} file(s), "
              f"{inputs.input_bytes} bytes, generated in {inputs.generation_s:.2f} s")
        failures = Failures()
        metrics = {}
        if args.trace:
            import tracing
            values = tracing.run_traced(inputs, failures, os.path.join(WORK_ROOT, "spans.json"))
            print("per-layer metrics (traced in-process run of every workload):")
            metrics = emit(spec["per_layer"], values)
        else:
            for name in names:
                scoped = Failures()
                values = run_untraced(name, inputs.workloads[name], args.seconds, workdir,
                                      deadline, scoped)
                prefix = f"{name}/" if args.workload == "all" else ""
                metrics.update(emit(spec["end_to_end"], values, prefix))
                failures.absorb(scoped)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in failures.messages:
        print(f"FAILED {message}")
    print(json.dumps({"correct": failures.failed == 0, "attempted": failures.attempted,
                      "failed": failures.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
