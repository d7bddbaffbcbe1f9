"""Benchmark of the slopeforge CLI.

    python3 bench/run.py --workload markov-exact --seed 1 --seconds 10 --trace 0

Runs the workload's command sequence (a round) as fresh
`python -m slopeforge.cli` processes, one after another (a closed loop
with one client), repeating whole rounds until --seconds of command
time have passed.  After each round every output is checked against
values the benchmark computes apart from the program.  The last line
of standard output is one JSON object: correct, attempted, failed and
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

--trace 1 runs one untraced round of processes, then the same round
once more in this process through slopeforge.cli.main(argv) with spans
around the program's public functions (see bench_trace.py), and reports
each layer's self time and work counts.  Each run also writes a
results file with the machine facts under bench/results/.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
COMMAND_TIMEOUT = 150.0
END_TO_END = (("cpu_s", "s"), ("peak_rss_mib", "MiB"), ("setup_s", "s"))
IMPORT_PROBE = ("import time; t = time.perf_counter(); import slopeforge.cli; "
                "print(time.perf_counter() - t)")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SLOPEFORGE_PRECISION", None)
    env["PYTHONPATH"] = str(SRC)
    return env


class Command(NamedTuple):
    """What one command cost and printed."""

    wall: float    # seconds
    cpu: float     # user + system seconds
    rss: float     # peak resident MiB
    code: int
    stdout: str


def run_process(argv: list, workdir: Path, env: dict) -> Command:
    out_path = workdir / "_stdout.txt"
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, stdout=out, stderr=subprocess.STDOUT,
                                env=env, cwd=workdir)
        timer = threading.Timer(COMMAND_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Command(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                   proc.returncode, out_path.read_text())


def process_round(ops: list, workdir: Path, env: dict) -> list:
    return [run_process(["-m", "slopeforge.cli"] + op.argv, workdir, env) for op in ops]


def traced_round(ops: list, tracer) -> list:
    """The round in this process, each command under a root span cli.<command>."""
    from slopeforge import cli

    results = []
    for op in ops:
        buf = io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        with tracer.span(f"cli.{op.argv[0]}"), contextlib.redirect_stdout(buf):
            try:
                code = cli.main(op.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        results.append(Command(time.perf_counter() - t0, time.process_time() - c0, 0.0, code,
                               buf.getvalue()))
    return results


def check_round(ops: list, results: list, failures: list) -> int:
    """Run every operation's check; returns the number that failed."""
    failed = 0
    for op, r in zip(ops, results):
        try:
            op.check(r.stdout, r.code)
        except Exception as exc:  # any fault in the program's output is one failed operation
            failed += 1
            known = op.known_fault is not None and isinstance(exc, op.known_fault)
            failures.append({"op": op.name, "known_fault": known,
                             "error": f"{type(exc).__name__}: {exc}"})
    return failed


def machine_facts() -> dict:
    import mpmath

    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "cpu_count": os.cpu_count(), "mpmath_backend": mpmath.libmp.BACKEND,
            "machine": platform.machine(), "system": platform.system()}


def import_probe(env: dict, workdir: Path, repeats: int = 3):
    """Medians of (import time of slopeforge.cli, wall of the whole process)."""
    imports, walls = [], []
    for _ in range(repeats):
        r = run_process(["-c", IMPORT_PROBE], workdir, env)
        if r.code != 0:
            raise RuntimeError(f"importing slopeforge.cli failed:\n{r.stdout}")
        imports.append(float(r.stdout.strip().splitlines()[-1]))
        walls.append(r.wall)
    return statistics.median(imports), statistics.median(walls)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still kills and reaps the command it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "slopeforge" / "cli.py").is_file():
        print(f"error: no slopeforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    os.environ.pop("SLOPEFORGE_PRECISION", None)
    import bench_workloads

    if args.workload not in bench_workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(bench_workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ops = bench_workloads.make(args.workload, workdir, args.seed)
    setup_s = time.perf_counter() - _T0

    env = child_env()
    failures = []
    rounds = []
    attempted = failed = 0
    measured = 0.0
    while not rounds or (not args.trace and measured < args.seconds):
        results = process_round(ops, workdir, env)
        rounds.append(results)
        measured += sum(r.wall for r in results)
        attempted += len(ops)
        failed += check_round(ops, results, failures)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine_facts(), "rounds": len(rounds),
              "commands": [{"op": op.name, "wall_s": r.wall, "cpu_s": r.cpu, "peak_rss_mib": r.rss,
                            "exit": r.code}
                           for op, r in zip(ops, rounds[-1])]}
    if args.trace:
        import bench_trace

        import_s, process_wall = import_probe(env, workdir)
        tracer = bench_trace.Tracer()
        with bench_trace.installed(tracer):
            traced = traced_round(ops, tracer)
        attempted += len(ops)
        failed += check_round(ops, traced, failures)
        traced_wall = sum(r.wall for r in traced)
        untraced_wall = sum(r.wall for r in rounds[0]) - len(ops) * process_wall
        metrics = bench_trace.layer_metrics(tracer, import_s)
        record["trace_overhead_s"] = traced_wall - untraced_wall
        record["traced_wall_s"] = traced_wall
        record["layers"] = {k: list(v) for k, v in sorted(tracer.summary().items())}
        record["spans"] = tracer.spans(min_seconds=1e-3)
        print(f"trace overhead {traced_wall - untraced_wall:+.3f} s on {traced_wall:.3f} s traced",
              file=sys.stderr)
    else:
        values = {"cpu_s": statistics.median(sum(r.cpu for r in rs) for rs in rounds),
                  "peak_rss_mib": max(r.rss for rs in rounds for r in rs), "setup_s": setup_s}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    known = {f["op"] for f in failures if f["known_fault"]}
    correct = all(f["known_fault"] for f in failures)
    for f in failures:
        tag = "known fault" if f["known_fault"] else "FAILED"
        print(f"[{tag}] {f['op']}: {f['error'][:500]}", file=sys.stderr)
    if known:
        print(f"known faults: {sorted(known)}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record.update(result, failures=failures)
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results_dir / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
