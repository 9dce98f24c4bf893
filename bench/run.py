"""Benchmark of qreal: four closed-loop workloads from one client process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check

Run from anywhere; it imports qreal from ``src/`` next to this directory.
A run sets up (timed separately in fresh processes), then repeats whole
rounds of the workload's op batch for about ``--seconds`` seconds, checks
every answer against ``oracle``, and prints one JSON object as the last
line of stdout: end-to-end metrics with ``--trace 0``, per-layer metrics
from wrapped qreal functions with ``--trace 1``.  Environment details and a
per-class latency table go to stderr.  ``--self-check`` proves at tiny
sizes that every answer check rejects a wrong answer.  See README.md.
"""

import os

# One BLAS thread, fixed before numpy loads: with OpenBLAS's default pool,
# eigh at d=32-48 can stall at 16 ms per call for a whole process.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_run"
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("formula-eval", "joint-reality", "certify-cli", "witness-search")
# Fresh processes whose set-up times give setup_s (their median).
SETUP_SAMPLES = 3
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))


def setup(workload: str, seed: int, work: pathlib.Path):
    """Imports, seeded inputs, files written, and a warm-up that runs the
    workload's ops once at tiny sizes."""
    import numpy as np

    import workloads

    build = workloads.BUILDERS[workload]
    ops = build(np.random.default_rng(seed), work)
    warm = work / "warm-up"
    warm.mkdir()
    for op in build(np.random.default_rng(seed), warm, small=True):
        op.run()
    return ops


def timed_setups(args) -> list[float]:
    """Set-up time of fresh processes, from spawn to their first op."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = child.communicate()
        if child.returncode != 0 or line.strip() != "ready":
            sys.stderr.write(err)
            raise SystemExit(f"set-up failed in a fresh process (exit {child.returncode})")
        samples.append(elapsed)
    return samples


def environment() -> dict:
    """What a run depends on besides the code: versions, BLAS, threads, cores."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    try:
        maps = pathlib.Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_rounds(ops, seconds: float, tracer=None):
    """Whole rounds of ``ops`` until one more, as long as the last, would end
    past ``seconds``."""
    from oracle import WrongAnswer

    latencies: dict[str, list[float]] = {}
    rounds: list[float] = []
    attempted = failed = 0
    wrong: list[str] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        busy = 0.0
        for op in ops:
            if tracer is not None:
                tracer.begin_op()
            attempted += 1
            began = time.perf_counter()
            try:
                answer = op.run()
            except Exception as exc:  # an op that raises is a failed op
                busy += time.perf_counter() - began
                if tracer is not None:
                    tracer.end_op()
                failed += 1
                if op.expected_error is None or not isinstance(exc, op.expected_error):
                    wrong.append(f"{op.cls}: {traceback.format_exc()}")
                continue
            took = time.perf_counter() - began
            busy += took
            if tracer is not None:
                tracer.end_op()
            try:
                op.check(answer)
            except WrongAnswer as exc:
                failed += 1
                wrong.append(f"{op.cls}: {exc}")
                continue
            latencies.setdefault(op.cls, []).append(took)
        rounds.append(busy)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return latencies, rounds, attempted, failed, wrong


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def report_classes(latencies: dict[str, list[float]], rounds: list[float]) -> None:
    sys.stderr.write(f"rounds: {len(rounds)}, busy s per round: "
                     + ", ".join(f"{r:.4f}" for r in rounds) + "\n")
    sys.stderr.write(f"{'class':<18}{'ops':>6}{'p50 ms':>12}{'p90 ms':>12}\n")
    for cls, values in sorted(latencies.items(), key=lambda kv: statistics.median(kv[1])):
        sys.stderr.write(f"{cls:<18}{len(values):>6}{1e3 * percentile(values, 50):>12.3f}"
                         f"{1e3 * percentile(values, 90):>12.3f}\n")


def measure(args) -> int:
    setup_samples = [] if args.trace else timed_setups(args)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ops = setup(args.workload, args.seed, work)
        sys.stderr.write("env: " + json.dumps(environment()) + "\n")
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        latencies, rounds, attempted, failed, wrong = run_rounds(ops, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in wrong[:5]:
        sys.stderr.write(f"wrong: {line}\n")
    report_classes(latencies, rounds)

    if tracer is not None:
        units = {name: unit for name, unit, _ in tracing.metric_names()}
        values = tracer.metrics(len(rounds))
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    else:
        every = [t for values in latencies.values() for t in values]
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(rounds),
            "op_p50_ms": 1e3 * percentile(every, 50),
            "op_p90_ms": 1e3 * percentile(every, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        sys.stderr.write("setup samples s: " + ", ".join(f"{s:.4f}" for s in setup_samples) + "\n")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def self_check() -> int:
    """Feed every check the right answer and then wrong ones, at tiny sizes."""
    import numpy as np

    import workloads
    from oracle import WrongAnswer

    problems = []
    fired = 0
    for name, build in workloads.BUILDERS.items():
        work = WORK / f"self-check-{name}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            for op in build(np.random.default_rng(0), work, small=True):
                answer = op.run()
                try:
                    op.check(answer)
                except WrongAnswer as exc:
                    problems.append(f"{name} {op.cls}: right answer rejected: {exc}")
                for label, wrong in op.mutate(answer):
                    try:
                        op.check(wrong)
                        problems.append(f"{name} {op.cls}: {label} was accepted")
                    except WrongAnswer:
                        fired += 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
    for line in problems:
        print(line)
    print(f"self-check: {fired} wrong answers rejected, {len(problems)} problems")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "qreal" / "__init__.py").exists():
        sys.stderr.write(f"error: no qreal sources under {ROOT / 'src'}\n")
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            setup(args.workload, args.seed, work)
            print("ready", flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
