"""Wall-clock benchmark of the OMeGa reproduction: end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload embed-fr --seed 1 --seconds 16 --trace 0

``--trace 0`` measures with no tracing and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced units of work and
reports the per-layer metrics.  Both check the program's outputs.  The
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
name every measurement with its unit.  Full results (stamps, input
sizes, checks, samples) and the traced run's spans go to
``perfbench/out/``.  The exit code is 0 only when every check passes.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

#: Seed kept out of all tuning; a claimed gain must also hold on it.
HELD_OUT_SEED = 1009
#: Set-ups per untraced run (this process plus fresh child processes).
SETUP_SAMPLES = 5
#: Seconds a child may take to end on its own before it is killed.
REAP_GRACE_S = 10.0
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants, so ``reap_children`` can wait for them.

    A set-up probe's multiprocessing resource tracker outlives the probe
    by design; as a subreaper this process becomes its parent.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids_of(pid: int) -> list[int]:
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def reap_children() -> None:
    """End multiprocessing's resource tracker and wait for every child.

    The tracker otherwise lives on after this process exits, until it
    notices the end of its pipe.  Closing the pipe ends it now; any
    child still running after ``REAP_GRACE_S`` is killed, and every
    child is waited for.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        pending = []
        for pid in child_pids_of(os.getpid()):
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                continue
            if done == 0:
                pending.append(pid)
        if not pending:
            return
        if time.monotonic() >= deadline:
            for pid in pending:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            return
        time.sleep(0.02)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="set up once, tear down, print {'setup_s': ...} (internal)",
    )
    return parser.parse_args(argv)


def manifest() -> dict:
    """``BENCHMARK.json``: the workloads, metric names, units and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def peak_rss_mb(child_pids) -> float:
    """Largest peak RSS of this process or of its live child processes."""
    peaks = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
    for pid in child_pids:
        with open(f"/proc/{pid}/status", encoding="utf-8") as status:
            peaks += [int(line.split()[1]) for line in status if line.startswith("VmHWM:")]
    return max(peaks) / 1024.0


def blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, subdirs, files in sorted(os.walk(src)):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_sha():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def l3_bytes():
    path = "/sys/devices/system/cpu/cpu0/cache/index3/size"
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024**2}.get(text[-1], 1)
    return int(text.rstrip("KM")) * scale


def stamps(workload, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "executor_backend": workload.executor,
        "seed": seed,
        "held_out_seed": seed == HELD_OUT_SEED,
    }


def setup_in_child(name: str, seed: int):
    """One more set-up, in a fresh process; returns (seconds, error)."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if done.returncode != 0 or "Traceback" in done.stderr:
        return None, f"exit {done.returncode}: {done.stderr[-1000:]}"
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"], ""


def measure(workload, args, recorder, instr, layers):
    """Units of work until ``--seconds`` have passed; traced ones alternate.

    Returns the units and the peak RSS after the first one: memory the
    program retains per unit (serve-rw's WAL records) would otherwise
    make the figure depend on how many units fit in the run.
    """
    units = []
    start = time.perf_counter()
    while True:
        index = len(units)
        traced = bool(args.trace) and index % 2 == 1
        workload.recorder = recorder if traced else None
        if traced:
            layers.install(instr)
            recorder.run_id = f"unit-{index}"
            root = recorder.open(layers.ROOT_UNIT)
        try:
            seconds = workload.unit(index)
        finally:
            if traced:
                recorder.close(root)
                instr.uninstall()
        units.append((recorder.run_id if traced else None, seconds))
        if index == 0:
            rss = peak_rss_mb(workload.child_pids())
        if time.perf_counter() - start >= args.seconds and (
            not args.trace or len(units) >= 2
        ):
            return units, rss


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    import repro  # noqa: F401  (timed: the import layer)

    import_s = time.perf_counter() - start
    import layers
    import workloads
    from spans import Instrumentation, SpanRecorder

    if args.workload not in workloads.NAMES:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {workloads.NAMES}")
    os.makedirs(OUT, exist_ok=True)
    workload = workloads.make(args.workload, OUT)
    recorder = instr = None
    if args.trace:
        recorder = SpanRecorder()
        instr = Instrumentation(recorder)
        workload.recorder = recorder
        layers.install(instr)
        root = recorder.open(layers.ROOT_SETUP)
    try:
        workload.setup(args.seed)
        setup_s = time.perf_counter() - T0
        if args.trace:
            recorder.close(root)
            instr.uninstall()
        if not args.setup_probe:
            units, rss = measure(workload, args, recorder, instr, layers)
    finally:
        workload.teardown()
    if args.setup_probe:
        workload.leak_checks()
        print(json.dumps({"setup_s": setup_s}))
        return 0 if all(c.ok for c in workload.checks) else 1

    workload.run_checks()
    untraced = [seconds for run_id, seconds in units if run_id is None]
    traced = [seconds for run_id, seconds in units if run_id is not None]
    result = {
        "workload": args.workload, "trace": args.trace, "units": len(units),
        "unit_seconds": [seconds for _, seconds in units],
        "stamps": stamps(workload, args.seed),
        "inputs": {**workload.inputs, "l3_bytes": l3_bytes()},
    }
    if args.trace:
        values = layers.per_layer_metrics(
            recorder, import_s, [run_id for run_id, _ in units if run_id],
            untraced, traced, workload.layer_counts(),
        )
        declared = manifest()["per_layer"]
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        recorder.write(spans_path)
        result["spans"] = os.path.relpath(spans_path, ROOT)
    else:
        setups = [setup_s]
        for _ in range(SETUP_SAMPLES - 1):
            seconds, error = setup_in_child(args.workload, args.seed)
            workload.check("setup_in_fresh_process", seconds is not None, error)
            if seconds is not None:
                setups.append(seconds)
        result["setup_samples"] = setups
        values = {
            "setup_s": statistics.median(setups),
            "e2e_s": statistics.median(untraced),
            "peak_rss_mb": rss,
        }
        declared = manifest()["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit(f"metrics computed {sorted(values)} != declared")
    reported = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    failed_checks = [c for c in workload.checks if not c.ok]
    attempted = workload.attempted_ops + len(workload.checks)
    failed = workload.failed_ops + len(failed_checks)
    correct = not failed
    result.update(
        metrics=reported,
        report={k: {"value": v, "unit": u} for k, (v, u) in workload.report.items()},
        checks=[vars(c) for c in workload.checks],
        attempted=attempted, failed=failed, correct=correct,
    )
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)

    print(f"workload {args.workload}  seed {args.seed}  units {len(units)}"
          f"  executor {workload.executor}  nproc {result['stamps']['nproc']}")
    print("inputs " + "  ".join(f"{k}={v}" for k, v in result["inputs"].items()))
    for name, entry in {**reported, **result["report"]}.items():
        print(f"  {name:<34} {entry['value']:>14.6g} {entry['unit']}")
    for check in workload.checks:
        print(f"  check {check.name:<28} {'ok' if check.ok else 'FAILED'}  {check.detail[:200]}")
    print(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": reported,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    become_subreaper()
    try:
        code = main()
    finally:
        reap_children()
    sys.exit(code)
