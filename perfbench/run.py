"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload ingest_and_read --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It generates the workload's inputs from
``--seed`` (cached under ``.perfbench_cache/``), starts Ray with as many
CPUs as ``nproc`` prints, measures set-up, runs the workload as a closed
loop for ``--seconds`` and checks every operation's output. Scratch files
and Ray's session go under ``.perfbench_work/``.

With ``--trace 0`` the last line of stdout is a JSON object carrying every
``end_to_end`` metric of ``BENCHMARK.json``; with ``--trace 1`` every
``per_layer`` metric, and the spans are written to
``.perfbench_work/spans-<workload>-s<seed>.json``. The lines before it give
the metrics of the benchmark's README by name, unit and sample count.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import RayDataCounter, Recorder, descendants, map_tasks_logged, ray_processes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# AF_UNIX paths are limited to 107 bytes and Ray puts its sockets about
# 61 characters below its temp dir
RAY_TMP_MAX = 46
PR_SET_CHILD_SUBREAPER = 36
# a process still there STOP_GRACE_S after SIGTERM gets SIGKILL; one still
# there after STOP_LIMIT_S fails the run
STOP_GRACE_S, STOP_LIMIT_S = 10.0, 40.0


def die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def probe(cmd: list[str]) -> str:
    """Output of a short helper command; never hangs."""
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def run_context(root: str) -> dict:
    import pyarrow
    import ray

    nproc = int(probe(["nproc"]) or os.cpu_count() or 1)
    affinity = len(os.sched_getaffinity(0))
    ctx = {
        "nproc": nproc,
        "affinity_cpus": affinity,
        "ray_num_cpus": nproc,
        "load_avg_before": os.getloadavg(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "git_commit": probe(["git", "-C", root, "rev-parse", "HEAD"]) or "unknown",
    }
    if ctx["ray_num_cpus"] > affinity:
        die(f"Ray num_cpus={nproc} exceeds the {affinity} CPUs of the affinity mask")
    return ctx


def peak_rss_mb() -> tuple[float, int]:
    """Sum of VmHWM over this process and its Ray worker processes, and the
    number of worker processes."""
    total_kb = workers = 0
    for pid in ray_processes():
        try:
            with open(f"/proc/{pid}/status") as f:
                total_kb += next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
            workers += pid != os.getpid()
        except (OSError, StopIteration):
            continue
    return total_kb / 1024, workers


def adopt_orphans() -> None:
    """Become the reaper of this process's orphaned descendants. Ray's
    daemons and workers outlive the process that started them; as children
    of this one they can be stopped and waited for."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        die(f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(ctypes.get_errno())}")


def stop_descendants() -> None:
    """Stop every process this one started, directly or not, and wait until
    each has ended."""
    t0 = time.monotonic()
    termed: set[int] = set()
    while True:
        with contextlib.suppress(ChildProcessError):
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        left = descendants()
        if not left:
            return
        late = time.monotonic() - t0
        if late > STOP_LIMIT_S:
            die(f"processes {left} still running {STOP_LIMIT_S:.0f} s after the run")
        for pid in left:
            if late > STOP_GRACE_S or pid not in termed:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL if late > STOP_GRACE_S else signal.SIGTERM)
                termed.add(pid)
        time.sleep(0.05)


def on_sigterm(*_) -> None:
    """Stop the run's processes and exit, without going through Ray, whose
    own handler aborts the process in the middle of a job."""
    stop_descendants()
    os._exit(128 + signal.SIGTERM)


def generate_inputs(root: str, workload: str, cache: str, work: str, seed: int, size: str) -> None:
    """Fill the input cache for one workload in a child process that has
    exited before Ray starts, so whether the cache was cold does not show in
    peak_rss_mb."""
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]; from workloads import WORKLOADS; "
        "WORKLOADS[sys.argv[3]](sys.argv[4], sys.argv[5], int(sys.argv[6]), sys.argv[7], False).prepare()"
    )
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        subprocess.run([sys.executable, "-c", code, here, root, workload, cache, work, str(seed), size],
                       check=True, timeout=600)
    except (OSError, subprocess.SubprocessError) as e:
        die(f"generating the {workload} inputs failed: {e}")


def pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(round(q * len(s) + 0.5)) - 1))]


def summarize(ops, setup: list[float], rss: float, accuracy: list[float]) -> dict:
    """The README's end-to-end metrics: ``{name: (value, unit, samples)}``.
    Writes are the jobs, appends or parses; the base build is not one."""
    writes = [o for o in ops if o.kind not in ("read", "build")]
    reads = [o for o in ops if o.kind == "read"]
    out = {
        "rows_per_s": (statistics.median(o.rows / o.seconds for o in writes), "1/s", len(writes)),
        "op_p50_ms": (statistics.median(o.seconds for o in writes) * 1e3, "ms", len(writes)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (rss, "MB", 1),
        "failed_frac": (sum(not o.ok for o in ops) / len(ops), "frac", len(ops)),
    }
    if reads:
        out["sink_read_p50_ms"] = (statistics.median(o.seconds for o in reads) * 1e3, "ms", len(reads))
        out["sink_read_p90_ms"] = (pct([o.seconds for o in reads], 0.9) * 1e3, "ms", len(reads))
    if accuracy:
        out["grouping_accuracy"] = (statistics.median(accuracy), "frac", len(accuracy))
    return out


def traced_step(wl, rec, counter, ray_tmp: str):
    """One step untraced, then its replay traced and untraced; returns the
    step's operations and the step's per-layer sample."""
    tasks0, plans0 = map_tasks_logged(ray_tmp), len(counter.plans)
    with counter.attached():
        step_ops = wl.step()
    sample = {
        "ray_data.tasks": map_tasks_logged(ray_tmp) - tasks0,
        "compat.passes": sum("read_parse" in p for p in counter.plans[plans0:]),
    }
    rec.enabled = True
    root = len(rec.spans)
    with rec.span("replay"):
        sample.update(wl.replay(rec))
    traced = rec.spans[root].end - rec.spans[root].start
    self_times = rec.self_times(root)
    del self_times["replay"]
    rec.enabled = False
    t0 = time.perf_counter()
    wl.replay(rec)
    sample["trace.overhead_s"] = traced - (time.perf_counter() - t0)
    sample.update({f"{k}_s": v for k, v in self_times.items()})
    sample["ray_data.overhead_s"] = sum(o.seconds for o in step_ops) - sum(self_times.values())
    return step_ops, sample


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full", help="small: self-test inputs")
    ap.add_argument("--corrupt-golden", action="store_true", help="self-test: perturb the golden answers")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, on_sigterm)
    adopt_orphans()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "logparser_ray", "__init__.py")):
        die("no logparser_ray package here: run from the root of a checkout")
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    sys.path.insert(1, root)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    # always a cluster of this run's own, never one found through the environment
    os.environ.pop("RAY_ADDRESS", None)

    import ray
    from ray.data import DataContext

    ctx = run_context(root)
    cache = os.path.join(root, ".perfbench_cache")
    work = os.path.join(root, ".perfbench_work", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ray_tmp = os.path.join(root, ".perfbench_work", "ray")
    own_tmp = None
    if len(ray_tmp) > RAY_TMP_MAX:
        own_tmp = ray_tmp = tempfile.mkdtemp(prefix="pb")
        print(f"perfbench: checkout path too long for Ray's sockets, using {ray_tmp}", file=sys.stderr)

    generate_inputs(root, args.workload, cache, work, args.seed, args.size)
    wl = WORKLOADS[args.workload](cache, work, args.seed, args.size, args.corrupt_golden)
    wl.prepare()
    setups = 3 if args.size == "full" else 1
    os.makedirs(ray_tmp, exist_ok=True)
    old_sessions = set(os.listdir(ray_tmp))

    def init() -> None:
        ray.init(
            address="local",
            num_cpus=ctx["ray_num_cpus"],
            object_store_memory=256 * 1024**2,
            include_dashboard=False,
            log_to_driver=False,
            logging_level="ERROR",
            _temp_dir=ray_tmp,
        )
        DataContext.get_current().enable_progress_bars = False
        # ray.init replaced the handler with its own
        signal.signal(signal.SIGTERM, on_sigterm)

    rec = Recorder(run_id=f"{args.workload}-s{args.seed}")
    counter = RayDataCounter()
    setup: list[float] = []
    ops = []
    layers: list[dict] = []
    try:
        for i in range(setups):
            t0 = time.perf_counter()
            init()
            wl.warmup()
            setup.append(time.perf_counter() - t0)
            if i < setups - 1:
                ray.shutdown()
                stop_descendants()
        ops.extend(wl.start())
        deadline = time.perf_counter() + args.seconds
        step_s: list[float] = []
        while True:
            t_step = time.perf_counter()
            if args.trace:
                step_ops, sample = traced_step(wl, rec, counter, ray_tmp)
                layers.append(sample)
            else:
                step_ops = wl.step()
            ops.extend(step_ops)
            step_s.append(time.perf_counter() - t_step)
            # stop when the next step would end past the deadline
            if time.perf_counter() + statistics.median(step_s) > deadline:
                break
        problem = wl.finish()
        if problem:
            last = [o for o in ops if o.kind != "read"][-1]
            last.ok, last.error = False, problem
        rss, ctx["ray_workers"] = peak_rss_mb()
    finally:
        ray.shutdown()
        stop_descendants()
        # keep results and spans only: outputs and Ray sessions of many runs
        # would fill the checkout
        for d in set(os.listdir(ray_tmp)) - old_sessions:
            shutil.rmtree(os.path.join(ray_tmp, d), ignore_errors=True)
        if own_tmp:
            shutil.rmtree(own_tmp, ignore_errors=True)
        for d in os.listdir(work):
            shutil.rmtree(os.path.join(work, d), ignore_errors=True)
    ctx["load_avg_after"] = os.getloadavg()

    failed = sum(not o.ok for o in ops)
    for o in ops:
        if not o.ok:
            print(f"perfbench: failed {o.kind}: {o.error.strip()}", file=sys.stderr)
    named = summarize(ops, setup, rss, getattr(wl, "accuracy", []))
    missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in named]
    if missing:
        die(f"end-to-end metrics not measured: {missing}")
    if args.trace:
        # a layer the workload does not reach reads 0
        named.update(
            {m["name"]: (statistics.median(s.get(m["name"], 0.0) for s in layers), m["unit"], len(layers))
             for m in spec["per_layer"]}
        )
        rec.write(os.path.join(root, ".perfbench_work", f"spans-{args.workload}-s{args.seed}.json"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(named[m["name"]][0]), "unit": m["unit"]} for m in wanted}

    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump({"context": ctx, "setup_s": setup, "named": named, "metrics": metrics,
                   "ops": [(o.kind, o.seconds, o.rows, o.ok) for o in ops]}, f, indent=1)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} context={json.dumps(ctx)}")
    for k, (v, unit, n) in named.items():
        print(f"# {k} = {v:.6g} {unit} (n={n})")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
