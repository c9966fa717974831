"""graphtree benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 45 --trace 0

Run from the root of a graphtree checkout; the package is imported from its
src/ directory. Closed loop: one operation at a time, each one waiting for
the previous, for at least --seconds, in whole rounds. Outputs are checked
against independent computations after the timed part. The last line of
stdout is one JSON object: correct, attempted, failed and metrics, the
end-to-end metrics with --trace 0 and the per-layer metrics with --trace 1.
"""

import os
import sys

# One BLAS thread (nproc is 2 on the reference machine): the benchmark is a
# closed loop with one operation in flight, and a second BLAS thread would
# compete with other processes on a shared machine. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import logging
import resource
import shutil
import statistics
import subprocess
import time

import hostspeed

WORKLOAD_NAMES = ("paper", "large-n")
SETUP_REPEATS = 5
WORK_DIR = ".perfbench_work"


def time_setup(argv_base: list, run_dir: str, kernel_times: list, kernel) -> tuple:
    """Set the workload up SETUP_REPEATS times, each in a fresh process.

    Each child imports graphtree, generates the inputs and warms up, which is
    what a run does before its first timed operation. Each is timed from
    spawning the child to its exit, and a kernel pass follows each. Returns
    the median time, and the inputs of the first child.
    """
    times = []
    for k in range(SETUP_REPEATS):
        d = os.path.join(run_dir, f"setup{k}")
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), *argv_base,
                               "--setup-into", d],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=150)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed (exit {proc.returncode}):\n{proc.stderr}")
        kernel_times.append(kernel.seconds())
    with open(os.path.join(run_dir, "setup0", "manifest.json")) as fh:
        manifest = json.load(fh)
    return statistics.median(times), manifest


def report_failures(records: list) -> int:
    from workloads import KNOWN_FAULTS

    counts = {}
    for op, err in records:
        if err is not None:
            key = (op.kind, err.splitlines()[-1])
            counts[key] = counts.get(key, 0) + 1
    for (kind, msg), count in sorted(counts.items()):
        print(f"failed: {count} x {kind}: {msg}", file=sys.stderr)
        for text, fault in KNOWN_FAULTS.items():
            if text in msg:
                print(f"  known fault: {fault}", file=sys.stderr)
    return sum(counts.values())


def verify(records: list) -> bool:
    from checks import CheckFailed

    ok = True
    for op, err in records:
        if err is None:
            try:
                op.check()
            except (CheckFailed, OSError, ValueError, IndexError) as e:
                print(f"check failed: {op.kind}: {type(e).__name__}: {e}", file=sys.stderr)
                ok = False
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "graphtree", "__init__.py")):
        print("error: src/graphtree not found; run from the root of a graphtree checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    if args.setup_into:
        import inputs
        from workloads import WORKLOADS

        wl = WORKLOADS[args.workload]
        d = inputs.fresh_dir(args.setup_into)
        manifest = wl.generate(d, args.seed)
        inputs.write_json(os.path.join(d, "manifest.json"), manifest)
        wl.warm_up(manifest, d)
        return 0

    # One CPU for this process and its children, the speed kernel among them:
    # each vCPU of a shared host has neighbours of its own, so the kernel
    # gauges the operations' speed only on the CPU they run on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run_dir = os.path.join(WORK_DIR, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    with hostspeed.Kernel() as kernel:
        try:
            argv_base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
            kernel_times = [kernel.seconds()]
            raw_setup_s, manifest = time_setup(argv_base, run_dir, kernel_times, kernel)

            logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                                format="%(name)s: %(message)s")
            from workloads import WORKLOADS

            wl = WORKLOADS[args.workload]
            wl.warm_up(manifest, os.path.join(run_dir, "warm"))

            tracer = None
            if args.trace:
                from spans import Tracer

                tracer = Tracer()
                tracer.install()

            out = os.path.join(run_dir, "out")
            records, op_times, round_walls = [], [], []
            t_start = time.perf_counter()
            while not round_walls or time.perf_counter() - t_start < args.seconds:
                round_wall = 0.0
                for op in wl.round_ops(manifest, len(round_walls), out):
                    span = tracer.begin(f"cli {op.kind}", "cli") if tracer and op.cli else None
                    t0 = time.perf_counter()
                    err = op.run()
                    dt = time.perf_counter() - t0
                    if span:
                        tracer.end(span)
                    kernel_times.append(kernel.seconds())
                    records.append((op, err))
                    op_times.append(dt)
                    round_wall += dt
                round_walls.append(round_wall)
                if len(round_walls) == 1:
                    # Read after the first round, not the last: the allocator's
                    # heap keeps growing for a few rounds, so a later reading
                    # would depend on how many rounds fit in --seconds.
                    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

            failed = report_failures(records)
            correct = verify(records)
            kernel_s = statistics.median(kernel_times)
            factor = hostspeed.KERNEL_REF_S / kernel_s
            wall_s = statistics.median(round_walls) * factor
            by_kind = {}
            for (op, _), dt in zip(records, op_times):
                by_kind.setdefault(op.kind, []).append(dt * factor)
            print(f"{args.workload}: {len(round_walls)} rounds, {len(records)} operations, "
                  f"{failed} failed; speed kernel median {kernel_s:.4f} s over "
                  f"{len(kernel_times)} passes (reference {hostspeed.KERNEL_REF_S} s); "
                  f"per round: {wall_s / factor:.4f} s as measured, wall_s {wall_s:.4f} at "
                  "reference speed; median s per operation at reference speed: "
                  + ", ".join(f"{k} {statistics.median(v):.4f}" for k, v in by_kind.items()),
                  file=sys.stderr)
            if tracer:
                metrics = tracer.metrics(len(round_walls), len(records), factor, kernel_s)
                shares = tracer.self_shares(sum(round_walls))
                print("self-time share of traced wall time: " + ", ".join(
                    f"{k} {v:.2%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])),
                    file=sys.stderr)
                with open(os.path.join(WORK_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
                          "w") as fh:
                    json.dump({"workload": args.workload, "seed": args.seed,
                               "rounds": len(round_walls), "attempted": len(records),
                               "wall_s": wall_s, "kernel_s": kernel_s, "self_shares": shares,
                               "metrics": metrics, "spans": tracer.dump()}, fh)
            else:
                metrics = {
                    "setup_s": {"value": raw_setup_s * factor, "unit": "s"},
                    "wall_s": {"value": wall_s, "unit": "s"},
                    "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
                }
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
