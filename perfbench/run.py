"""acimsim benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload all

runs every workload and prints each metric by name and unit; exit status 1
means an output check failed. The one-workload form is

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

and the last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1). Each workload runs in fresh processes
(perfbench/worker.py) with BLAS threads pinned; see perfbench/README.md.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(HERE, "out")
# Set-up-only processes run before and again after the measuring one, so
# the set-up samples are spread over the run instead of one burst.
SETUP_EACH_SIDE = 4
CHILD_TIMEOUT = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def spawn(cmd: list, env: dict):
    """Run one worker; returns (seconds from start to `ready`, later stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            cwd=ROOT)
    killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest, _ = proc.communicate()
    finally:
        killer.cancel()
        proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(cmd[2:6])} exited with "
                           f"{proc.returncode} (output: {first.strip()!r})")
    return ready, rest


def source_record() -> dict:
    """Git commit when the tree is a git checkout, and a digest of src/."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "acimsim", "*.py"))):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return {"git_commit": commit, "src_sha256": h.hexdigest()[:16]}


def tail(times: list) -> tuple:
    """Highest order statistic with >= 10 ops beyond it, and its percentile.

    With 20 ops or fewer that statistic lies below the median, so the median
    is returned: so few ops have no tail to read.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(raw: dict, setup: list) -> dict:
    """End-to-end metrics; op times are in reference seconds (worker.py).

    `mac_per_s` is the median op's throughput. A mean over the ops would let
    one mis-scaled op of the dozen in an `mm-gemm` run move it.
    """
    times = raw["op_ref_s"]
    p50 = statistics.median(times)
    return {
        "setup_s": statistics.median(setup),
        "mac_per_s": raw["macs_per_op"] / p50,
        "op_s_p50": p50,
        "op_s_tail": tail(times)[0],
        "peak_rss_mb": raw["peak_rss_mb"],
        "sim_cycles": raw["sim_cycles"],
        "csnr_db": 10.0 * math.log10(raw["mean_snr"]),
    }


def run_workload(name, why, blas_threads, seed, seconds, trace, expected,
                 units):
    threads = str(min(blas_threads, len(os.sched_getaffinity(0))))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace), "--workdir", WORKDIR]

    def setup_only():
        return [spawn(cmd + ["--setup-only"], env)[0]
                for _ in range(SETUP_EACH_SIDE)]
    recorded = expected["digests"].get(name, {}).get(str(seed))
    extra = [] if recorded is None else ["--expected", json.dumps(recorded)]
    setup = setup_only()
    ready, out = spawn(cmd + extra, env)
    setup += [ready] + setup_only()
    raw = json.loads(out.strip().splitlines()[-1])
    ok = raw["failed"] == 0 and bool(raw["op_s"])
    metrics = raw.get("layers") if trace else (
        end_to_end(raw, setup) if ok else None)
    report = {
        "workload": name, "why": why, "seed": seed, "seconds": seconds,
        "trace": trace, "correct": bool(ok), "attempted": raw["attempted"],
        "failed": raw["failed"], "errors": raw["errors"],
        "digests": raw["digests"], "digests_recorded": recorded is not None,
        "ops_timed": len(raw["op_s"]), "setup_samples": setup,
        "environment": {**raw["env"], **source_record(),
                        "blas_threads": threads},
        "metrics": None if metrics is None else
        {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    if metrics is not None and not trace:
        report["op_s_tail_percentile"] = tail(raw["op_ref_s"])[1]
        report["host_op_s_p50"] = statistics.median(raw["op_s"])
    return report


def print_report(r: dict) -> None:
    env = r["environment"]
    print(f"== {r['workload']}  seed={r['seed']}  seconds={r['seconds']}  "
          f"trace={r['trace']}  ({r['why']})")
    print(f"   python {env['python']}, numpy {env['numpy']}, "
          f"blas {env['blas'].get('name')} {env['blas'].get('version')} "
          f"x{env['blas_threads']} threads, nproc {env['nproc']}, "
          f"commit {env['git_commit'] or 'unknown'}, src {env['src_sha256']}")
    recorded = "checked against recorded digests" if r["digests_recorded"] \
        else "no digests recorded for this seed"
    print(f"   ops: {r['ops_timed']} timed, {r['attempted']} attempted, "
          f"{r['failed']} failed; outputs {' '.join(map(str, r['digests']))} "
          f"({recorded})")
    for err in r["errors"]:
        print(f"   FAILED: {err}")
    if r["metrics"] is None:
        return
    for name, m in r["metrics"].items():
        note = ""
        if name == "op_s_tail":
            note = (f"  (p{r['op_s_tail_percentile']:.0f} of "
                    f"{r['ops_timed']} ops)")
        print(f"   {name:<36} {m['value']:>16.6g}  {m['unit']}{note}")
    if not r["trace"]:
        frac = r["failed"] / r["attempted"]
        print(f"   {'ops_failed_frac':<36} {frac:>16.6g}  ratio")
        print(f"   {'host op_s_p50':<36} {r['host_op_s_p50']:>16.6g}  s  "
              "(unscaled host seconds)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    help="workload name, or 'all' (default)")
    ap.add_argument("--seed", type=int, help="workload seed (default: the "
                    "default seed in perfbench/expected.json)")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measured seconds per run (default 20)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "acimsim", "__init__.py")):
        return fail(f"no acimsim sources under {os.path.join(ROOT, 'src')}")
    if not os.path.isfile(os.path.join(ROOT, "configs", "sweep.ini")):
        return fail("configs/sweep.ini is missing")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        return fail(f"unknown workload {args.workload!r}; choose from "
                    f"{', '.join(sorted(WORKLOADS))} or all")
    if args.seconds <= 0:
        return fail("--seconds must be > 0")
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        section = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    seed = expected["default_seed"] if args.seed is None else args.seed
    os.makedirs(WORKDIR, exist_ok=True)

    reports = []
    for name in names:
        why, blas_threads, _factory = WORKLOADS[name]
        try:
            r = run_workload(name, why, blas_threads, seed, args.seconds,
                             args.trace, expected, units)
        except (RuntimeError, ValueError, IndexError) as exc:
            return fail(f"{name}: {exc}")
        print_report(r)
        reports.append(r)

    def line(r):
        return {"correct": r["correct"], "attempted": r["attempted"],
                "failed": r["failed"], "metrics": r["metrics"] or {}}
    correct = all(r["correct"] for r in reports)
    if len(reports) == 1:
        print(json.dumps(line(reports[0])))
    else:
        print(json.dumps({"correct": correct,
                          "attempted": sum(r["attempted"] for r in reports),
                          "failed": sum(r["failed"] for r in reports),
                          "workloads": {r["workload"]: line(r)
                                        for r in reports}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
