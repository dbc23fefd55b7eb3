"""One workload in one fresh process: set up, check, run the closed loop.

Started by run.py; prints `ready` once set-up is done (run.py times process
start to that line as set-up), then, unless --setup-only, one JSON line of
raw measurements. BLAS/OpenMP thread counts come from the environment that
run.py sets before this process imports numpy.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import acimsim  # noqa: E402
import spans  # noqa: E402
from workloads import SLOTS, WORKLOADS, CheckFailed  # noqa: E402

MAX_ERRORS = 5

# The host's speed drifts by tens of percent over minutes, so op times are
# also reported in reference seconds: host seconds scaled by how fast a fixed
# reference kernel (no acimsim code) ran just before and just after the op.
# One reference second is one host second on a machine where the kernel takes
# REF_S seconds, about its time on the 2-vCPU baseline machine.
REF_S = 0.025
_REF_X = (np.arange(64 * 256, dtype=np.int64) % 3).reshape(64, 256)
_REF_W = (np.arange(256 * 256, dtype=np.int64) % 255).reshape(256, 256)


def reference_seconds() -> float:
    """Host time of the reference kernel: a Python loop and int64 matmuls."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i
    for _ in range(4):
        _REF_X @ _REF_W
    return time.perf_counter() - start


class Loop:
    """Runs ops, checks every output, and keeps the tallies of one run."""

    def __init__(self, workload, expected):
        self.wl = workload
        self.expected = expected      # recorded slot digests, or None
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digests = {}             # slot -> digest of its first output
        self.snrs = {}                # slot -> linear SNRs of that output
        self.cycles = None

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)
        print(f"perfbench: FAILED: {message}", file=sys.stderr)

    def gate(self) -> None:
        if self.wl.oracle_gate is None:
            return
        self.attempted += 1
        try:
            self.wl.oracle_gate()
        except CheckFailed as exc:
            self._fail(str(exc))

    def op(self, slot: int):
        """One op; returns its host seconds, or None if it failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out, cycles = self.wl.op(slot)
        except Exception:
            self._fail(f"op on slot {slot} raised:\n{traceback.format_exc()}")
            return None
        elapsed = time.perf_counter() - start
        try:
            self._check(slot, out, cycles)
        except CheckFailed as exc:
            self._fail(f"slot {slot}: {exc}")
            return None
        return elapsed

    def _check(self, slot, out, cycles) -> None:
        self.wl.check(slot, out)
        digest = self.wl.digest(out)
        if self.cycles is None:
            self.cycles = cycles
        elif cycles != self.cycles:
            raise CheckFailed(f"sim cycles {cycles} != {self.cycles} of op 0")
        if slot in self.digests:
            if digest != self.digests[slot]:
                raise CheckFailed(f"output digest {digest} differs from "
                                  f"{self.digests[slot]} of the same inputs")
            return
        if self.expected is not None and digest != self.expected[slot]:
            raise CheckFailed(f"output digest {digest} != recorded "
                              f"{self.expected[slot]}")
        self.digests[slot] = digest
        self.snrs[slot] = self.wl.snrs(slot, out)

    def timed(self, seconds: float, tracer=None) -> tuple:
        """Closed loop for `seconds`, and over every slot at least once.

        With a tracer, ops alternate between untraced and traced, and the
        order flips on every pass over the slots, so each slot runs both
        ways and ops 2k and 2k+1 are always one untraced and one traced op.
        Returns, for the untraced and for the traced ops that passed their
        checks, a list of (op index, host seconds, reference seconds).
        """
        plain, traced = [], []
        i = 0
        ref = reference_seconds()
        end = time.perf_counter() + seconds
        while i < SLOTS * (1 if tracer is None else 2) \
                or time.perf_counter() < end:
            on = tracer is not None and (i + i // SLOTS) % 2 == 1
            if on:
                tracer.op = i
                tracer.install()
            try:
                dt = self.op(i % SLOTS)
            finally:
                if on:
                    tracer.uninstall()
            before, ref = ref, reference_seconds()
            if dt is not None:
                (traced if on else plain).append(
                    (i, dt, dt * 2.0 * REF_S / (before + ref)))
            i += 1
        return plain, traced


def overhead_frac(plain: list, traced: list) -> float:
    """Tracing cost: median traced / untraced host time of op pairs, - 1.

    The pairs are ops 2k and 2k+1, which ran back to back, so the host's
    speed drift cancels out of each ratio.
    """
    untraced = {i // 2: host for i, host, _ in plain}
    ratios = [host / untraced[i // 2] for i, host, _ in traced
              if i // 2 in untraced]
    return statistics.median(ratios) - 1.0 if ratios else 0.0


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: v for k, v in blas.items()
                 if k in ("name", "version", "openblas configuration")},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "acimsim": acimsim.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--expected", help="JSON list of recorded slot digests")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    _why, _blas_threads, factory = WORKLOADS[args.workload]
    wl = factory(args.seed, ROOT, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        wl.close()
        return 0
    try:
        loop = Loop(wl, json.loads(args.expected) if args.expected else None)
        loop.gate()
        loop.op(0)                      # untimed warm-up
        tracer = spans.Tracer() if args.trace else None
        plain, traced = loop.timed(args.seconds, tracer)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = {"op_s": [host for _, host, _ in plain],
                  "op_ref_s": [ref for _, _, ref in plain],
                  "peak_rss_mb": rss_mb}
        if tracer is not None:
            tracer.write(os.path.join(args.workdir,
                                      f"spans-{args.workload}.tsv"))
            layers = spans.layer_metrics(tracer, max(len(traced), 1),
                                         getattr(wl, "threads", 1))
            layers["trace.op_s"] = (
                statistics.fmean(host for _, host, _ in traced)
                if traced else 0.0)
            layers["trace.overhead_frac"] = overhead_frac(plain, traced)
            result["layers"] = layers
    finally:
        wl.close()
    snrs = [v for slot in sorted(loop.snrs) for v in loop.snrs[slot]]
    result.update({
        "attempted": loop.attempted, "failed": loop.failed,
        "errors": loop.errors, "digests": [loop.digests.get(s) for s in
                                           range(SLOTS)],
        "macs_per_op": wl.macs, "sim_cycles": loop.cycles,
        "mean_snr": statistics.fmean(snrs) if snrs else None,
        "env": environment(),
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
