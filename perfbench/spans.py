"""Span tracer that times acimsim's layers from outside the package.

`Tracer.install()` replaces each traced function at every acimsim module
that binds it (the engine imports `apply_noise` and `adc_readout` by name,
while `macro` calls `rng.normal` through the module), and `uninstall()`
puts the originals back. Each thread keeps its own span stack, so the
sweep's worker threads nest correctly; a span's self time is its duration
minus the time of its direct children. Spans stay in memory until
`write()` dumps them once at the end.
"""

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# Traced functions as (module, name); the label is "module.name".
TARGETS = (
    ("engine", "simulate_matmul"), ("engine", "simulate_conv2d"),
    ("engine", "plan_cycles"),
    ("quant", "quantize"), ("quant", "decompose_bits"),
    ("quant", "encode_activation_groups"),
    ("tensor", "im2col"), ("tensor", "round_half_away"),
    ("macro", "apply_noise"), ("macro", "adc_readout"),
    ("macro", "majority_vote_readout"),
    ("rng", "normal"),
    ("models", "train"), ("models", "engine_forward"),
    ("models", "forward_float"),
    ("metrics", "csnr_measure"), ("config", "load_config"),
    ("report", "emit"), ("cli", "main"),
)

COLUMNS = ("op", "id", "parent", "label", "thread", "start", "end", "self",
           "n", "useful")
MATMUL, PLAN = "engine.simulate_matmul", "engine.plan_cycles"
ADC, VOTE = "macro.adc_readout", "macro.majority_vote_readout"


# Work counters, one per span: hook(args, result, frame, parent) -> (n, useful).
# A frame is [label, child_seconds, scratch, span_id]; hooks pass data to
# the parent through its scratch slot.
def _plan(args, result, frame, parent):
    if parent is not None and parent[0] == MATMUL:
        parent[2] = len(result.entries)
    return len(result.entries), None


def _matmul(args, result, frame, parent):
    (b, d), m = args[0].shape, args[1].shape[1]
    return b * d * m * (frame[2] or 0), None   # level MACs: B*D*M*entries


def _adc(args, result, frame, parent):
    code = result[0]
    if parent is not None and parent[0] == VOTE:
        if parent[2] is None:
            parent[2] = [code, code]
        else:
            lo, hi = parent[2]
            parent[2] = [np.minimum(lo, code), np.maximum(hi, code)]
    return code.size, None


def _vote(args, result, frame, parent):
    # a voted readout is useful when its samples did not all agree
    lo, hi = frame[2]
    return lo.size, int((hi != lo).sum())


def _size(args, result, frame, parent):
    return result.size, None


HOOKS = {PLAN: _plan, MATMUL: _matmul, ADC: _adc, VOTE: _vote,
         "rng.normal": _size}


class Tracer:
    def __init__(self):
        self.spans = []        # tuples in COLUMNS order
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, label, fn):
        hook = HOOKS.get(label)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            frame = [label, 0.0, None, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
            n, useful = hook(args, result, frame, parent) if hook else (0, None)
            self.spans.append((self.op, span_id,
                               None if parent is None else parent[3], label,
                               threading.get_ident(), start, end,
                               end - start - frame[1], n, useful))
            return result
        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "acimsim" or name.startswith("acimsim.")]
        for mod_name, fn_name in TARGETS:
            orig = getattr(sys.modules[f"acimsim.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        while self._patched:
            m, attr, orig = self._patched.pop()
            setattr(m, attr, orig)

    def summary(self) -> dict:
        """label -> {calls, s (span time), self_s, n, useful}, over all ops."""
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                   "n": 0, "useful": 0})
        for _op, _id, _parent, label, _tid, start, end, self_s, n, useful \
                in self.spans:
            agg = out[label]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += self_s
            agg["n"] += n
            agg["useful"] += useful or 0
        return dict(out)

    def busy_and_wall(self, label: str) -> tuple:
        """Summed span time of `label` and, per op, first start to last end."""
        first, last, busy = {}, {}, 0.0
        for op, _id, _parent, lab, _tid, start, end, *_ in self.spans:
            if lab != label:
                continue
            busy += end - start
            first[op] = min(first.get(op, start), start)
            last[op] = max(last.get(op, end), end)
        return busy, sum(last[op] - first[op] for op in first)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("\t".join(COLUMNS) + "\n")
            fh.writelines("\t".join("" if v is None else str(v) for v in span)
                          + "\n" for span in self.spans)


def layer_metrics(tracer: Tracer, ops: int, threads: int) -> dict:
    """Per-layer metrics from a traced run of `ops` ops; times are per op."""
    agg = tracer.summary()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "n": 0, "useful": 0}

    def get(label):
        return agg.get(label, zero)

    def ratio(num, den):
        return num / den if den else 0.0

    mm, normal, adc, vote = get(MATMUL), get("rng.normal"), get(ADC), get(VOTE)
    busy, wall = tracer.busy_and_wall("models.engine_forward")
    metrics = {
        "engine.simulate_matmul.self_s": mm["self_s"] / ops,
        "engine.simulate_matmul.calls": mm["calls"] / ops,
        "engine.level_mac_per_s": ratio(mm["n"], mm["self_s"]),
        "engine.plan_cycles.s": get(PLAN)["s"] / ops,
        "rng.normal.s": normal["s"] / ops,
        "rng.normal.calls": normal["calls"] / ops,
        "rng.draws": normal["n"] / ops,
        "rng.draws_per_call": ratio(normal["n"], normal["calls"]),
        "macro.apply_noise.self_s": get("macro.apply_noise")["self_s"] / ops,
        "macro.adc_readout.s": adc["s"] / ops,
        "macro.majority_vote_readout.self_s": vote["self_s"] / ops,
        "macro.readouts": adc["n"] / ops,
        "macro.readouts_per_s": ratio(adc["n"], adc["s"]),
        "macro.vote_useful_frac": ratio(vote["useful"], vote["n"]),
        "cli.sweep.parallel_eff": ratio(busy, wall * threads),
    }
    for label in ("quant.quantize", "quant.decompose_bits",
                  "quant.encode_activation_groups", "tensor.im2col",
                  "tensor.round_half_away", "models.train",
                  "models.engine_forward", "models.forward_float",
                  "metrics.csnr_measure", "config.load_config",
                  "report.emit"):
        metrics[f"{label}.s"] = get(label)["s"] / ops
    return metrics
