"""The paper's mitigation finding on a trained network: analog noise costs
accuracy, and hybrid digital MSB cycles and majority voting buy it back at
the cycle price their plans state.

One `engine_forward` grid runs `configs/sweep.ini`'s trained MLP at
`MacroConfig(256, 8)` over random noise of 0.5 and 1.0 LSB, noise seeds 0-9
and six modes: plain, hybrid L = 1, 2, 3 and voting 2x3 and 3x5. At each
sigma the bounds come from the spread over the seeds: each mitigation's
per-seed accuracy gain over plain (the same seed, so the same noise streams)
must exceed three standard errors of its mean, and mean accuracy must not
fall as L or the votes grow. This module is not one of the twelve
acceptance criteria.

`PYTHONPATH=src python tests/test_mitigation.py` prints README's table, whose
rows the test checks.
"""

import os

import numpy as np

from acimsim.cli import _dataset, _train_model
from acimsim.config import load_config
from acimsim.engine import EngineMode, SimLayerResult, VotingSpec, plan_cycles
from acimsim.macro import MacroConfig, NoiseSpec, Sigma
from acimsim.models import engine_forward
from acimsim.quant import Signedness

SIGMAS = (0.5, 1.0)
SEEDS = range(10)
MODES = {"plain": EngineMode(),
         **{f"hybrid L = {h}": EngineMode(hybrid_boundary=h)
            for h in (1, 2, 3)},
         "vote 2x3": EngineMode(voting=VotingSpec(2, 3)),
         "vote 3x5": EngineMode(voting=VotingSpec(3, 5))}
ROOT = os.path.join(os.path.dirname(__file__), "..")
CONFIG = os.path.join(ROOT, "configs", "sweep.ini")


def run_grid(sigmas) -> dict:
    """sigma -> (per mode: the test accuracy of each seed, and the network's
    SimLayerResult composite (cycles and analog_ratio) of each seed). The
    points of one mode and seed run in lockstep over the sigmas."""
    cfg = load_config(CONFIG)
    train_set, (x, y) = _dataset(cfg)
    model = _train_model(cfg, train_set, (x, y))[0]
    points = [(MacroConfig(256, 8), NoiseSpec(Sigma(sigma), seed=seed), mode)
              for sigma in sigmas for mode in MODES.values() for seed in SEEDS]
    runs = engine_forward(model, x, points)
    acc = np.array([np.mean(np.argmax(logits, axis=1) == y)
                    for logits, _ in runs]).reshape(len(sigmas), len(MODES),
                                                    len(SEEDS))
    nets = [SimLayerResult.compose(layers, None) for _, layers in runs]
    nets = [nets[k:k + len(SEEDS)] for k in range(0, len(nets), len(SEEDS))]
    return {sigma: (dict(zip(MODES, acc[i])),
                    dict(zip(MODES, nets[i * len(MODES):])))
            for i, sigma in enumerate(sigmas)}


def paired_gain(acc: dict, mode: str) -> tuple:
    """Mean per-seed accuracy gain of `mode` over plain, and its standard
    error."""
    d = acc[mode] - acc["plain"]
    return d.mean(), d.std(ddof=1) / np.sqrt(len(d))


def table_rows(sigma: float, acc: dict, nets: dict) -> list:
    """README's table rows of one sigma."""
    rows = []
    for mode, a in acc.items():
        gain = "—" if mode == "plain" else "{:+.3f} ({:.3f})".format(
            *paired_gain(acc, mode))
        net = nets[mode][0]
        rows.append(f"| {sigma} | {mode} | {a.mean():.3f} | {gain} "
                    f"| {net.total_cycles} | {net.analog_ratio:.3f} |")
    return rows


def test_hybrid_and_voting_buy_back_the_accuracy_noise_costs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read().splitlines()
    for sigma, (acc, nets) in run_grid(SIGMAS).items():
        check_sigma(acc, nets)
        assert [r for r in table_rows(sigma, acc, nets)
                if r not in readme] == [], sigma


def check_sigma(acc: dict, nets: dict):
    """The mitigation finding at one sigma: gains, ordering and costs."""
    for mode in list(MODES)[1:]:
        gain, se = paired_gain(acc, mode)
        assert gain > 3 * se, (mode, gain, se)
    means = {mode: a.mean() for mode, a in acc.items()}
    for ladder in (["plain", "hybrid L = 1", "hybrid L = 2", "hybrid L = 3"],
                   ["plain", "vote 2x3", "vote 3x5"]):
        steps = [means[m] for m in ladder]
        assert steps == sorted(steps), ladder
    # each mode costs what its plans count: layer 0 reads the signed input,
    # layer 1 the unsigned ReLU output
    for mode, runs in nets.items():
        plans = [plan_cycles(8, 8, sign, Signedness.TWOS_COMPLEMENT,
                             MODES[mode]).entries
                 for sign in (Signedness.TWOS_COMPLEMENT, Signedness.UNSIGNED)]
        cycles = sum(int(e.oversample.sum()) for e in plans)
        ratio = sum(int(e.analog.sum()) for e in plans) / sum(
            len(e) for e in plans)
        assert {(n.total_cycles, n.analog_ratio) for n in runs} == {
            (cycles, ratio)}, mode
    assert [nets[m][0].total_cycles for m in MODES] == [128] * 4 + [140, 176]
    assert [round(nets[m][0].analog_ratio, 3) for m in MODES] == [
        1.0, 0.984, 0.953, 0.906, 1.0, 1.0]


def main():
    print("| sigma (LSB) | mode | mean accuracy | paired gain over plain (SE) "
          "| cycles | analog_ratio |")
    print("|---|---|---|---|---|---|")
    for sigma, grid in run_grid(SIGMAS).items():
        print("\n".join(table_rows(sigma, *grid)))


if __name__ == "__main__":
    main()
