"""Acceptance gate: the twelve release criteria, one test per criterion.

Each test prints a `[criterion NN] PASS/FAIL - detail` line (collected again
in the terminal summary by conftest.py) and then asserts on it, so a plain
pytest run always shows the full scorecard.
"""

import time

import numpy as np

from acimsim import rng
from acimsim.cli import main
from acimsim.data import make_blobs, train_test_split
from acimsim.engine import EngineMode, plan_cycles, simulate_matmul
from acimsim.macro import (NOISELESS, MacroConfig, NoiseSpec, NoiseUnit,
                           Sigma, adc_readout, apply_noise,
                           majority_vote_readout, sigma_to_counts)
from acimsim.metrics import linearity_sweep, mac_distribution
from acimsim.models import (TrainConfig, evaluate_digital, init_mlp,
                            loss_and_grads, train)
from acimsim.quant import QuantParams, QuantizedTensor, Signedness

from oracles import evaluate_on_engine

TC = Signedness.TWOS_COMPLEMENT
U = Signedness.UNSIGNED

RESULTS = []


def report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def q_tensor(codes, bits, signedness, scale=1.0):
    return QuantizedTensor(np.asarray(codes, dtype=np.int64),
                           QuantParams(scale, bits, signedness))


def oracle(a, w):
    # integer matmul rescaled once, exactly mirroring the engine's final step
    return (a.codes @ w.codes) * (a.params.scale * w.params.scale)


def random_case(gen, d, bits=8):
    lo, hi = -(1 << bits - 1), (1 << bits - 1) - 1
    a = q_tensor(gen.integers(lo, hi + 1, size=(3, d)), bits, TC,
                 scale=float(gen.uniform(0.5, 2.0)))
    w = q_tensor(gen.integers(lo, hi + 1, size=(d, 3)), bits, TC,
                 scale=float(gen.uniform(0.5, 2.0)))
    return a, w


def test_c01_noiseless_engine_matches_integer_oracle():
    start = time.monotonic()
    serial = EngineMode()
    # exhaustive 3-bit sweep: constant rows cover every (x, w) code pair at
    # every dot length, cyclic rows mix codes within one dot product
    vals = np.arange(-4, 4)
    mismatches = 0
    checked = 0
    for d in range(1, 9):
        const = np.repeat(vals[:, None], d, axis=1)
        cyc = np.stack([np.roll(vals, -i)[:d] for i in range(vals.size)])
        act = q_tensor(np.vstack([const, cyc]), 3, TC)
        w = q_tensor(np.vstack([const, cyc]).T, 3, TC)
        res = simulate_matmul(act, w, MacroConfig.at_boundary(8), NOISELESS,
                              serial)
        mismatches += not np.array_equal(res.output, oracle(act, w))
        checked += res.output.size
    cfg = MacroConfig.at_boundary(256)
    gen = np.random.default_rng(42)
    dims = [int(d) for d in gen.integers(1, 257, size=996)] + [300, 300,
                                                               512, 512]
    for d in dims:
        a, w = random_case(gen, d)
        res = simulate_matmul(a, w, cfg, NOISELESS, serial)
        mismatches += not np.array_equal(res.output, oracle(a, w))
    elapsed = time.monotonic() - start
    report(1, mismatches == 0 and elapsed < 60.0,
           f"{checked} exhaustive 3b dot products + {len(dims)} random 8b "
           f"cases bit-exact vs integer oracle ({mismatches} mismatches, "
           f"{elapsed:.1f}s)")


def test_c02_bit_parallel_matches_bit_serial():
    gen = np.random.default_rng(7)
    dims = [int(d) for d in gen.integers(1, 200, size=58)] + [300, 512]
    mismatches = 0
    for d in dims:
        a, w = random_case(gen, d)
        ref = simulate_matmul(a, w, MacroConfig.at_boundary(256), NOISELESS,
                              EngineMode()).output
        for y in (2, 4):
            out = simulate_matmul(a, w, MacroConfig.at_boundary(256, y),
                                  NOISELESS, EngineMode(enc_bits=y)).output
            mismatches += not np.array_equal(out, ref)
    report(2, mismatches == 0,
           f"bit-parallel y in {{2, 4}} at boundary ADC equals bit-serial "
           f"bit-exactly on {len(dims)} random 8b cases "
           f"({mismatches} mismatches)")


def test_c03_cycle_accounting():
    serial = plan_cycles(8, 8, TC, TC, EngineMode())
    mixed = plan_cycles(8, 9, TC, TC, EngineMode(enc_bits=4))
    per_y = [plan_cycles(8, 8, U, TC, EngineMode(enc_bits=y)).cycles_per_tile
             for y in (1, 2, 4)]
    ok = (serial.cycles_per_tile == 64 and mixed.cycles_per_tile == 24
          and per_y == [64, 32, 16])
    report(3, ok,
           f"8b/8b serial = {serial.cycles_per_tile} cycles/tile, 9b signed "
           f"acts at y=4 = {mixed.cycles_per_tile}, unsigned-act cycles halve "
           f"per y doubling: {per_y}")


def test_c04_hybrid_split():
    plan = plan_cycles(8, 8, TC, TC, EngineMode(hybrid_boundary=3))
    digital = int((~plan.entries.analog).sum())
    analog_ratio = plan.entries.analog.mean()
    n_shifts = len(set(plan.entries.shift))
    gen = np.random.default_rng(3)
    a, w = random_case(gen, 64)
    noisy = NoiseSpec(random_sigma=Sigma(2.0, NoiseUnit.LSB_RMS), seed=11)
    res = simulate_matmul(a, w, MacroConfig.at_boundary(256), noisy,
                          EngineMode(hybrid_boundary=n_shifts))
    exact = (np.array_equal(res.output, oracle(a, w))
             and res.analog_ratio == 0.0)
    ok = digital == 6 and analog_ratio == 58 / 64 and exact
    report(4, ok,
           f"L=3 moves {digital} of 64 cycles to digital (analog ratio "
           f"{analog_ratio:.5f} = 58/64); full-boundary hybrid under "
           f"sigma=2 LSB_rms exact: {exact}")


def test_c05_majority_vote_sigma():
    start = time.monotonic()
    cfg = MacroConfig(256, 8)         # delta = 1, so counts == LSB units
    spec = NoiseSpec(random_sigma=Sigma(1.0, NoiseUnit.LSB_RMS), seed=5)
    trials = 20000
    total = majority_vote_readout(np.full(trials, 128.0), 5, spec, cfg,
                                  rng.RngContext())
    sigma = float((total / 5).std())
    elapsed = time.monotonic() - start
    report(5, 0.40 <= sigma <= 0.50 and elapsed < 30.0,
           f"5-sample vote at sigma=1.0 LSB_rms: effective code sigma "
           f"{sigma:.4f} in [0.40, 0.50] ({trials} trials, {elapsed:.1f}s)")


def test_c06_linearity_trends():
    cfg = MacroConfig(256, 8)         # delta = 1
    trials = 100_000
    rand = NoiseSpec(random_sigma=Sigma(1.0, NoiseUnit.LSB_RMS), seed=6)
    sweep = linearity_sweep(cfg, rand, trials, levels=np.arange(8, 249, 8))
    rand_ok = bool(np.all((sweep.sigma >= 0.95) & (sweep.sigma <= 1.05)))

    # the nonlinearity trend is checked on the analog level before the ADC:
    # at level 0 the readout clamp would fold half the distribution away
    nl = NoiseSpec(nonlin_sigma=Sigma(1.0, NoiseUnit.LSB_RMS), seed=6)
    sig = []
    for v in np.arange(0, 249, 8):
        out = apply_noise(np.full(trials, float(v)), nl, cfg,
                          rng.RngContext(column=int(v)))
        sig.append(float(out.std()))
    sig = np.asarray(sig)
    slack = 0.01                      # ~3 standard errors at 1e5 trials
    nl_ok = abs(sig[0] - 1.0) <= 0.1 and bool(np.all(np.diff(sig) <= slack))
    report(6, rand_ok and nl_ok,
           f"random-noise code sigma in [{sweep.sigma.min():.3f}, "
           f"{sweep.sigma.max():.3f}] (target [0.95, 1.05]); nonlin "
           f"sigma(0)={sig[0]:.3f} and monotone non-increasing: {nl_ok}")


def test_c07_unit_conversion():
    cfg = MacroConfig(256, 8)
    counts = sigma_to_counts(Sigma(0.15, NoiseUnit.VPP_PCT), cfg)
    lsb = counts / cfg.lsb_counts
    report(7, counts == 0.384 and lsb == 0.384,
           f"0.15 Vpp% at k=8 converts to {lsb} LSB_rms (exact)")


def test_c08_expected_mac_level():
    gen = np.random.default_rng(8)
    cfg = MacroConfig.at_boundary(256)
    mode = EngineMode()
    runs = 250
    means = np.empty(runs)
    for r in range(runs):
        act = q_tensor(gen.integers(0, 256, size=(1, 256)), 8, U)
        w = q_tensor(gen.integers(0, 256, size=(256, 1)), 8, U)
        hist = mac_distribution(act, w, cfg, mode)
        mass = sum(float((np.arange(c.size) * c).sum())
                   for c in hist.counts.values())
        means[r] = mass / hist.total_mass
    overall = float(means.mean())
    se = float(means.std(ddof=1) / np.sqrt(runs))   # runs are independent
    report(8, abs(overall - 64.0) <= 3 * se,
           f"Bernoulli(0.5) planes, rows=256: per-cycle mean {overall:.3f} "
           f"vs 64 (|diff| = {abs(overall - 64):.3f}, 3 SE = {3 * se:.3f})")


def test_c09_adc_reconstruction_bound():
    combos = [(y, k) for y in (1, 4) for k in (8, 10, 12)]
    ok = True
    worst = 0.0
    for y, k in combos:
        cfg = MacroConfig(256, k, y)
        delta = cfg.lsb_counts
        top = int(np.floor(cfg.full_scale_counts - delta))
        levels = np.arange(0, top + 1, dtype=np.float64)
        _, mac = adc_readout(levels, cfg)
        err = float(np.abs(mac - levels).max())
        worst = max(worst, err / delta)
        ok = ok and err <= delta / 2 + 1e-9
    report(9, ok,
           f"|reconstructed - ideal| <= delta/2 over every non-saturating "
           f"integer level for (y, k) in {combos} (worst {worst:.3f} delta)")


def test_c10_end_to_end_blob_mlp():
    start = time.monotonic()
    data = make_blobs(512, 16, 3, seed=7, spread=0.6)
    train_set, test_set = train_test_split(*data)
    dims = [16, 32, 3]
    tc = TrainConfig(lr=0.05, epochs=40, batch=32, seed=3, w_bits=8, x_bits=8)
    model, _ = train(init_mlp(dims, seed=3), train_set, tc)
    baseline = evaluate_digital(model, test_set)

    cfg = MacroConfig.at_boundary(256)
    mode = EngineMode()
    acc_noiseless = evaluate_on_engine(model, test_set, cfg, NOISELESS, mode)
    a_ok = abs(acc_noiseless - baseline) <= 0.01 + 1e-12

    def noise_mean(m, sigma):
        accs = [evaluate_on_engine(
                    m, test_set, cfg,
                    NoiseSpec(random_sigma=Sigma(sigma, NoiseUnit.LSB_RMS),
                              seed=s), mode)
                for s in range(100, 110)]
        return float(np.mean(accs))

    means = [noise_mean(model, s) for s in (0.0, 0.25, 0.5, 1.0)]
    b_ok = bool(np.all(np.diff(means) <= 1e-9))

    tc_nat = TrainConfig(lr=0.05, epochs=40, batch=32, seed=3,
                         w_bits=8, x_bits=8, nat_sigma=0.5)
    nat_model, _ = train(init_mlp(dims, seed=3), train_set, tc_nat)
    nat_mean = noise_mean(nat_model, 1.0)
    c_ok = nat_mean >= means[-1]

    # forced-error displacement: unsigned 8b/8b so every cycle touches every
    # output element exactly once and the delta=1 bump lands unscaled
    gen = np.random.default_rng(10)
    act = q_tensor(gen.integers(0, 256, size=(8, 64)), 8, U)
    wq = q_tensor(gen.integers(0, 256, size=(64, 8)), 8, U)
    dcfg = MacroConfig(256, 8)
    clean = simulate_matmul(act, wq, dcfg, NOISELESS, mode).output

    def displaced(target):
        def bump(levels, ctx):
            if (ctx.w_bit, ctx.act_group) == target:
                return levels + 1.0
            return levels
        out = simulate_matmul(act, wq, dcfg, NoiseSpec(level_hook=bump),
                              mode).output
        return float(np.abs(out - clean).mean())

    shift_max = int(plan_cycles(8, 8, U, U, mode).entries.shift.max())
    ratio = displaced((7, 7)) / displaced((0, 0))
    d_ok = ratio == float(1 << shift_max)

    elapsed = time.monotonic() - start
    report(10, a_ok and b_ok and c_ok and d_ok,
           f"(a) engine {acc_noiseless:.4f} vs digital {baseline:.4f}; "
           f"(b) sigma-grid means {[round(m, 4) for m in means]} "
           f"non-increasing: {b_ok}; (c) NAT {nat_mean:.4f} >= plain "
           f"{means[-1]:.4f}; (d) MSB/LSB displacement ratio {ratio:.0f} == "
           f"2^{shift_max} ({elapsed:.0f}s)")


CLI_INI = """\
[macro]
rows = 64
adc_bits = 7

[noise]
random = 0.5
random_unit = lsb_rms
seed = 13

[quant]
w_bits = 6
x_bits = 6

[data]
samples = 80
features = 8
classes = 3
seed = 4
spread = 0.5

[train]
lr = 0.1
epochs = 4
batch = 16

[sweep]
adc_bits = 6, 7
noise = 0.25, 0.75
"""


def test_c11_thread_count_determinism(tmp_path):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(CLI_INI)
    ok = True
    sizes = {}
    for command in ("sweep", "simulate"):
        blobs = []
        for threads in (1, 4):
            out = tmp_path / f"{command}-t{threads}"
            rc = main([command, "--config", str(cfg_path), "--out", str(out),
                       "--threads", str(threads)])
            ok = ok and rc == 0
            blobs.append((out / f"{command}.csv").read_bytes())
        ok = ok and blobs[0] == blobs[1]
        sizes[command] = len(blobs[0])
    report(11, ok,
           f"result CSVs byte-identical for --threads 1 vs 4 "
           f"(sweep {sizes.get('sweep')} B, simulate {sizes.get('simulate')} B)")


def test_c12_gradient_check():
    worst = 0.0
    eps = 1e-6
    for seed in range(10):
        gen = np.random.default_rng(seed)
        dims = [int(gen.integers(3, 7)), int(gen.integers(4, 9)),
                int(gen.integers(2, 5))]
        m = init_mlp(dims, seed=seed)
        x = gen.normal(size=(5, dims[0]))
        labels = gen.integers(0, dims[-1], size=5)
        tc = TrainConfig()
        _, grads = loss_and_grads(m, x, labels, tc, quantized=False)
        for li, layer in enumerate(m.layers):
            if not hasattr(layer, "w"):
                continue
            dw, db = grads[li]
            for arr, grad in ((layer.w, dw), (layer.b, db)):
                num = np.zeros_like(arr)
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    ix = it.multi_index
                    orig = arr[ix]
                    arr[ix] = orig + eps
                    lp, _ = loss_and_grads(m, x, labels, tc, quantized=False)
                    arr[ix] = orig - eps
                    lm, _ = loss_and_grads(m, x, labels, tc, quantized=False)
                    arr[ix] = orig
                    num[ix] = (lp - lm) / (2 * eps)
                rel = np.linalg.norm(grad - num) / max(np.linalg.norm(num),
                                                       1e-12)
                worst = max(worst, rel)
    report(12, worst <= 1e-5,
           f"analytic vs central-difference gradients on 10 random models: "
           f"worst relative error {worst:.2e} <= 1e-5")
