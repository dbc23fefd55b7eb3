"""The benchmark's workloads: inputs made from the seed, the op, its checks.

Each workload is a class whose constructor is the set-up a user would pay
once (import, config load, generating and quantizing the stationary
operands). `op(slot)` is one closed-loop request through the public API.
A workload cycles through SLOTS input sets; each slot has its own
activations and noise seed, so outputs repeat with period SLOTS and every
repeat must be byte-identical to the first.
"""

import csv
import hashlib
import io
import os
import shutil
import tempfile

import numpy as np

import acimsim
import acimsim.cli
import acimsim.config
import acimsim.data

BITS = 8
SIGNED = acimsim.Signedness.TWOS_COMPLEMENT
# Operands are standard normals clipped at 3 sigma. Every tensor reaches the
# clip on every seed, so min/max calibration gives the same quantization
# scale for each seed and csnr_db varies with the values and noise draws only.
CLIP = 3.0
SLOTS = 4               # input sets per workload
RANDOM_LSB = 0.5        # random-noise sigma of every layer workload, in LSB
KERNEL = 3              # conv-y4: 3x3 filters, stride 1, padding 1
ENC_BITS = 4            # conv-y4: y=4 bit-parallel activation encoding


class CheckFailed(Exception):
    """An op's output failed a correctness check."""


def _streams(name: str, seed: int):
    """Operand generator and per-slot noise seeds, a pure function of seed."""
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "big")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(tag,))
    noise_seeds = [int(s) for s in ss.generate_state(SLOTS) % (1 << 31)]
    return np.random.Generator(np.random.PCG64(ss)), noise_seeds


def _normal(gen, shape, lo=-CLIP) -> np.ndarray:
    return np.clip(gen.standard_normal(shape), lo, CLIP)


def snr(reference: np.ndarray, out: np.ndarray) -> float:
    """Signal-to-noise power ratio of `out` against `reference` (linear)."""
    err = float(np.sum((reference - out) ** 2))
    return float(np.sum(reference * reference)) / err


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class _LayerWorkload:
    """Shared checks of the workloads that call one engine layer per op."""

    def digest(self, out: np.ndarray) -> str:
        return hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()[:16]

    def check(self, slot: int, out: np.ndarray) -> None:
        shape = self.reference(slot).shape
        _require(out.shape == shape, f"output shape {out.shape} != {shape}")
        _require(bool(np.all(np.isfinite(out))), "output has non-finite values")

    def snrs(self, slot: int, out: np.ndarray) -> list:
        return [snr(self.reference(slot), out)]

    def oracle_gate(self) -> None:
        """Noiseless at the boundary ADC precision must equal the integer oracle.

        Runs slot 0's operands through the same scheme (hybrid, voting, y)
        with no noise and an ADC that resolves every level, and compares
        against `act.codes @ w.codes * scales` with exact equality.
        """
        out, oracle = self.boundary_run()
        _require(out.shape == oracle.shape,
                 f"oracle gate: shape {out.shape} != {oracle.shape}")
        bad = int(np.count_nonzero(out != oracle))
        _require(bad == 0, f"oracle gate: {bad} of {oracle.size} outputs differ "
                           "from the integer oracle")

    def close(self) -> None:
        pass


class MatmulWorkload(_LayerWorkload):
    """8b/8b bit-serial `simulate_matmul` of act[B,D] @ w[D,M]."""

    def __init__(self, seed, name, batch, depth, cols, rows, adc_bits,
                 nonlin_lsb=0.0, hybrid=None, voting=None):
        gen, noise_seeds = _streams(name, seed)
        self.w = _normal(gen, (depth, cols))
        self.w_q = acimsim.quantize(self.w, BITS, SIGNED)
        self.acts = [_normal(gen, (batch, depth)) for _ in range(SLOTS)]
        self.act_q = [acimsim.quantize(a, BITS, SIGNED) for a in self.acts]
        self.cfg = acimsim.MacroConfig(rows, adc_bits)
        self.mode = acimsim.EngineMode(
            hybrid_boundary=hybrid,
            voting=None if voting is None else acimsim.VotingSpec(*voting))
        self.specs = [acimsim.NoiseSpec(
            random_sigma=acimsim.Sigma(RANDOM_LSB),
            nonlin_sigma=acimsim.Sigma(nonlin_lsb), seed=s) for s in noise_seeds]
        self.macs = batch * depth * cols
        self._refs = {}

    def op(self, slot: int):
        res = acimsim.simulate_matmul(self.act_q[slot], self.w_q, self.cfg,
                                      self.specs[slot], self.mode)
        return res.output, res.total_cycles

    def reference(self, slot: int) -> np.ndarray:
        if slot not in self._refs:
            self._refs[slot] = self.acts[slot] @ self.w
        return self._refs[slot]

    def boundary_run(self):
        act, w = self.act_q[0], self.w_q
        cfg = acimsim.MacroConfig.at_boundary(self.cfg.rows)
        out = acimsim.simulate_matmul(act, w, cfg, acimsim.NOISELESS,
                                      self.mode).output
        oracle = (act.codes @ w.codes) * (act.params.scale * w.params.scale)
        return out, oracle


def _patches(x: np.ndarray) -> np.ndarray:
    """Stride-1 im2col of [C,H,W], independent of the program's im2col."""
    pad = KERNEL // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (KERNEL, KERNEL),
                                                   axis=(1, 2))
    c, oh, ow = win.shape[:3]
    return win.transpose(1, 2, 0, 3, 4).reshape(oh * ow, c * KERNEL * KERNEL)


class ConvWorkload(_LayerWorkload):
    """`simulate_conv2d` of a post-ReLU [C,H,W] input, y-bit parallel."""

    def __init__(self, seed, name, channels, size, filters, rows, adc_bits):
        gen, noise_seeds = _streams(name, seed)
        self.w = _normal(gen, (filters, channels, KERNEL, KERNEL))
        self.acts = [_normal(gen, (channels, size, size), lo=0.0)   # post-ReLU
                     for _ in range(SLOTS)]
        self.cfg = acimsim.MacroConfig(rows, adc_bits, ENC_BITS)
        self.mode = acimsim.EngineMode(enc_bits=ENC_BITS)
        self.specs = [acimsim.NoiseSpec(random_sigma=acimsim.Sigma(RANDOM_LSB),
                                        seed=s) for s in noise_seeds]
        self.macs = size * size * channels * KERNEL * KERNEL * filters
        self._refs = {}

    def _conv(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        f = w.shape[0]
        out = _patches(x) @ w.reshape(f, -1).T
        return out.T.reshape(f, x.shape[1], x.shape[2])

    def op(self, slot: int):
        res = acimsim.simulate_conv2d(self.acts[slot], self.w, 1, KERNEL // 2,
                                      BITS, self.cfg, self.specs[slot], self.mode)
        return res.output, res.total_cycles

    def reference(self, slot: int) -> np.ndarray:
        if slot not in self._refs:
            self._refs[slot] = self._conv(self.acts[slot], self.w)
        return self._refs[slot]

    def boundary_run(self):
        act = acimsim.quantize(self.acts[0], BITS, acimsim.Signedness.UNSIGNED)
        w = acimsim.quantize(self.w, BITS, SIGNED)
        cfg = acimsim.MacroConfig.at_boundary(self.cfg.rows, self.cfg.enc_bits)
        out = acimsim.simulate_conv2d(self.acts[0], self.w, 1, KERNEL // 2,
                                      BITS, cfg, acimsim.NOISELESS,
                                      self.mode).output
        oracle = self._conv(act.codes, w.codes) * (act.params.scale
                                                   * w.params.scale)
        return out, oracle


class SweepWorkload:
    """In-process `acim-sim sweep` on the shipped sweep config.

    The workload seed picks the CLI's `--seed` (the noise seed) per slot;
    data and training seeds stay as the config ships them.
    """

    threads = 2

    def __init__(self, seed, root, workdir):
        _, self.noise_seeds = _streams("cli-sweep", seed)
        self.config = os.path.join(root, "configs", "sweep.ini")
        cfg = acimsim.config.load_config(self.config)
        self.points = int(np.prod([len(v) for v in cfg.sweep.values()]))
        self.light_noise = min(v for v in cfg.sweep["noise"] if v > 0)
        samples = np.zeros(cfg.data.samples)
        _, (test, _) = acimsim.data.train_test_split(samples, samples)
        # MACs of the 2-layer MLP forward over the test set, per grid point
        self.macs = self.points * len(test) * acimsim.cli.BUILTIN_HIDDEN * (
            cfg.data.features + cfg.data.classes)
        self.out_dir = tempfile.mkdtemp(prefix="sweep-", dir=workdir)

    def op(self, slot: int):
        rc = acimsim.cli.main([
            "sweep", "--config", self.config, "--threads", str(self.threads),
            "--seed", str(self.noise_seeds[slot]), "--out", self.out_dir])
        _require(rc == 0, f"acim-sim sweep exited with {rc}")
        with open(os.path.join(self.out_dir, "sweep.csv"), "rb") as fh:
            data = fh.read()
        return data, sum(int(r["cycles"]) for r in self._rows(data))

    @staticmethod
    def _rows(data: bytes) -> list:
        return list(csv.DictReader(io.StringIO(data.decode())))

    def digest(self, out: bytes) -> str:
        return hashlib.sha256(out).hexdigest()[:16]

    def check(self, slot: int, out: bytes) -> None:
        rows = self._rows(out)
        _require(len(rows) == self.points,
                 f"sweep.csv has {len(rows)} rows, expected {self.points}")
        for r in rows:
            _require(np.isfinite(float(r["csnr_db"])),
                     f"non-finite csnr_db in sweep.csv row {r}")
            _require(0.0 <= float(r["accuracy"]) <= 1.0,
                     f"accuracy outside [0, 1] in sweep.csv row {r}")

    def snrs(self, slot: int, out: bytes) -> list:
        """Linear CSNR of the grid points at the lightest non-zero noise.

        The noiseless points do not depend on the seed, and at heavier noise
        the CSNR is below 0 dB, where a relative bound means nothing.
        """
        return [10.0 ** (float(r["csnr_db"]) / 10.0) for r in self._rows(out)
                if float(r["noise"]) == self.light_noise]

    oracle_gate = None

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


# name -> (why, BLAS threads, factory(seed, root, workdir)).
# cli-sweep pins BLAS to 1 thread because the sweep already runs 2 workers.
WORKLOADS = {
    "mm-gemm": (
        "level GEMM bound: 8b/8b bit-serial 64x1024x256 matmul, 4 tiles x 64 "
        "cycles, k=9, 0.5 LSB noise",
        2, lambda seed, root, workdir: MatmulWorkload(
            seed, name="mm-gemm", batch=64, depth=1024, cols=256, rows=256,
            adc_bits=9)),
    "mm-readout": (
        "readout bound: 8x1024x64, rows=128, k=7, random+nonlinear noise, "
        "hybrid L=2 and 3x5 voting, 896 small cycles",
        2, lambda seed, root, workdir: MatmulWorkload(
            seed, name="mm-readout", batch=8, depth=1024, cols=64, rows=128,
            adc_bits=7, nonlin_lsb=0.5, hybrid=2, voting=(3, 5))),
    "conv-y4": (
        "conv2d on a post-ReLU 16x64x64 input, 32 3x3 filters, y=4, k=10: "
        "im2col, unsigned path, one tall tile",
        2, lambda seed, root, workdir: ConvWorkload(
            seed, name="conv-y4", channels=16, size=64, filters=32, rows=256,
            adc_bits=10)),
    "cli-sweep": (
        "acim-sim sweep on configs/sweep.ini with 2 threads: train, 16 grid "
        "points of a 2-layer MLP, CSV/JSON emit",
        1, SweepWorkload),
}
