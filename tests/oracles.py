"""Reference computations that tests check the library against."""

import numpy as np

from acimsim.models import engine_forward
from acimsim.quant import Signedness


def recompose_bits(b) -> np.ndarray:
    """Inverse of quant.decompose_bits; returns the integer codes."""
    bits = b.params.bits
    codes = np.zeros_like(b.planes[0])
    for i, plane in enumerate(b.planes):
        weight = 1 << i
        if b.params.signedness is Signedness.TWOS_COMPLEMENT and i == bits - 1:
            weight = -weight
        codes = codes + weight * plane
    return codes


def evaluate_on_engine(model, dataset, cfg, spec, mode) -> float:
    """Top-1 accuracy with all linear layers executed by the engine."""
    x, y = dataset
    logits, _, _ = engine_forward(model, x, cfg, spec, mode)
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(y)))
