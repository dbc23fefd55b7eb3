"""Bit-wise inference simulator for SRAM-based charge-domain analog CiM.

The pipeline mirrors the hardware: per-tensor quantization, bit-plane
decomposition, per-cycle analog MAC with noise and ADC readout, then signed
shift-accumulation. Mitigations (hybrid digital MSB cycles, majority voting)
and analytics (CSNR, MAC distributions, linearity sweeps) sit on top.
"""

__version__ = "0.1.0"

from .errors import (AcimError, CheckpointError, ConfigError, DataError,
                     DomainError, ShapeError, TrainingError)
from .macro import MacroConfig, NoiseSpec, NoiseUnit, Sigma, NOISELESS
from .quant import (QuantParams, QuantizedTensor, Signedness, bit_sparsity,
                    decompose_bits, dequantize, encode_activation_groups,
                    group_layout, quantize)
from .engine import (CyclePlan, EngineMode, SimLayerResult, VotingSpec,
                     plan_cycles, simulate_attention, simulate_conv2d,
                     simulate_matmul)
from .metrics import (LinearitySweep, MacHistogram, VarianceCsnr, csnr_measure,
                      csnr_variance_form, linearity_sweep, mac_distribution)
from .models import (LinearLayer, Relu, TinyModel, TrainConfig,
                     evaluate_digital, forward_float, forward_qat, init_mlp,
                     train)
from .checkpoint import load_checkpoint, save_checkpoint
from .rng import RngContext
from .tensor import im2col, round_half_away
