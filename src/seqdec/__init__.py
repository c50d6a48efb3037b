"""Sequential maximum-likelihood decoding and its computational cost.

Two ML decoders are implemented and instrumented: a best-first search
over the code tree of a binary linear block code, and a two-stack
best-first search over the trellis of a binary convolutional code.
Alongside the decoders, the package evaluates analytic upper bounds on
the average number of branch-metric computations each decoder performs
on the AWGN channel, in two flavors: a plain exponential (Chernoff)
bound and a sharpened variant carrying a normal-approximation
subexponential factor.
"""

from seqdec.bounds import (
    BERRY_ESSEEN,
    CHERNOFF,
    BoundVariant,
    extension_probability_bounds,
    gda_complexity_bound,
    mlsda_complexity_bound,
)
from seqdec.channel import ChannelConfig, hard_decision, llr, transmit
from seqdec.codes import (
    BlockCode,
    ConvCode,
    build_extended_golay,
    build_extended_qr48,
    encode_block,
    encode_conv,
    parse_octal_generators,
)
from seqdec.decoders import DecodeOutcome, gda_decode, mlsda_decode
from seqdec.numerics import RngStream
from seqdec.trellis import Trellis, build_trellis, compute_dstar

__all__ = [
    "BERRY_ESSEEN",
    "CHERNOFF",
    "BlockCode",
    "BoundVariant",
    "ChannelConfig",
    "ConvCode",
    "DecodeOutcome",
    "RngStream",
    "Trellis",
    "build_extended_golay",
    "build_extended_qr48",
    "build_trellis",
    "compute_dstar",
    "encode_block",
    "encode_conv",
    "extension_probability_bounds",
    "gda_complexity_bound",
    "gda_decode",
    "hard_decision",
    "llr",
    "mlsda_complexity_bound",
    "mlsda_decode",
    "parse_octal_generators",
    "transmit",
]

__version__ = "0.1.0"
