"""Bit-level codec substrate: bit IO, improved Exp-Golomb, PDDP quantization."""

from repro.bits.bitio import BitReader, BitWriter, bits_needed
from repro.bits.expgolomb import decode_delta, encode_delta
from repro.bits.pddp import bits_for_bound, dequantize, quantize

__all__ = [
    "BitReader",
    "BitWriter",
    "bits_needed",
    "encode_delta",
    "decode_delta",
    "bits_for_bound",
    "quantize",
    "dequantize",
]
