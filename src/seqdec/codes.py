"""Code constructions and encoders.

Block codes are kept as packed generator rows (one int per row, bit j =
column j) in systematic [I | P] form.  The two named constructions are
quadratic-residue codes extended by an overall parity bit, each built
from its tabulated generator polynomial; both builds self-check their
minimum distance by exhaustive weight enumeration the first time they
run in a process.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


_ENUM_LOW_ROWS = 20  # info rows in the codeword table of codeword_chunks


class LengthMismatch(ValueError):
    pass


class TapLengthError(ValueError):
    """Octal pattern has more significant bits than the encoder has taps."""


# ---------------------------------------------------------------------------
# Block codes

@dataclass(frozen=True)
class BlockCode:
    """(n, k) binary linear block code in systematic [I | P] form.

    rows[i] is row i of the generator matrix packed into an int with bit
    j holding column j; systematic form means rows[i] & ((1 << k) - 1)
    == 1 << i, so the first k code bits of any codeword equal the
    information bits.
    """

    n: int
    k: int
    rows: tuple
    name: str = ""

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"a block code needs k >= 1 information bits, got {self.k}")
        if len(self.rows) != self.k:
            raise ValueError("generator must have k rows")
        for i, row in enumerate(self.rows):
            if row & ((1 << self.k) - 1) != (1 << i):
                raise ValueError("generator is not in systematic form")
            if row >> self.n:
                raise ValueError("generator row wider than n")

    @cached_property
    def parity_tables(self) -> tuple:
        """Parity words by information byte: entry t[v] of table t is the
        XOR of the parity columns (bits k..n-1, in place) of the rows
        8t..8t+7 selected by the bits of v.  The parity bits of the
        codeword of info are the XOR of table t at byte t of info."""
        tables = []
        for first in range(0, self.k, 8):
            table = [0]
            for row in self.rows[first:first + 8]:
                parity = row >> self.k << self.k
                table += [word ^ parity for word in table]
            tables.append(tuple(table))
        return tuple(tables)

    @cached_property
    def parity_arrays(self) -> tuple:
        """parity_tables as uint64 arrays, to look up many words at once."""
        return tuple(np.array(t, dtype=np.uint64) for t in self.parity_tables)

    @cached_property
    def generator_bits(self) -> np.ndarray:
        """The generator matrix as a [k, n] uint8 array of bits."""
        return np.array([[(row >> j) & 1 for j in range(self.n)] for row in self.rows],
                        dtype=np.uint8)

    def codeword_chunks(self):
        """All 2^k codewords as packed uint64 arrays, in info-int order.

        A table of the 2^min(k, 20) codewords of the low info rows is
        built once; each chunk is that table XORed with one combination
        of the high rows, so at most two 8 MiB tables are held at a time.
        """
        if self.n > 64:
            raise ValueError("codewords wider than 64 bits")
        low = min(self.k, _ENUM_LOW_ROWS)
        table = np.zeros(1 << low, dtype=np.uint64)
        for i, row in enumerate(self.rows[:low]):
            half = 1 << i
            table[half:2 * half] = table[:half] ^ np.uint64(row)
        high_rows = self.rows[low:]
        for high in range(1 << len(high_rows)):
            base = 0
            for i, row in enumerate(high_rows):
                if (high >> i) & 1:
                    base ^= row
            yield table ^ np.uint64(base)

    @cached_property
    def weight_histogram(self) -> np.ndarray:
        """Number of codewords of each Hamming weight 0..n, by enumerating
        all 2^k codewords."""
        counts = np.zeros(self.n + 1, dtype=np.int64)
        for words in self.codeword_chunks():
            counts += np.bincount(np.bitwise_count(words), minlength=self.n + 1)
        return counts

    def minimum_distance(self) -> int:
        return int(np.flatnonzero(self.weight_histogram[1:])[0]) + 1

    def weight_count(self, w: int) -> int:
        """Number of codewords of Hamming weight w."""
        return int(self.weight_histogram[w])


def _systematic_rows(poly: int, k: int) -> list:
    """Row-reduce the cyclic generator matrix [x^i * g(x)] into [I | P]."""
    rows = [poly << i for i in range(k)]
    for col in range(k):
        pivot = next(i for i in range(col, k) if (rows[i] >> col) & 1)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for i in range(k):
            if i != col and (rows[i] >> col) & 1:
                rows[i] ^= rows[col]
    return rows


def _extend_parity(rows: list, n: int) -> list:
    """Append an overall parity column so every codeword has even weight."""
    out = []
    for row in rows:
        parity = bin(row).count("1") & 1
        out.append(row | (parity << n))
    return out


def _build_extended_qr(poly: int, p: int, name: str, expected_dmin: int) -> BlockCode:
    """The length-(p+1) extension of the cyclic code of prime length p
    generated by poly (bit i = coefficient of x^i), in systematic form.
    Raises AssertionError unless its minimum distance is expected_dmin."""
    k = (p + 1) // 2
    rows = _extend_parity(_systematic_rows(poly, k), p)
    code = BlockCode(n=p + 1, k=k, rows=tuple(rows), name=name)
    dmin = code.minimum_distance()
    if dmin != expected_dmin:
        raise AssertionError(f"{name}: minimum distance {dmin}, expected {expected_dmin}")
    return code


# The generator polynomials of the binary quadratic-residue codes of
# lengths 23 and 47 (MacWilliams and Sloane, The Theory of
# Error-Correcting Codes, ch. 16): for these p, (x^p + 1)/(x + 1) is the
# product of two reciprocal irreducibles of degree (p - 1)/2, and either
# generates the code; the smaller one as an int is used.
#   p = 23: 0xAE3    = 1 + x + x^5 + x^6 + x^7 + x^9 + x^11
#   p = 47: 0x8C76EF = 1 + x + x^2 + x^3 + x^5 + x^6 + x^7 + x^9 + x^10
#                      + x^12 + x^13 + x^14 + x^18 + x^19 + x^23

@lru_cache(maxsize=None)
def build_extended_golay() -> BlockCode:
    """(24, 12) extended Golay code, systematic, minimum distance 8: the
    quadratic-residue code of length 23 plus an overall parity bit."""
    return _build_extended_qr(0xAE3, 23, "golay24", 8)


@lru_cache(maxsize=None)
def build_extended_qr48() -> BlockCode:
    """(48, 24) extended quadratic-residue code, systematic, minimum
    distance 12: the quadratic-residue code of length 47 plus an overall
    parity bit.  The distance self-check enumerates all 2^24 codewords;
    it runs once per process and takes about a tenth of a second."""
    return _build_extended_qr(0x8C76EF, 47, "qr48", 12)


def encode_block(code: BlockCode, info) -> np.ndarray:
    """info . G over GF(2) along the last axis: info [..., k] gives
    codewords [..., n]; systematic, so the first k bits equal info."""
    info = np.asarray(info, dtype=np.uint8)
    if info.shape[-1:] != (code.k,):
        raise LengthMismatch(f"info length {info.shape} != k={code.k}")
    # a uint8 product wraps mod 256, which keeps its parity
    return (info @ code.generator_bits) & 1


# ---------------------------------------------------------------------------
# Convolutional codes

@dataclass(frozen=True)
class ConvCode:
    """(n, 1, m) binary convolutional encoder.

    taps[i] is the length-(m+1) tap vector of output i, current-input
    coefficient first: output bit i at time t is
    sum_j taps[i][j] * u_(t-j) mod 2.  A memory below 0, a tap entry other
    than 0 or 1, or no output that taps the current input is rejected.
    """

    n_out: int
    m: int
    taps: tuple
    name: str = ""

    def __post_init__(self):
        if self.m < 0:
            raise ValueError(f"memory m must be >= 0, got {self.m}")
        if len(self.taps) != self.n_out:
            raise ValueError("need one tap vector per output")
        for tap in self.taps:
            if len(tap) != self.m + 1:
                raise ValueError("tap vectors must have length m+1")
            if any(bit not in (0, 1) for bit in tap):
                raise ValueError(f"tap entries must be 0 or 1, got {tap!r}")
        if not any(tap[0] for tap in self.taps):
            raise ValueError("no output taps the current input (pure delay)")


def parse_octal_generators(octal, m: int, name: str = "") -> ConvCode:
    """Build a ConvCode from octal generator strings.

    Each string expands MSB-first to three bits per digit.  Trailing
    zero bits are insignificant (the written pattern is left-justified);
    after dropping them the pattern, including any leading zero bits,
    must fit within m+1 taps and is padded back out with trailing zeros.
    """
    taps = []
    for s in octal:
        bits = "".join(format(int(c, 8), "03b") for c in s)
        sig = bits.rstrip("0") or "0"
        if len(sig) > m + 1:
            raise TapLengthError(
                f"octal {s}: {len(sig)} significant bits exceed {m + 1} taps")
        sig = sig.ljust(m + 1, "0")
        taps.append(tuple(int(c) for c in sig))
    return ConvCode(n_out=len(taps), m=m, taps=tuple(taps), name=name)


def encode_conv(code: ConvCode, info) -> np.ndarray:
    """Encoding of info followed by m zero tail bits, along the last axis:
    info [..., L] gives codewords [..., n*(L+m)], interleaved by output
    line.

    Output line i is the GF(2) convolution of the terminated input with
    tap vector i: the XOR of the input shifted by each tapped delay.
    """
    info = np.asarray(info, dtype=np.uint8)
    if info.ndim < 1 or info.shape[-1] < 1:
        raise LengthMismatch("info must be a nonempty bit vector")
    lead = info.shape[:-1]
    u = np.concatenate((info, np.zeros(lead + (code.m,), dtype=np.uint8)), axis=-1)
    steps = u.shape[-1]
    out = np.zeros(lead + (steps, code.n_out), dtype=np.uint8)
    for i, tap in enumerate(code.taps):
        for delay in np.flatnonzero(tap):
            out[..., delay:, i] ^= u[..., :steps - delay]
    return out.reshape(lead + (-1,))
