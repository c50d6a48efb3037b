"""Code constructions and encoders.

Block codes are kept as packed generator rows (one int per row, bit j =
column j) in systematic [I | P] form, and every packed codeword is read
from one table set, the codewords by information byte
(BlockCode.word_tables; BlockCode.encode_words for n <= 64).  The two
named constructions are quadratic-residue codes extended by an overall
parity bit, each built from its tabulated generator polynomial; both
builds self-check their minimum distance the first time they run in a
process, by a search over two disjoint sets of positions that lists
only the light codewords (BlockCode.minimum_distance), not by
enumerating the code.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


_CHUNK_BITS = 16  # codeword_chunks yields the codewords of 2^16 info words at a time


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
    def word_tables(self) -> tuple:
        """Codewords by information byte, as lists of Python ints for a
        code of any n (see _byte_tables): the codeword of info is the XOR
        of table t at byte t of info."""
        return _byte_tables(self.rows)

    @cached_property
    def word_arrays(self) -> tuple:
        """word_tables as uint64 arrays (see _word_arrays: n <= 64)."""
        return _word_arrays(self.word_tables, self.n)

    def encode_words(self, info: np.ndarray) -> np.ndarray:
        """The packed codewords of the information words info (uint64,
        bit j information bit j).  Raises ValueError where n > 64."""
        return _span(self.word_arrays, info)

    @cached_property
    def generator_bits(self) -> np.ndarray:
        """The generator matrix as a [k, n] uint8 array of bits."""
        return np.array([[(row >> j) & 1 for j in range(self.n)] for row in self.rows],
                        dtype=np.uint8)

    def codeword_chunks(self):
        """All 2^k codewords as packed uint64 arrays, in info-int order, in
        chunks of 2^min(k, 16).  By linearity each chunk is the
        codewords of the low info words XOR the codeword of its high bits.
        """
        size = 1 << min(self.k, _CHUNK_BITS)
        low = self.encode_words(np.arange(size, dtype=np.uint64))
        for high in self.encode_words(np.arange(0, 1 << self.k, size, dtype=np.uint64)):
            yield low ^ high

    @cached_property
    def weight_histogram(self) -> np.ndarray:
        """Number of codewords of each Hamming weight 0..n, by enumerating
        all 2^k codewords."""
        counts = np.zeros(self.n + 1, dtype=np.int64)
        for words in self.codeword_chunks():
            counts += np.bincount(np.bitwise_count(words), minlength=self.n + 1)
        return counts

    def minimum_distance(self) -> int:
        """The least weight of a nonzero codeword, exactly, from the light
        words on two disjoint sets of positions rather than all 2^k
        codewords (the two-set Brouwer-Zimmermann search).

        Set 1 is the information columns.  Row-reducing the generator on
        the parity columns gives r pivot rows, the identity on r of them
        (set 2), and k - r rows that are zero on all of them.  A codeword
        of weight <= 2w + 1 weighs <= w on one set, so once level w has
        encoded every info word of weight w and every sum of w pivot rows
        (each plus every word the zero rows span), any codeword not yet
        seen weighs >= 2w + 2.  The search stops when it has seen one that
        light, or after level min(k, r), when one set has covered the code.
        Each sum of pivot rows comes with 2^(k - r) words, so parity
        columns of low rank cost up to the 2^k words of the enumeration.
        """
        tables = self.word_arrays  # raises ValueError where n > 64
        rows = list(self.rows)
        r = _row_reduce(rows, range(self.k, self.n))
        pivots, zeros = (_word_arrays(_byte_tables(part), self.n) for part in (rows[:r], rows[r:]))
        zero_span = _span(zeros, np.arange(1 << (self.k - r), dtype=np.uint64))
        least = self.n
        levels = zip(_words_by_weight(self.k), _words_by_weight(r))  # ends after min(k, r)
        for w, (info, coeffs) in enumerate(levels):
            words = np.concatenate((_span(tables, info),
                                    (_span(pivots, coeffs)[:, None] ^ zero_span).ravel()))
            weights = np.bitwise_count(words)
            least = min(least, int(weights[weights > 0].min(initial=self.n)))
            if least <= 2 * w + 2:
                break
        return least

    def weight_count(self, w: int) -> int:
        """Number of codewords of Hamming weight w."""
        return int(self.weight_histogram[w])


def _byte_tables(rows) -> tuple:
    """Lists of the XOR of each subset of eight rows: entry v of table t
    XORs the rows 8t..8t+7 selected by the bits of v, so the XOR of the
    rows a word selects is the XOR of table t at byte t of the word."""
    tables = tuple([0] for _ in range(0, len(rows), 8))
    for i, row in enumerate(rows):
        tables[i // 8].extend([word ^ row for word in tables[i // 8]])
    return tables


def _word_arrays(tables, n: int) -> tuple:
    """Byte tables (see _byte_tables) of n-bit words as uint64 arrays.
    Raises ValueError where n > 64."""
    if n > 64:
        raise ValueError("codewords wider than 64 bits")
    return tuple(np.array(table, dtype=np.uint64) for table in tables)


def _span(tables, coeffs: np.ndarray) -> np.ndarray:
    """The XOR of the rows selected by the bits of each coefficient word
    (uint64, bit i selects row i), looked up a byte at a time in the rows'
    _word_arrays."""
    words = np.zeros_like(coeffs)
    for t, table in enumerate(tables):
        words ^= table[(coeffs >> np.uint64(8 * t)) & np.uint64(0xFF)]
    return words


def _words_by_weight(m: int):
    """Every m-bit word (uint64) of weight w, for w = 0, 1, ..., m in turn:
    each weight's words are those of the last with one bit set above
    their top bit."""
    words, tops = np.zeros(1, dtype=np.uint64), np.full(1, -1)
    yield words
    for _ in range(m):
        parts = [words[tops < j] | np.uint64(1 << j) for j in range(m)]
        tops = np.repeat(np.arange(m), [len(part) for part in parts])
        words = np.concatenate(parts)
        yield words


def _row_reduce(rows: list, cols) -> int:
    """Row-reduce packed rows in place on the columns cols in turn.  The
    first r rows, r returned, each get a pivot column of cols where every
    other row is 0; the rest are 0 on all of cols."""
    r = 0
    for col in cols:
        pivot = next((i for i in range(r, len(rows)) if (rows[i] >> col) & 1), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and (rows[i] >> col) & 1:
                rows[i] ^= rows[r]
        r += 1
    return r


def _systematic_rows(poly: int, k: int) -> list:
    """Row-reduce the cyclic generator matrix [x^i * g(x)] into [I | P]."""
    rows = [poly << i for i in range(k)]
    _row_reduce(rows, range(k))
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
    parity bit.  The distance self-check encodes the 2 x 55,454 nonzero
    words of weight <= 5 on its two sets of positions, not all 2^24
    codewords; it runs once per process and takes a few milliseconds."""
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
