"""Trellis construction for convolutional codes, held as one transition
table of branch outputs, and the one min-plus pass over it (d* and the
Viterbi path metrics).

Paths start in state 0 and take input 0 from level L on, so by the
register rule level l holds exactly the multiples of 2^j below
2^min(l, m), j = max(0, l - L): the states below 2^l at a head level
l < m, all S states from m to L, and the multiples of 2^j at tail level
L + j.  min_path_costs computes only those.

d* rows never grow below L (input 0 keeps state 0 at weight 0, so a path
into (l, s) led by one such step enters (l + 1, s) at the same weight),
so they settle: from level 10 for the 634/564 code and level 40 for
fig7's memory-16 code every row up to L repeats the one before, and the
pass stops there (see min_path_costs).

The pass has two bodies that form the same sums in the same order:
gathers by register up to 256 states, and past 256 a broadcast over the
input bit that gathers nothing from the source row (min_path_costs says
how each works).  Measured on 2 CPUs with numpy 2.4, the broadcast body
against the gathers it replaced: fig7's memory-16 d* at L = 100 takes
4.9-5.7 ms (13.4-14.6 ms), and a memory-16 float pass is 1.23-1.27x as
fast on one row and 1.32-1.39x on eight.  Forced onto smaller trellises at
the count's block sizes, it reads 0.85x at 64 states (the (2,1,6)
count's 76-row blocks), 0.93x at 128, 1.10x at 256 and 1.41x at 512
against the gathers, so the split stays where it was.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from seqdec.codes import ConvCode

ABSENT = -1


@dataclass(frozen=True)
class Trellis:
    """Unrolled (L+m)-section state graph of a ConvCode.

    Level 0 holds only state 0; inputs are forced to 0 from level L on,
    so level L+m again holds only state 0 (the goal node).  Input bit b
    moves state s to ((s << 1) | b) & (S - 1), the register rule, which
    no table stores.  outputs, the one transition table, is [2, S]
    indexed [input bit, state] in the narrowest unsigned dtype: n_out-bit
    patterns, bit i = output line i, matching codeword order.
    """

    code: ConvCode
    L: int
    outputs: np.ndarray

    @property
    def levels(self) -> int:
        return self.L + self.code.m

    @property
    def n(self) -> int:
        """The codeword length N = n_out (L + m)."""
        return self.code.n_out * self.levels

    @property
    def num_states(self) -> int:
        return 1 << self.code.m

    @cached_property
    def output_lists(self) -> list:
        """outputs as two flat lists of Python ints, [input bit][state],
        built once, for search loops that index it scalar by scalar."""
        return self.outputs.tolist()

    @cached_property
    def dstar(self) -> np.ndarray:
        """Minimum Hamming weight over all paths into each (level, state),
        read-only: min_path_costs on the output weights, ABSENT for nodes
        no path enters.  Only the head levels up to min(m, L) and the
        levels past L hold such nodes, so only they are searched for the
        sentinel n + 1.

        The table is int32, which holds every path weight (at most the
        codeword length n) and the sentinel alike: the pass adds branch
        weights only to the entries of reached nodes."""
        big = self.n + 1
        weight = np.bitwise_count(np.arange(1 << self.code.n_out)).astype(np.int32)
        table = min_path_costs(self, np.broadcast_to(weight, (self.levels, 1, weight.size)),
                               big)[:, 0]
        for part in (table[:min(self.code.m, self.L) + 1], table[self.L + 1:]):
            part[part == big] = ABSENT
        table.flags.writeable = False
        return table

    @cached_property
    def dstar_levels(self) -> list:
        """(row, distinct, counts) for each level l < L, the levels whose
        nodes branch: row holds the d* of the states present at level l
        in ascending state order, distinct its distinct values in
        ascending order and counts how many states of row hold each of
        them.  By the register rule, the l inputs from state 0 reach
        exactly the states below 2^min(l, m) for l <= L, so row is a view
        of the first 2^min(l, m) entries of the dstar row.  A row equal
        to the one before it (every row past d*'s fixed point, see
        min_path_costs) shares that level's distinct and counts."""
        levels = []
        for l, row in enumerate(self.dstar[:self.L]):
            row = row[:1 << min(l, self.code.m)]
            if levels and np.array_equal(row, levels[-1][0]):
                distinct, counts = levels[-1][1:]
            else:
                counts = np.bincount(row)
                distinct = np.flatnonzero(counts)
                counts = counts[distinct]
            levels.append((row, distinct, counts))
        return levels


def build_trellis(code: ConvCode, L: int) -> Trellis:
    """Transition table by array parity.

    The shift register of a branch holds the input bit in bit 0 and the
    state (previous inputs, most recent lowest) above it, so output i is
    the parity of the register masked by the tap vector of output i.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    reg = (np.arange(1 << code.m, dtype=np.int64) << 1) | np.array([[0], [1]])
    outputs = np.zeros(reg.shape, dtype=np.min_scalar_type((1 << code.n_out) - 1))
    for i, tap in enumerate(code.taps):
        tapmask = sum(bit << j for j, bit in enumerate(tap))
        outputs |= (np.bitwise_count(reg & tapmask) & 1).astype(outputs.dtype) << i
    return Trellis(code=code, L=L, outputs=outputs)


def min_path_costs(trellis: Trellis, costs: np.ndarray, unreached, out=None) -> np.ndarray:
    """Least path cost into every (level, row, state) by one forward
    min-plus pass over costs[level, row, output pattern] ([levels, R,
    2^n_out], level-major: an unbatched call is a batch of R = 1;
    ValueError for any other shape).  Each level adds every branch's cost
    to its source's entry: the branch from state s on input b is the
    register r = 2s + b (see build_trellis), which enters state r mod S,
    so registers r and r + S are the two branches into state r and each
    state keeps the lesser; input-1 branches are blocked from level L on.
    The result [levels + 1, R, S] is at least `unreached` (above every
    path cost) where no path passes.  It is written into out where one is
    given, a C-contiguous array of that shape and costs' dtype (ValueError
    otherwise), so that a caller making many passes fills one table rather
    than faulting in a new one each time.

    Each level computes only the states that paths reach (see the module
    docstring), from the registers that leave reached states: below
    level m only register r enters state r (the source of r + S is not
    yet reached), and from level L on only even registers do.  Every
    other entry is written `unreached`, and no sum on one is formed.

    Up to 256 states the sums gather the source row by each register's
    source and the costs by its output pattern.  Past 256 they gather
    nothing from the source row: the costs, looked up per [input bit,
    source state] into a buffer the pass holds, are added to it by
    broadcasting over the input bit, and state 2h + b keeps the lesser of
    its arrivals from sources h and h + S/2 (registers 2h + b and
    2h + b + S), written straight into the interleaved row.  The module
    docstring gives the measurements behind the split.

    Where costs repeats one row at every level (a zero stride on its
    level axis, as Trellis.dstar's broadcast weights have), every level
    below L maps its row to the next by the same function, so once a
    full-width row (level >= m) equals the one before it, every row up
    to L equals it too: the pass copies it there and goes on from L.  The
    broadcast sums then look their costs up once per pass."""
    nst, m, L = trellis.num_states, trellis.code.m, trellis.L
    rows = costs.shape[1]
    shape = (trellis.levels + 1, rows, nst)
    if costs.shape != (trellis.levels, rows, 1 << trellis.code.n_out):
        raise ValueError(f"costs has shape {costs.shape}, not "
                         f"{(trellis.levels, rows, 1 << trellis.code.n_out)}")
    if out is None:
        table = np.empty(shape, dtype=costs.dtype)
    elif out.shape != shape or out.dtype != costs.dtype or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous {costs.dtype} array of shape {shape}")
    else:
        table = out
    table[0] = unreached
    table[0, :, 0] = 0
    repeats = costs.strides[0] == 0
    gathered = nst <= 256  # fancy-index gathers beat broadcasting on short rows
    if gathered:
        src = np.arange(2 * nst, dtype=np.intp) >> 1
        patterns = trellis.outputs.T.ravel().astype(np.intp)  # by register 2s + b
    else:
        outputs = trellis.outputs.astype(np.intp)
        # [row, input bit, source state]: the cost of each register 2s + b,
        # and its sum from level m on (in place where costs change per level)
        reg = np.empty((rows, 2, nst), dtype=costs.dtype)
        arrivals = np.empty_like(reg) if repeats else reg
    level = 0
    while level < trellis.levels:
        # the registers into the states of level + 1: multiples of 2^j,
        # below 2^(level + 1) in the head and 2S past it
        step = 1 << max(0, level + 1 - L)
        row = table[level + 1]
        if step > 1 or level + 1 < m:
            row[...] = unreached
        if gathered:
            regs = slice(0, 2 << min(level, m), step)
            cand = table[level][:, src[regs]]
            cand += costs[level][:, patterns[regs]]
            if level < m:
                row[:, regs] = cand
            else:
                pairs = cand.reshape(rows, 2, -1)
                np.minimum(pairs[:, 0], pairs[:, 1], out=row[:, ::step])
        else:
            if level == 0 or not repeats:
                # costs is checked above, so no index clips; with the
                # default mode "raise", np.take fills out through a copy
                np.take(costs[level], outputs, axis=1, out=reg, mode="clip")
            # the sources of those registers, the states reached at level:
            # multiples of step / 2 from L on, where only input 0 branches
            sources = slice(0, 1 << min(level, m), max(1, step >> 1))
            inputs = 2 if level < L else 1
            # the sums by [row, input bit, source]: in the head register
            # 2s + b is the state it enters, so they go into a view of the row
            sums = (row[:, :2 << level:step].reshape(rows, -1, inputs).transpose(0, 2, 1)
                    if level < m else arrivals[:, :inputs, sources])
            np.add(table[level][:, None, sources], reg[:, :inputs, sources], out=sums)
            if level >= m:
                # the sources' halves, h and h + S/2, both enter state 2h + b
                halves = sums.reshape(rows, inputs, 2, -1)
                np.minimum(halves[:, :, 0], halves[:, :, 1],
                           out=row[:, ::step].reshape(rows, -1, inputs).transpose(0, 2, 1))
        level += 1
        if repeats and m < level < L and np.array_equal(row, table[level - 1]):
            table[level + 1:L + 1] = row
            level = L
    return table


def min_path_inputs(trellis: Trellis, costs: np.ndarray, table: np.ndarray) -> tuple:
    """A least-cost path into the goal node of every row of a float table
    [levels + 1, R, S] of min_path_costs, traced back in [R]-wide steps:
    into each node the first of its registers s and s + S whose sum gives
    the node's entry, that is the lower sum (the pass added the same two).
    Returns (its L input bits [L, R] as uint8, tied [R], the table entries
    of its nodes [levels + 1, R]), where tied marks the rows in which both
    registers into a node of the path give its entry.

    Steps run on global indices: node (row, s) is row * S + s and its
    register r is row * 2S + r, so a register's source node is its index
    >> 1 and its input bit the index's lowest bit."""
    nst, L, levels = trellis.num_states, trellis.L, trellis.levels
    rows = np.arange(table.shape[1])
    flat = table.reshape(levels + 1, -1)
    flat_costs = np.ascontiguousarray(costs).reshape(levels, -1)
    # the costs entry of every register: its row's patterns, then its output
    at_cost = (rows[:, None] * costs.shape[2] + trellis.outputs.T.ravel()).ravel()
    into = rows * nst + np.array([[0], [nst]])  # node (row, s) + this: its two registers
    cand = np.empty((levels, 2, len(rows)), dtype=table.dtype)
    chosen = np.empty((levels, len(rows)), dtype=np.intp)
    node = rows * nst  # the goal of every row
    for level in reversed(range(levels)):
        reg = node + into
        np.add(flat[level].take(reg >> 1), flat_costs[level].take(at_cost.take(reg)),
               out=cand[level])
        if level >= L:
            cand[level][(reg & 1) == 1] = math.inf
        chosen[level] = np.where(cand[level, 1] < cand[level, 0], reg[1], reg[0])
        node = chosen[level] >> 1
    path = np.empty((levels + 1, len(rows)), dtype=table.dtype)
    path[0] = table[0, :, 0]
    np.minimum(cand[:, 0], cand[:, 1], out=path[1:])
    tied = (cand[:, 0] == cand[:, 1]).any(axis=0)
    return (chosen[:L] & 1).astype(np.uint8), tied, path


def compute_dstar(trellis: Trellis) -> np.ndarray:
    """The d* table of the trellis (Trellis.dstar), built once."""
    return trellis.dstar
