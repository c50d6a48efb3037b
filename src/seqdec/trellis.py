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

The pass's table is laid out state-major: its [levels + 1, R, S] result
is the transpose(0, 2, 1) view of a C-contiguous [levels + 1, S, R]
array, so the R rows of each state lie side by side and each level moves
whole state rows of R entries (with R = 1 the layout is C order).
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
        no path enters.  The pass writes its unreached value straight into
        those, by the register rule the states from 2^l up at a head level
        l < m and those off the multiples of 2^j at tail level L + j (see
        the module docstring), and forms no sum on one, so it is given
        ABSENT itself and no entry is searched for it.

        The table is int32, which holds every path weight (at most the
        codeword length n) and ABSENT alike."""
        weight = np.bitwise_count(np.arange(1 << self.code.n_out)).astype(np.int32)
        table = min_path_costs(self, np.broadcast_to(weight, (self.levels, 1, weight.size)),
                               ABSENT)[:, 0]
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
    The result [levels + 1, R, S] is `unreached` where no path passes;
    no sum on such an entry is formed (see below), so any value serves,
    one above every path cost or Trellis.dstar's ABSENT alike.

    The table is laid out state-major: it is the transpose(0, 2, 1) view
    of a C-contiguous [levels + 1, S, R] array, so each state's R rows
    are contiguous.  It is written into out where one is given, an array
    of that shape and costs' dtype laid out that way (ValueError
    otherwise), so that a caller making many passes fills one table
    rather than faulting in a new one each time.  costs is read in any
    layout, fastest where its patterns' rows are contiguous
    (costs.transpose(0, 2, 1) C-contiguous).

    Each level computes only the states that paths reach (see the module
    docstring), from the registers that leave reached states: below
    level m only register r enters state r (the source of r + S is not
    yet reached), and from level L on only even registers do.  Every
    other entry is written `unreached`, and no sum on one is formed.

    The sums gather nothing from the source rows: the cost rows, looked
    up per [input bit, source state] into a buffer the pass holds, are
    added to them by broadcasting over the input bit, and state 2h + b
    keeps the lesser of its arrivals from sources h and h + S/2
    (registers 2h + b and 2h + b + S), written straight into the
    interleaved rows.  With memory 0 both inputs enter the one state.

    Where costs repeats one row at every level (a zero stride on its
    level axis, as Trellis.dstar's broadcast weights have), every level
    below L maps its row to the next by the same function, so once a
    full-width row (level >= m) equals the one before it, every row up
    to L equals it too: the pass copies it there and goes on from L.  The
    sums then look their costs up once per pass."""
    nst, m, L = trellis.num_states, trellis.code.m, trellis.L
    rows = costs.shape[1]
    shape = (trellis.levels + 1, rows, nst)
    if costs.shape != (trellis.levels, rows, 1 << trellis.code.n_out):
        raise ValueError(f"costs has shape {costs.shape}, not "
                         f"{(trellis.levels, rows, 1 << trellis.code.n_out)}")
    if out is None:
        table = np.empty((shape[0], nst, rows), dtype=costs.dtype).transpose(0, 2, 1)
    elif (out.shape != shape or out.dtype != costs.dtype
          or not out.transpose(0, 2, 1).flags.c_contiguous):
        raise ValueError(f"out must be a state-major {costs.dtype} array of shape {shape}")
    else:
        table = out
    # the pass runs on [state, row] and [pattern, row] views
    states, patterns_by_row = table.transpose(0, 2, 1), costs.transpose(0, 2, 1)
    states[0] = unreached
    states[0, 0] = 0
    repeats = costs.strides[0] == 0
    outputs = trellis.outputs.astype(np.intp)
    # [input bit, source state, row]: the cost of each register 2s + b,
    # and its sum from level m on (in place where costs change per level)
    reg = np.empty((2, nst, rows), dtype=costs.dtype)
    arrivals = np.empty_like(reg) if repeats else reg
    level = 0
    while level < trellis.levels:
        # the registers into the states of level + 1: multiples of 2^j,
        # below 2^(level + 1) in the head and 2S past it
        step = 1 << max(0, level + 1 - L)
        row = states[level + 1]
        if step > 1 or level + 1 < m:
            row[...] = unreached
        if level == 0 or not repeats:
            # the indices are in range by construction; with the default
            # mode "raise", np.take fills out through a copy
            np.take(patterns_by_row[level], outputs, axis=0, out=reg, mode="clip")
        # the sources of those registers, the states reached at level:
        # multiples of step / 2 from L on, where only input 0 branches
        sources = slice(0, 1 << min(level, m), max(1, step >> 1))
        inputs = 2 if level < L else 1
        # the sums by [input bit, source, row]: in the head register
        # 2s + b is the state it enters, so they go into a view of the rows
        sums = (row[:2 << level:step].reshape(-1, inputs, rows).transpose(1, 0, 2)
                if level < m else arrivals[:inputs, sources])
        np.add(states[level][None, sources], reg[:inputs, sources], out=sums)
        if m == 0:  # one state, which both inputs enter
            np.minimum.reduce(sums, axis=0, out=row)
        elif level >= m:
            # the sources' halves, h and h + S/2, both enter state 2h + b
            halves = sums.reshape(inputs, 2, -1, rows)
            np.minimum(halves[:, 0], halves[:, 1],
                       out=row[::step].reshape(-1, inputs, rows).transpose(1, 0, 2))
        level += 1
        if repeats and m < level < L and np.array_equal(row, states[level - 1]):
            states[level + 1:L + 1] = row
            level = L
    return table


def _level_blocks(a: np.ndarray) -> np.ndarray:
    """a [levels, R, W] as a [levels, W R] array whose level l holds a[l]
    state-major: entry (row, j) of level l is at j R + row.  The layout
    min_path_costs fills, and reads fastest, is viewed as it is; any other
    is copied into it."""
    return np.ascontiguousarray(a.transpose(0, 2, 1)).reshape(len(a), -1)


def min_path_inputs(trellis: Trellis, costs: np.ndarray, table: np.ndarray) -> tuple:
    """A least-cost path into the goal node of every row of a float table
    [levels + 1, R, S] of min_path_costs, traced back in [R]-wide steps:
    into each node the first of its registers s and s + S whose sum gives
    the node's entry, that is the lower sum (the pass added the same two).
    Returns (its L input bits [L, R] as uint8, tied [R], the table entries
    of its nodes [levels + 1, R]), where tied marks the rows in which both
    registers into a node of the path give its entry.

    Each step reads the table and costs state-major (see _level_blocks): a
    register r = 2s + b of a row sums the entry of its source s and the
    cost of its output."""
    nst, L, levels = trellis.num_states, trellis.L, trellis.levels
    rows = np.arange(table.shape[1])
    flat, flat_costs = _level_blocks(table), _level_blocks(costs)
    # by register r = 2s + b: the offsets of the rows of its source s and
    # of its output
    source_at = (np.arange(2 * nst) >> 1) * len(rows)
    cost_at = trellis.outputs.T.ravel().astype(np.intp) * len(rows)
    into = np.array([[0], [nst]])  # state s + this: its two registers
    cand = np.empty((levels, 2, len(rows)), dtype=table.dtype)
    chosen = np.empty((levels, len(rows)), dtype=np.intp)
    node = np.zeros(len(rows), dtype=np.intp)  # the goal of every row
    for level in reversed(range(levels)):
        reg = node + into
        np.add(flat[level].take(source_at.take(reg) + rows),
               flat_costs[level].take(cost_at.take(reg) + rows), out=cand[level])
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
