"""Trellis construction for convolutional codes, held as one transition
table of branch outputs, and the one min-plus pass over it (d* and the
Viterbi path metrics).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from seqdec.codes import ConvCode

ABSENT = -1


@dataclass
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
    _dstar: np.ndarray = field(default=None, init=False, repr=False)
    _dstar_levels: list = field(default=None, init=False, repr=False)

    @property
    def levels(self) -> int:
        return self.L + self.code.m

    @property
    def num_states(self) -> int:
        return 1 << self.code.m

    @cached_property
    def outputs_by_state(self) -> list:
        """outputs as a per-state list of (out0, out1) pairs of Python
        ints, built once, for search loops that index it scalar by scalar."""
        return self.outputs.T.tolist()


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


def min_path_costs(trellis: Trellis, costs: np.ndarray, unreached) -> np.ndarray:
    """Least path cost into every (level, row, state) by one forward
    min-plus pass over costs[level, row, output pattern] ([levels, R,
    2^n_out], level-major: an unbatched call is a batch of R = 1).  Each
    level adds every branch's cost to its source's entry: the branch from
    state s on input b is the register r = 2s + b (see build_trellis),
    which enters state r mod S, so the first S registers hold one branch
    into each state and the last S the other, and each state keeps the
    lesser; input-1 branches are blocked from level L on.  The result
    [levels + 1, R, S] is at least `unreached` (above every path cost)
    where no path passes."""
    nst = trellis.num_states
    src = np.arange(2 * nst, dtype=np.intp) >> 1  # np.take indexes by intp
    out = trellis.outputs.T.ravel().astype(np.intp)  # by register 2s + b
    table = np.full((trellis.levels + 1, costs.shape[1], nst), unreached, dtype=costs.dtype)
    table[0, :, 0] = 0
    # fancy indexing gathers short rows faster than np.take, long ones slower
    gather = (lambda a, idx: a[:, idx]) if nst <= 256 else partial(np.take, axis=1)
    for level in range(trellis.levels):
        cand = gather(table[level], src)  # [R, 2S]
        cand += gather(costs[level], out)
        if level >= trellis.L:
            cand[:, 1::2] = unreached
        pairs = cand.reshape(-1, 2, nst)
        np.minimum(pairs[:, 0], pairs[:, 1], out=table[level + 1])
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
    """Minimum Hamming weight over all paths into each (level, state):
    min_path_costs on the output weights, ABSENT for nodes no path enters.

    The table is int32, which holds every path weight (at most n_out *
    levels) and every sum on an unreached node (less than twice the
    sentinel n_out * levels + 1) alike.  The table is cached on the trellis.
    """
    if trellis._dstar is not None:
        return trellis._dstar
    big = trellis.code.n_out * trellis.levels + 1
    weight = np.bitwise_count(np.arange(1 << trellis.code.n_out)).astype(np.int32)
    table = min_path_costs(trellis, np.broadcast_to(weight, (trellis.levels, 1, weight.size)),
                           big)[:, 0]
    table[table >= big] = ABSENT
    trellis._dstar = table
    return table


def dstar_levels(trellis: Trellis) -> list:
    """(row, distinct) for each level l < L, the levels whose nodes
    branch: row holds the d* of the states present at level l in
    ascending state order (the compute_dstar row itself where every
    state is present), distinct its distinct values in ascending order.
    Built once and cached on the trellis."""
    if trellis._dstar_levels is None:
        levels = []
        for row in compute_dstar(trellis)[:trellis.L]:
            present = row != ABSENT
            if not present.all():
                row = row[present]
            levels.append((row, np.flatnonzero(np.bincount(row))))
        trellis._dstar_levels = levels
    return trellis._dstar_levels
