"""Trellis construction for convolutional codes, held as one transition
table of branch outputs, and the one min-plus pass over it (d* and the
Viterbi path metrics).
"""

from dataclasses import dataclass, field
from functools import cached_property

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
    """Least path cost into every (level, state) by one forward min-plus
    pass over costs[level, output pattern] ([levels, 2^n_out]): each level
    gathers the two branches into each state s, the registers s and s + S
    (see build_trellis), input-1 branches blocked from level L on.  The
    result [levels + 1, S] is at least `unreached` (above every path cost)
    where no path passes."""
    nst = trellis.num_states
    reg = np.array([[0], [nst]]) | np.arange(nst)
    src, blocked = reg >> 1, (reg & 1) == 1
    out = trellis.outputs[reg & 1, src].astype(np.intp)  # np.take indexes by intp
    table = np.full((trellis.levels + 1, nst), unreached, dtype=costs.dtype)
    table[0, 0] = 0
    for level in range(trellis.levels):
        cand = np.take(table[level], src)
        cand += np.take(costs[level], out)
        if level >= trellis.L:
            cand[blocked] = unreached
        np.minimum(cand[0], cand[1], out=table[level + 1])
    return table


def min_path_inputs(trellis: Trellis, costs: np.ndarray, table: np.ndarray) -> list:
    """The L input bits of a least-cost path into the goal node, traced
    back: at each level the first branch whose sum gives the node's entry."""
    out, state, inputs = trellis.outputs, 0, []
    for level in reversed(range(trellis.levels)):
        want = table[level + 1, state]
        state, bit = next(divmod(r, 2) for r in (state, state + trellis.num_states)
                          if (level < trellis.L or r % 2 == 0)
                          and table[level, r >> 1] + costs[level, out[r & 1, r >> 1]] == want)
        inputs.append(bit)
    return inputs[::-1][:trellis.L]


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
    table = min_path_costs(trellis, np.broadcast_to(weight, (trellis.levels, weight.size)), big)
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
