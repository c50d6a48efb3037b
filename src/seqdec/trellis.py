"""Trellis construction for convolutional codes and the one min-plus pass
over it (d* and the Viterbi path metrics), held as numpy tables.
"""

from dataclasses import dataclass, field

import numpy as np

from seqdec.codes import ConvCode

ABSENT = -1


@dataclass
class Trellis:
    """Unrolled (L+m)-section state graph of a ConvCode.

    Level 0 holds only state 0; inputs are forced to 0 from level L on,
    so level L+m again holds only state 0 (the goal node).  next_state
    and outputs are int64 arrays of shape [S, 2] indexed [state, input
    bit]; outputs are n_out-bit patterns (bit i = output line i, matching
    codeword order).
    """

    code: ConvCode
    L: int
    next_state: np.ndarray
    outputs: np.ndarray
    _dstar: np.ndarray = field(default=None, repr=False)
    _dstar_levels: list = field(default=None, repr=False)
    _lists: tuple = field(default=None, repr=False)
    _output_rows: np.ndarray = field(default=None, repr=False)

    @property
    def levels(self) -> int:
        return self.L + self.code.m

    @property
    def num_states(self) -> int:
        return 1 << self.code.m

    @property
    def reachable(self) -> np.ndarray:
        """[levels + 1, S] mask of the present states: d* not ABSENT."""
        return compute_dstar(self) != ABSENT

    def table_lists(self) -> tuple:
        """(next_state, outputs) as nested lists of Python ints, built
        once, for per-node search loops that index them scalar by scalar."""
        if self._lists is None:
            self._lists = (self.next_state.tolist(), self.outputs.tolist())
        return self._lists

    def output_rows(self) -> np.ndarray:
        """outputs as [2, S] rows indexed [input bit, state], in the
        narrowest unsigned dtype that holds an n_out-bit pattern, built
        once, for passes that gather the outputs of a batch of states."""
        if self._output_rows is None:
            dtype = np.min_scalar_type((1 << self.code.n_out) - 1)
            self._output_rows = np.ascontiguousarray(self.outputs.T, dtype=dtype)
        return self._output_rows


def build_trellis(code: ConvCode, L: int) -> Trellis:
    """Transition tables by array parity.

    The shift register of a branch holds the input bit in bit 0 and the
    state (previous inputs, most recent lowest) above it, so output i is
    the parity of the register masked by the tap vector of output i.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    nst = 1 << code.m
    reg = (np.arange(nst, dtype=np.int64)[:, None] << 1) | np.array([0, 1])
    outputs = np.zeros((nst, 2), dtype=np.int64)
    for i, tap in enumerate(code.taps):
        tapmask = sum(bit << j for j, bit in enumerate(tap))
        outputs |= (np.bitwise_count(reg & tapmask).astype(np.int64) & 1) << i
    return Trellis(code=code, L=L, next_state=reg & (nst - 1), outputs=outputs)


def min_path_costs(trellis: Trellis, costs: np.ndarray, unreached) -> np.ndarray:
    """Least path cost into every (level, state) by one forward min-plus
    pass over costs[level, output pattern] ([levels, 2^n_out]): each level
    gathers the two branches into each state s, the registers s and s + S
    (see build_trellis), input-1 branches blocked from level L on.  The
    result [levels + 1, S] is at least `unreached` (above every path cost)
    where no path passes."""
    nst = trellis.num_states
    reg = np.array([[0], [nst]]) | np.arange(nst)
    src, out, blocked = reg >> 1, trellis.outputs.ravel()[reg], (reg & 1) == 1
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
    out, state, inputs = trellis.outputs.ravel(), 0, []
    for level in reversed(range(trellis.levels)):
        want = table[level + 1, state]
        state, bit = next(divmod(r, 2) for r in (state, state + trellis.num_states)
                          if (level < trellis.L or r % 2 == 0)
                          and table[level, r >> 1] + costs[level, out[r]] == want)
        inputs.append(bit)
    return inputs[::-1][:trellis.L]


def compute_dstar(trellis: Trellis) -> np.ndarray:
    """Minimum Hamming weight over all paths into each (level, state):
    min_path_costs on the output weights, ABSENT for unreachable nodes.

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
