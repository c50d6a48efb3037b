"""Trellis construction for convolutional codes and per-node minimum path
weights, held as numpy tables and computed one level at a time.
"""

from dataclasses import dataclass, field

import numpy as np

from seqdec.codes import ConvCode

ABSENT = -1


@dataclass
class Trellis:
    """Unrolled (L+m)-section state graph of a ConvCode.

    Level 0 holds only state 0; inputs are forced to 0 from level L on,
    so level L+m again holds only state 0 (the goal node).  next_state,
    outputs and output_weight are int64 arrays of shape [S, 2] indexed
    [state, input bit]; outputs are n_out-bit patterns (bit i = output
    line i, matching codeword order).  reachable is a boolean mask of
    shape [levels + 1, S] marking the states present at each level.
    """

    code: ConvCode
    L: int
    next_state: np.ndarray
    outputs: np.ndarray
    output_weight: np.ndarray
    reachable: np.ndarray
    _dstar: np.ndarray = field(default=None, repr=False)
    _dstar_levels: list = field(default=None, repr=False)
    _lists: tuple = field(default=None, repr=False)

    @property
    def levels(self) -> int:
        return self.L + self.code.m

    @property
    def num_states(self) -> int:
        return 1 << self.code.m

    def branch_inputs(self, level: int) -> tuple:
        return (0, 1) if level < self.L else (0,)

    def table_lists(self) -> tuple:
        """(next_state, outputs) as nested lists of Python ints, built
        once, for per-node search loops that index them scalar by scalar."""
        if self._lists is None:
            self._lists = (self.next_state.tolist(), self.outputs.tolist())
        return self._lists


def build_trellis(code: ConvCode, L: int) -> Trellis:
    """Transition tables by array parity, then forward reachability from
    state 0 with terminated tail levels.

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
    next_state = reg & (nst - 1)
    output_weight = np.bitwise_count(outputs).astype(np.int64)

    trellis = Trellis(code=code, L=L, next_state=next_state, outputs=outputs,
                      output_weight=output_weight,
                      reachable=np.zeros((L + code.m + 1, nst), dtype=bool))
    trellis.reachable[0, 0] = True
    for level in range(trellis.levels):
        present = np.flatnonzero(trellis.reachable[level])
        for b in trellis.branch_inputs(level):
            trellis.reachable[level + 1, next_state[present, b]] = True
    assert np.array_equal(np.flatnonzero(trellis.reachable[-1]), [0])
    return trellis


def compute_dstar(trellis: Trellis) -> np.ndarray:
    """Minimum Hamming weight over all paths into each (level, state).

    One min-plus step per level and input bit; entry [level, state] is
    ABSENT for unreachable nodes.  The table is int32, which holds every
    path weight (at most n_out * levels) and the unreached-node sentinel
    (n_out * levels + 1) alike.  The table is cached on the trellis.
    """
    if trellis._dstar is not None:
        return trellis._dstar
    big = trellis.code.n_out * trellis.levels + 1
    table = np.full((trellis.levels + 1, trellis.num_states), big, dtype=np.int32)
    table[0, 0] = 0
    weight = trellis.output_weight.astype(np.int32)  # ufunc.at is fast on one dtype
    for level in range(trellis.levels):
        present = np.flatnonzero(trellis.reachable[level])
        base = table[level, present]
        for b in trellis.branch_inputs(level):
            np.minimum.at(table[level + 1], trellis.next_state[present, b],
                          base + weight[present, b])
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
        dstar = compute_dstar(trellis)
        levels = []
        for level in range(trellis.L):
            row, mask = dstar[level], trellis.reachable[level]
            if not mask.all():
                row = row[mask]
            levels.append((row, np.flatnonzero(np.bincount(row))))
        trellis._dstar_levels = levels
    return trellis._dstar_levels
