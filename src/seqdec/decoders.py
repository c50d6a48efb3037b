"""Sequential ML decoders with branch-metric accounting, plus brute-force
and dynamic-programming oracles.

Both searches are best-first with FIFO tie-breaking (insertion order),
which makes every decode deterministic for a fixed LLR vector.  Each
extension hands out insertion numbers to all its children, then expands
the best child (lowest metric, lower number on a tie) in place when its
metric lies strictly below the top of the open stack: a pop would return
exactly that child.  Otherwise the child goes through the stack
(heapreplace), so every tie is settled by the stack's FIFO order.  The
extension order, and with it every count, is that of a loop that pops
each path and pushes every child.

Counting conventions.  Extending a tree path below level k, or a
trellis node below level L, evaluates two branch metrics; those are the
headline `branch_computations`.  Extensions in the single-branch tail
(tree levels >= k, trellis levels >= L) cost one metric each and are
included only in `branch_computations_total`.
"""

import heapq
import sys
from dataclasses import dataclass

import numpy as np

from seqdec.channel import check_lengths, hard_decision
from seqdec.codes import BlockCode, encode_conv
from seqdec.trellis import Trellis


class SizeError(ValueError):
    """Exhaustive enumeration would be infeasible."""


class ExtensionLimitExceeded(RuntimeError):
    """Search exceeded the caller-supplied extension budget."""


@dataclass(frozen=True)
class DecodeOutcome:
    decoded: np.ndarray
    branch_computations: int
    branch_computations_total: int
    extensions: int
    metric: float
    """Metric of the winning path: squared Euclidean distance
    sum (phi_j - (-1)^x_j)^2 for the tree decoder, and the nonnegative
    disagreement metric sum (y_j ^ x_j)|phi_j| for the trellis decoder."""


def gda_decode(code: BlockCode, phi, extension_limit: int | None = None) -> DecodeOutcome:
    """Best-first search over the virtual code tree; exact ML.

    The start path has value 0 and every extension adds the differential
    branch metric (phi_l - (-1)^b)^2 - (|phi_l| - 1)^2; the constant
    offset sum (|phi_j| - 1)^2 cancels in all comparisons, so the
    ordering matches the full squared-distance evaluation function.
    Search stops when the path up for extension ends at level n.  The
    child that agrees with the hard decision adds 0, so a search that
    follows the hard decision stays out of the heap.
    """
    phi = check_lengths(phi, code.n)
    # per-level differential branch metrics for labels 0 and 1
    opt = (np.abs(phi) - 1.0) ** 2
    offset = float(np.sum(opt))
    bm0 = ((phi - 1.0) ** 2 - opt).tolist()
    bm1 = ((phi + 1.0) ** 2 - opt).tolist()
    colmasks = code.parity_column_masks
    k, n = code.k, code.n

    limit = sys.maxsize if extension_limit is None else extension_limit
    heap = []  # open paths (f, insertion seq, level, path bits as int)
    f, level, bits = 0.0, 0, 0  # the path being extended; the start has seq 0
    seq = 1
    extensions = 0
    low_extensions = 0
    tail_metrics = 0
    while True:
        if level == n:
            decoded = np.array([(bits >> j) & 1 for j in range(n)], dtype=np.uint8)
            return DecodeOutcome(decoded=decoded,
                                 branch_computations=2 * low_extensions,
                                 branch_computations_total=2 * low_extensions + tail_metrics,
                                 extensions=extensions,
                                 metric=f + offset)
        extensions += 1
        if extensions > limit:
            raise ExtensionLimitExceeded(f"more than {extension_limit} extensions")
        if level < k:
            low_extensions += 1
            f0 = f + bm0[level]
            f1 = f + bm1[level]
            if f1 < f0:  # the 1-child is best; on a tie the 0-child (lower seq) is
                sibling = (f0, seq, level + 1, bits)
                f, best_seq, bits = f1, seq + 1, bits | (1 << level)
            else:
                sibling = (f1, seq + 1, level + 1, bits | (1 << level))
                f, best_seq = f0, seq
            seq += 2
        else:
            tail_metrics += 1
            info = bits & ((1 << k) - 1)
            bit = (info & colmasks[level - k]).bit_count() & 1
            f += bm1[level] if bit else bm0[level]
            bits |= bit << level
            best_seq = seq
            seq += 1
            sibling = None
        level += 1
        if heap and f >= heap[0][0]:  # not strictly below the top: no dive
            f, _, level, bits = heapq.heapreplace(heap, (f, best_seq, level, bits))
        if sibling is not None:
            heapq.heappush(heap, sibling)


def _metric_table(trellis: Trellis, phi) -> list:
    """Branch metric of every n_out-bit output pattern p at every level,
    as nested lists [level][p] of Python floats: the sum of |phi_j| over
    the positions of the level where p disagrees with the hard decision.
    """
    n_out = trellis.code.n_out
    phi = check_lengths(phi, n_out * trellis.levels)
    y = hard_decision(phi).reshape(-1, n_out)
    a = np.abs(phi).reshape(-1, n_out)
    patterns = (np.arange(1 << n_out)[:, None] >> np.arange(n_out)) & 1
    return ((patterns != y[:, None, :]) * a[:, None, :]).sum(-1).tolist()


_NOT_OPEN = (None, -1)  # resident entry of a node with no open path


def mlsda_decode(trellis: Trellis, phi, extension_limit: int | None = None) -> DecodeOutcome:
    """Two-stack best-first search over the trellis; exact ML.

    A popped node's (state, level) goes into the closed set and is never
    extended again; successors landing on a closed node are discarded.
    When two open paths merge, the one with the higher metric is
    eliminated (ties keep the incumbent).  Stops when the path up for
    extension ends at the goal node.  A stale top entry (closed or
    superseded) does not stop the best child's dive: a child strictly
    below it is below every entry on the stack.
    """
    code = trellis.code
    inc = _metric_table(trellis, phi)
    next_state, outputs = trellis.table_lists()

    m, L = code.m, trellis.L
    goal = trellis.levels << m
    limit = sys.maxsize if extension_limit is None else extension_limit
    closed = set()
    resident = {0: (0.0, 0)}  # (level, state) node key -> (metric, seq)
    heap = []  # open entries (zeta, seq, level, state, info bits)
    zeta, level, state, info = 0.0, 0, 0, 0  # the node being extended
    seq = 1
    extensions = 0
    low_extensions = 0
    tail_metrics = 0

    while True:
        node = (level << m) | state
        if node == goal:
            decoded = encode_conv(code, [(info >> t) & 1 for t in range(L)])
            return DecodeOutcome(decoded=decoded,
                                 branch_computations=2 * low_extensions,
                                 branch_computations_total=2 * low_extensions + tail_metrics,
                                 extensions=extensions,
                                 metric=zeta)
        closed.add(node)
        del resident[node]
        extensions += 1
        if extensions > limit:
            raise ExtensionLimitExceeded(f"more than {extension_limit} extensions")
        if level < L:
            low_extensions += 1
            inputs = (0, 1)
        else:
            tail_metrics += 1
            inputs = (0,)
        best = sibling = None
        for b in inputs:
            ns = next_state[state][b]
            child = ((level + 1) << m) | ns
            if child in closed:
                continue
            child_zeta = zeta + inc[level][outputs[state][b]]
            incumbent = resident.get(child)
            if incumbent is not None and incumbent[0] <= child_zeta:
                continue  # merge: keep the incumbent (also on ties)
            resident[child] = (child_zeta, seq)
            entry = (child_zeta, seq, level + 1, ns, info | (b << level))
            seq += 1
            if best is None:
                best = entry
            elif child_zeta < best[0]:
                best, sibling = entry, best
            else:
                sibling = entry
        dive = best is not None and (not heap or best[0] < heap[0][0])
        if sibling is not None:  # above best, so it cannot be the next pop
            heapq.heappush(heap, sibling)
        if dive:
            zeta, _, level, state, info = best
            continue
        try:  # pop to the first live entry; a closed node has left resident
            entry = heapq.heapreplace(heap, best) if best is not None else heapq.heappop(heap)
            while resident.get((entry[2] << m) | entry[3], _NOT_OPEN)[1] != entry[1]:
                entry = heapq.heappop(heap)
        except IndexError:
            raise AssertionError("open stack exhausted before reaching the goal") from None
        zeta, _, level, state, info = entry


def brute_force_ml_block(code: BlockCode, phi) -> np.ndarray:
    """argmin over all 2^k codewords of sum (phi_j - (-1)^{x_j})^2.

    Equals argmax of sum phi_j (-1)^{x_j}; ties resolve to the
    lexicographically smallest codeword.  Enumeration is chunked, so
    memory stays modest even at k = 24.
    """
    if code.k > 24:
        raise SizeError("brute force limited to k <= 24")
    phi = check_lengths(phi, code.n)
    words = code.codeword_ints()
    shifts = np.arange(code.n, dtype=np.uint64)
    lex_weights = 2.0 ** (code.n - 1 - np.arange(code.n))
    best_corr = -np.inf
    best_lex = np.inf
    best_word = 0
    chunk = 1 << 16
    for start in range(0, len(words), chunk):
        c = words[start:start + chunk]
        bits = ((c[:, None] >> shifts) & np.uint64(1)).astype(np.float64)
        corr = (1.0 - 2.0 * bits) @ phi
        cmax = float(np.max(corr))
        if cmax < best_corr:
            continue
        ties = np.flatnonzero(corr == cmax)
        lex = bits[ties] @ lex_weights  # numeric order = lexicographic bit order
        j = ties[int(np.argmin(lex))]
        if cmax > best_corr or float(lex.min()) < best_lex:
            best_corr = cmax
            best_lex = float(lex.min())
            best_word = int(c[j])
    return np.array([(best_word >> j) & 1 for j in range(code.n)], dtype=np.uint8)


def viterbi_ml(trellis: Trellis, phi) -> np.ndarray:
    """Forward DP minimizing the disagreement metric; ML oracle for the
    trellis decoder."""
    inc = _metric_table(trellis, phi)
    next_state, outputs = trellis.table_lists()
    INF = float("inf")
    metric = {0: (0.0, 0)}  # state -> (metric, info bits so far)
    for level in range(trellis.levels):
        nxt: dict = {}
        for state, (m, info) in metric.items():
            for b in trellis.branch_inputs(level):
                ns = next_state[state][b]
                cand = m + inc[level][outputs[state][b]]
                if cand < nxt.get(ns, (INF, 0))[0]:
                    nxt[ns] = (cand, info | (b << level))
        metric = nxt
    _, info = metric[0]
    return encode_conv(trellis.code, [(info >> t) & 1 for t in range(trellis.L)])
