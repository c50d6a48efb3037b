"""Sequential ML decoders with branch-metric accounting, plus brute-force
and dynamic-programming oracles.

Both searches are best-first with FIFO tie-breaking (insertion order),
which makes every decode deterministic for a fixed LLR vector.

Counting conventions.  Extending a tree path below level k evaluates
two branch metrics; extending a trellis node below level L evaluates
2^k of them.  Those are the headline `branch_computations`.  Extensions
in the single-branch tail (tree levels >= k, trellis levels >= L) cost
one metric each and are included only in `branch_computations_total`.
"""

import heapq
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
    Search stops when the popped path ends at level n.
    """
    phi = check_lengths(phi, code.n)
    # per-level differential branch metrics for labels 0 and 1
    opt = (np.abs(phi) - 1.0) ** 2
    offset = float(np.sum(opt))
    bm0 = ((phi - 1.0) ** 2 - opt).tolist()
    bm1 = ((phi + 1.0) ** 2 - opt).tolist()
    colmasks = code.parity_column_masks()
    k, n = code.k, code.n

    heap = [(0.0, 0, 0, 0)]  # (f, insertion seq, level, path bits as int)
    seq = 1
    extensions = 0
    low_extensions = 0
    tail_metrics = 0
    while True:
        f, _, level, bits = heapq.heappop(heap)
        if level == n:
            decoded = np.array([(bits >> j) & 1 for j in range(n)], dtype=np.uint8)
            return DecodeOutcome(decoded=decoded,
                                 branch_computations=2 * low_extensions,
                                 branch_computations_total=2 * low_extensions + tail_metrics,
                                 extensions=extensions,
                                 metric=f + offset)
        extensions += 1
        if extension_limit is not None and extensions > extension_limit:
            raise ExtensionLimitExceeded(f"more than {extension_limit} extensions")
        if level < k:
            low_extensions += 1
            heapq.heappush(heap, (f + bm0[level], seq, level + 1, bits))
            seq += 1
            heapq.heappush(heap, (f + bm1[level], seq, level + 1, bits | (1 << level)))
            seq += 1
        else:
            tail_metrics += 1
            info = bits & ((1 << k) - 1)
            bit = (info & colmasks[level - k]).bit_count() & 1
            heapq.heappush(heap, (f + (bm1[level] if bit else bm0[level]),
                                  seq, level + 1, bits | (bit << level)))
            seq += 1


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


def mlsda_decode(trellis: Trellis, phi, extension_limit: int | None = None) -> DecodeOutcome:
    """Two-stack best-first search over the trellis; exact ML.

    A popped node's (state, level) goes into the closed set and is never
    extended again; successors landing on a closed node are discarded.
    When two open paths merge, the one with the higher metric is
    eliminated (ties keep the incumbent).  Stops when the popped path
    ends at the goal node.
    """
    code = trellis.code
    inc = _metric_table(trellis, phi)
    next_state, outputs = trellis.table_lists()

    goal = trellis.levels << code.m
    closed = set()
    resident = {0: (0.0, 0)}  # (level, state) node key -> (metric, seq)
    heap = [(0.0, 0, 0, 0, 0)]  # (zeta, seq, level, state, info bits)
    seq = 1
    extensions = 0
    low_extensions = 0
    tail_metrics = 0
    branching = 1 << code.k_in

    while heap:
        zeta, entry_seq, level, state, info = heapq.heappop(heap)
        node = (level << code.m) | state
        if node in closed:
            continue
        live = resident.get(node)
        if live is None or live[1] != entry_seq:
            continue  # superseded by a merge
        if node == goal:
            decoded = encode_conv(code, [(info >> t) & 1 for t in range(trellis.L)])
            return DecodeOutcome(decoded=decoded,
                                 branch_computations=branching * low_extensions,
                                 branch_computations_total=(branching * low_extensions
                                                            + tail_metrics),
                                 extensions=extensions,
                                 metric=zeta)
        closed.add(node)
        del resident[node]
        extensions += 1
        if extension_limit is not None and extensions > extension_limit:
            raise ExtensionLimitExceeded(f"more than {extension_limit} extensions")
        if level < trellis.L:
            low_extensions += 1
        else:
            tail_metrics += 1
        for b in trellis.branch_inputs(level):
            ns = next_state[state][b]
            child = ((level + 1) << code.m) | ns
            if child in closed:
                continue
            child_zeta = zeta + inc[level][outputs[state][b]]
            incumbent = resident.get(child)
            if incumbent is not None and incumbent[0] <= child_zeta:
                continue  # merge: keep the incumbent (also on ties)
            resident[child] = (child_zeta, seq)
            heapq.heappush(heap, (child_zeta, seq, level + 1,
                                  ns, info | (b << level)))
            seq += 1
    raise AssertionError("open stack exhausted before reaching the goal")


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
