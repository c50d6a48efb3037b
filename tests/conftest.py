import heapq

import pytest

from seqdec.codes import build_extended_golay, build_extended_qr48, parse_octal_generators
from seqdec.trellis import build_trellis


@pytest.fixture(scope="session")
def golay():
    return build_extended_golay()


@pytest.fixture(scope="session")
def qr48():
    return build_extended_qr48()


@pytest.fixture(scope="session")
def fig_trellis_code():
    """(3,1,2) code with generators 6,5,7 (octal)."""
    return parse_octal_generators(["6", "5", "7"], m=2, name="conv-657")


@pytest.fixture(scope="session")
def fig_trellis(fig_trellis_code):
    return build_trellis(fig_trellis_code, L=5)


@pytest.fixture(scope="session")
def conv_634_564():
    """(2,1,6) code with generators 634,564 (octal)."""
    return parse_octal_generators(["634", "564"], m=6, name="conv-634-564")


def textbook_gda_search(code, bm0: list, bm1: list) -> tuple:
    """The plain priority-first tree search on branch-metric lists (see
    decoders._gda_tables), with no budget: pop the least open path by
    (metric, insertion number) and push every child, label 0 first.  A
    tail bit is read from the codeword encoded from code.rows.

    Returns (branch_computations, branch_computations_total, extensions,
    metric, path bits as an int, the metric of each extended path in
    extension order).
    """
    k, n = code.k, code.n
    heap = [(0.0, 0, 0, 0)]  # (metric, insertion number, level, path bits)
    seq, low, tail, extended = 1, 0, 0, []
    while True:
        f, _, level, bits = heapq.heappop(heap)
        if level == n:
            return 2 * low, 2 * low + tail, low + tail, f, bits, extended
        extended.append(f)
        if level < k:
            low += 1
            labels = (0, 1)
        else:
            tail += 1
            word = 0
            for i, row in enumerate(code.rows):
                if (bits >> i) & 1:
                    word ^= row
            labels = ((word >> level) & 1,)
        for b in labels:
            heapq.heappush(heap, (f + (bm1 if b else bm0)[level], seq, level + 1,
                                  bits | (b << level)))
            seq += 1


@pytest.fixture(scope="session")
def textbook_gda():
    """The reference tree search that the decoder's search must match
    step for step (see textbook_gda_search)."""
    return textbook_gda_search


def textbook_mlsda_search(trellis, inc: list) -> tuple:
    """The plain two-stack trellis search on a metric row (see
    decoders._metric_table), with no budget: pop the least open entry by
    (metric, insertion number), skip it if its node is closed or holds a
    better path, close its node, and push every child, input 0 first,
    whose node is not closed and whose metric beats the node's incumbent
    (ties keep the incumbent).

    Returns (branch_computations, branch_computations_total, extensions,
    metric, information bits as an int).
    """
    next_state, outputs = trellis.table_lists()
    n_out, m = trellis.code.n_out, trellis.code.m
    goal = trellis.levels << m
    closed = set()
    live = {0: 0}  # node -> insertion number of its open entry
    best = {0: 0.0}  # node -> least metric that reached it
    heap = [(0.0, 0, 0, 0, 0)]  # (metric, insertion number, level, state, info bits)
    seq, low, tail = 1, 0, 0
    while True:
        zeta, number, level, state, info = heapq.heappop(heap)
        node = (level << m) | state
        if node in closed or live[node] != number:
            continue
        if node == goal:
            return 2 * low, 2 * low + tail, low + tail, zeta, info
        closed.add(node)
        if level < trellis.L:
            low += 1
        else:
            tail += 1
        for b in trellis.branch_inputs(level):
            ns = next_state[state][b]
            child = ((level + 1) << m) | ns
            child_zeta = zeta + inc[(level << n_out) | outputs[state][b]]
            incumbent = best.get(child)
            if child in closed or (incumbent is not None and incumbent <= child_zeta):
                continue
            best[child], live[child] = child_zeta, seq
            heapq.heappush(heap, (child_zeta, seq, level + 1, ns, info | (b << level)))
            seq += 1


@pytest.fixture(scope="session")
def textbook_mlsda():
    """The reference trellis search that the decoder's search must match
    step for step (see textbook_mlsda_search)."""
    return textbook_mlsda_search
