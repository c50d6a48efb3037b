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
