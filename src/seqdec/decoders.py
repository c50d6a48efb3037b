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

The tree search goes further and takes many extensions in one step
where that loop's order is certain.  A path strictly below the top of
the stack whose every sibling to come would lie strictly above it dives
along the hard decisions to level k at once; the dive's siblings form
one fan, of which only the least member is on the stack.  In the
single-child tail a path steps level by level, with its parity bits
read from per-byte tables, until its metric reaches the top.  Any tie
falls back to one extension through the stack.

The trellis search keeps each node's state (unseen, open with one path,
or closed) in one node table, so a child costs one lookup.  It dives
too, over fresh levels: above the deepest level that holds a node of
the table, no lookup can find anything, so a node there follows its
best child level by level with no table work and no push, while that
child lies strictly below the top of the stack and the dive's own
siblings.  A dive that stops short of the goal writes once what single
steps would have written.

Each search checks its extension budget once per turn of its loop, before
the goal test, so it raises exactly when its final count exceeds the budget.

Counting a heavy tree trial.  Branch metrics are nonnegative, so the tree
search extends a path only if its metric f is at most the winner's,
zeta*; its counts are those of the tree nodes with f <= zeta*, which
numpy can count level by level without a stack.  Every tree decode
(gda_decode and the harness's trials, through _gda_tree) runs the search
first, under SEARCH_BUDGET extensions; most trials end there.  Past it,
the path the search stopped at gives a lower bound on zeta*, and
threshold sweeps take over (_gda_count): rounds at a threshold T growing
1.5x keep the prefixes with f <= T, adding each path's metrics in the
search's own order, so every f is bit-equal, until a leaf lies at or
below T; the least such leaf is the winner.  Three rules keep the count
exact.  A node other than the winner's prefixes at exactly zeta* (two
winning leaves, or a tie off the winner's path) would be settled by the
stack's insertion order, so that trial is searched again without a
budget.  The trial overflows exactly when its count exceeds the caller's
budget, and a round that finds no leaf but more nodes than the budget
proves it early.  No sweep array holds more than SWEEP_BLOCK nodes: the
sweeps run depth first over blocks of paths.

Settling first dives per batch.  The trellis search starts with a dive
from the root, and at high SNR that dive mostly runs straight to the
goal; its result is then fixed: L + m extensions, L of them branching,
and the dive's metric and inputs.  The harness decodes its trellis
trials a batch at a time through _mlsda_batch, which follows the first
dive of every row at once, one level per step of [B]-wide numpy
operations with the dive's own rules and float adds (_first_dives), and
settles each row whose dive reaches the goal with no Python list and no
search.  Every other row runs the search.  mlsda_decode keeps the search
alone: for a batch of one, a dozen numpy calls per level cost more than
the dive.

Counting conventions.  Extending a tree path below level k, or a
trellis node below level L, evaluates two branch metrics; those are the
headline `branch_computations`.  Extensions in the single-branch tail
(tree levels >= k, trellis levels >= L) cost one metric each and are
included only in `branch_computations_total`.
"""

import heapq
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from seqdec.channel import NonFiniteLLR, check_lengths, hard_decision
from seqdec.codes import BlockCode, encode_conv
from seqdec.trellis import Trellis, min_path_costs, min_path_inputs


class SizeError(ValueError):
    """Exhaustive enumeration would be infeasible."""


class ExtensionLimitExceeded(RuntimeError):
    """Search exceeded the caller-supplied extension budget.

    metric: the value of the path the tree search was about to extend
    when it stopped, which is at most the winning path's (None where
    not known)."""

    def __init__(self, message: str, metric: float | None = None):
        super().__init__(message)
        self.metric = metric


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


def _gda_tables(phi) -> tuple:
    """(offset [...], bm0 [..., n], bm1 [..., n]) of the tree search for
    LLRs [..., n]: the differential branch metrics of labels 0 and 1 at
    each level, and the offset (see gda_decode).

    Raises NonFiniteLLR unless every |phi| < 2^53: at or above it phi - 1
    and phi + 1 round to one float and the level's sign is lost, and from
    about 1.3e154 the squares overflow."""
    a = np.abs(phi)
    if not (a < 2.0 ** 53).all():
        raise NonFiniteLLR("LLR magnitudes of 2^53 or more: the squared metrics "
                           "lose their sign or overflow")
    opt = (a - 1.0) ** 2
    return np.sum(opt, axis=-1), (phi - 1.0) ** 2 - opt, (phi + 1.0) ** 2 - opt


def gda_decode(code: BlockCode, phi, extension_limit: int | None = None) -> DecodeOutcome:
    """Best-first search over the virtual code tree; exact ML.

    The start path has value 0 and every extension adds the differential
    branch metric (phi_l - (-1)^b)^2 - (|phi_l| - 1)^2; the constant
    offset sum (|phi_j| - 1)^2 cancels in all comparisons, so the
    ordering matches the full squared-distance evaluation function.
    Search stops when the path up for extension ends at level n.  The
    child that agrees with the hard decision adds exactly 0.0 (the
    difference of two equal squares), so a path strictly below the top of
    the heap, whose disagreeing children below level k all add enough to
    exceed it, follows the hard decisions to level k in one step.  Its
    siblings enter the heap one at a time, in the order a pop takes them.
    A decode that outgrows SEARCH_BUDGET extensions is counted in numpy
    (see the module docstring), with the same result.
    """
    offset, bm0, bm1 = _gda_tables(check_lengths(phi, code.n))
    *counts, f, bits = _gda_tree(code, bm0.tolist(), bm1.tolist(), extension_limit)
    decoded = np.array([(bits >> j) & 1 for j in range(code.n)], dtype=np.uint8)
    return DecodeOutcome(decoded, *counts, metric=f + float(offset))


def _gda_search(code: BlockCode, bm0: list, bm1: list, extension_limit) -> tuple:
    """The tree search on prebuilt branch-metric lists (see _gda_tables).

    Returns (branch_computations, branch_computations_total, extensions,
    path value, path bits as an int) of the path that reached level n.
    """
    heappush, heapreplace = heapq.heappush, heapq.heapreplace
    k, n = code.k, code.n
    parity_tables = code.parity_tables
    limit = sys.maxsize if extension_limit is None else extension_limit
    # c[j]: metric of the child that disagrees with the hard decision at
    # level j < k (the other adds exactly 0.0); 0.0 where the children tie
    # or a square overflowed, which stops every whole dive across j
    c = [x if x > 0.0 else 0.0 for x in map(operator.add, bm0[:k], bm1[:k])]
    hard = sum(1 << j for j in range(k) if bm1[j] < bm0[j])
    orders = [None] * k  # orders[l]: levels l..k-1 by (c[j], j), built on first use
    heap = []  # open entries (f, insertion seq, level, path bits as int, fan or None)
    # A fan [f, base, dive bits, orders[l], k - l, position] holds the k - l
    # siblings of a whole dive from level l with metric f.  Member j is
    # (f + c[j], base + 2j - hard bit j, j + 1, the dive's bits below level
    # j + 1 with bit j flipped).  Only the member at position is on the
    # heap, and only while strictly below the next member.
    fan = None  # a fan whose member at position goes on the heap next

    # The start path has insertion number 0 and each extension numbers its
    # children in turn, so the next number is 1 + extensions + low_extensions.
    f, level, bits = 0.0, 0, 0  # the path being extended
    extensions = 0
    low_extensions = 0
    while True:
        if extensions > limit:
            raise ExtensionLimitExceeded(f"more than {extension_limit} extensions", f)
        if fan is not None:  # put the fan's next member on the heap
            fan_f, base, dive_bits, order, size, pos = fan
            j = order[pos]
            metric = fan_f + c[j]
            pos += 1
            if pos < size and fan_f + c[order[pos]] == metric:
                for j in order[pos - 1:]:  # a tie: every member left goes on plain
                    heappush(heap, (fan_f + c[j], base + 2 * j - ((hard >> j) & 1), j + 1,
                                    (dive_bits ^ (1 << j)) & ((2 << j) - 1), None))
            else:
                fan[5] = pos
                heappush(heap, (metric, base + 2 * j - ((hard >> j) & 1), j + 1,
                                (dive_bits ^ (1 << j)) & ((2 << j) - 1),
                                fan if pos < size else None))
            fan = None
        if level == n:
            return 2 * low_extensions, low_extensions + extensions, extensions, f, bits
        if level >= k:  # whole tail: one step per level while below the top
            if level == k:
                info, parity = bits, 0
                for table in parity_tables:
                    parity ^= table[info & 0xFF]
                    info >>= 8
                bits |= parity
            top = heap[0][0] if heap else math.nan  # nan: no open path stops it
            first = level
            while True:
                f += bm1[level] if (bits >> level) & 1 else bm0[level]
                level += 1
                if level == n or f >= top:
                    break
            extensions += level - first
            if not f >= top:
                continue  # at level n, below every open path
            entry = heapreplace(heap, (f, extensions + low_extensions, level, bits, None))
        else:
            order = None
            if not heap or f < heap[0][0]:
                order = orders[level]
                if order is None:
                    order = orders[level] = sorted(range(level, k), key=c.__getitem__)
            if order is not None and f + c[order[0]] > f:  # whole dive to level k
                steps = k - level
                extensions += steps
                low_extensions += steps
                bits |= hard & ((1 << k) - (1 << level))
                fan = [f, extensions + low_extensions + 2 - 2 * k, bits, order, steps, 0]
                level = k
                continue
            extensions += 1  # one extension, as a plain loop takes it
            low_extensions += 1
            f0 = f + bm0[level]
            f1 = f + bm1[level]
            seq = extensions + low_extensions - 1  # the 0-child's number
            if f1 < f0:  # the 1-child is best; on a tie the 0-child (lower seq) is
                sibling = (f0, seq, level + 1, bits, None)
                f, best_seq, bits = f1, seq + 1, bits | (1 << level)
            else:
                sibling = (f1, seq + 1, level + 1, bits | (1 << level), None)
                f, best_seq = f0, seq
            level += 1
            if not (heap and f >= heap[0][0]):  # strictly below the top: dive
                heappush(heap, sibling)
                continue
            entry = heapreplace(heap, (f, best_seq, level, bits, None))
            heappush(heap, sibling)
        f, _, level, bits, fan = entry


SEARCH_BUDGET = 2000  # extensions the tree search takes before the count takes over
SWEEP_BLOCK = 1 << 14  # the most nodes an array of the count holds


def _gda_tree(code: BlockCode, bm0: list, bm1: list, extension_limit) -> tuple:
    """The tree search's result on branch-metric lists, as _gda_search
    returns it: the search itself for up to SEARCH_BUDGET extensions,
    and past them the count (_gda_count) from the metric the search
    stopped at.  The count holds information bits in floats and path
    bits in 64-bit words, so larger codes are searched only."""
    budget = extension_limit
    if code.k <= 53 and code.n <= 64 and (budget is None or budget > SEARCH_BUDGET):
        budget = SEARCH_BUDGET
    try:
        return _gda_search(code, bm0, bm1, budget)
    except ExtensionLimitExceeded as stop:
        if budget == extension_limit:
            raise
        return _gda_count(code, bm0, bm1, extension_limit, stop.metric)


def _gda_count(code: BlockCode, bm0: list, bm1: list, extension_limit, bound: float) -> tuple:
    """The tree search's result (see _gda_search) from threshold sweeps,
    given a lower bound on the winning path's metric zeta*.

    The search extends every path below level n with f < zeta*, and
    those with f == zeta* that it pops before the winner.  When no node
    but the winner's prefixes has f == zeta*, it pops all of those, so
    its counts are those of the nodes with f <= zeta*.  Rounds at
    thresholds T, from 1.5 * bound up 1.5x a round but never above the
    hard-decision leaf's metric, find zeta*, the least leaf metric; a
    round that finds no leaf but more than extension_limit nodes proves
    the overflow.  A tie with a node off the winner's path reruns the
    search.

    Every node below level k has a descendant at level k with the same
    f (hard-decision children add 0.0), so a sweep keeps only the level-k
    nodes: one whose last departure from the hard decision is at level
    j - 1 stands for its k - j prefixes at levels j..k-1.  A round keeps
    the metrics it finds while they fit in a block, and the count at
    zeta* reads them; otherwise a last sweep at zeta* counts.
    """
    k, n = code.k, code.n
    limit = sys.maxsize if extension_limit is None else extension_limit
    hard = sum(1 << j for j in range(k) if bm1[j] < bm0[j])
    flip = [bm0[j] if (hard >> j) & 1 else bm1[j] for j in range(k)]  # the other child's metric
    powers = [float(1 << j) for j in range(k)]
    step = np.array([flip, powers]).T.reshape(k, 2, 1)  # what leaving the hard decision adds
    tables = code.parity_arrays
    tail_bm = np.array([bm0[k:], bm1[k:]]).T.ravel()  # entry 2 (level - k) + bit
    shifts = np.arange(k, n, dtype=np.uint64)[:, None]
    offsets = np.arange(0, 2 * (n - k), 2, dtype=np.uint64)[:, None]
    half = SWEEP_BLOCK // 2

    def level_k(threshold: float):
        """Chunks [2, m] of the level-k nodes with f <= threshold, depth
        first, none longer than SWEEP_BLOCK: row 0 holds f, and row 1 the
        flips, whose bit j is set where the path leaves the hard decision
        at level j."""
        stack = [(0, np.zeros((2, 1)))]
        while stack:
            level, nodes = stack.pop()
            least = float(nodes[0].min())  # hard children keep f, so no level raises it
            for j in range(level, k):
                if least + flip[j] <= threshold:
                    if nodes.shape[1] > half:  # the children must fit in one block
                        stack.append((j, nodes[:, half:]))
                        nodes = nodes[:, :half]
                    children = nodes.take((nodes[0] + flip[j] <= threshold).nonzero()[0], axis=1)
                    children += step[j]
                    nodes = np.concatenate((nodes, children), axis=1)
            yield nodes

    def path_bits(flips) -> np.ndarray:
        """The codeword bits, information then parity, of the paths with
        these flips."""
        info = flips.astype(np.uint64) ^ np.uint64(hard)
        word = info
        for t, table in enumerate(tables):
            word = word ^ table[(info >> np.uint64(8 * t)) & np.uint64(0xFF)]
        return word

    def tails(nodes, threshold: float) -> tuple:
        """(nodes at levels k..n-1 with f <= threshold below the level-k
        nodes [2, m], nodes at levels k..n with f == threshold, the
        metrics of the former while they fit in a block or else None,
        the leaf metrics <= threshold, those leaves' path bits).  The
        metrics are the search's sequential adds, taken for as many
        levels at a time as fit a block."""
        count = ties = 0
        values, leaves, words = [np.empty(0)], [], []
        for first in range(0, nodes.shape[1], half):
            f = nodes[0, first:first + half]
            word = path_bits(nodes[1, first:first + half])
            level = k
            while level < n and len(f):
                width = min(n - level, max(1, SWEEP_BLOCK // len(f) - 1))
                levels = slice(level - k, level - k + width)
                rows = np.empty((width + 1, len(f)))
                rows[0] = f
                tail_bm.take(((word >> shifts[levels]) & np.uint64(1)) + offsets[levels],
                             out=rows[1:])
                for i in range(width):
                    np.add(rows[i], rows[i + 1], out=rows[i + 1])
                below = rows[:width][rows[:width] <= threshold]
                count += len(below)
                ties += int(np.count_nonzero(below == threshold))
                if values is not None:
                    values = values + [below] if count <= SWEEP_BLOCK else None
                alive = (rows[width] <= threshold).nonzero()[0]
                f, word = rows[width].take(alive), word.take(alive)
                level += width
            ties += int(np.count_nonzero(f == threshold))
            leaves.append(f)
            words.append(word)
        if values is not None:
            values = np.concatenate(values)
        return count, ties, values, np.concatenate(leaves), np.concatenate(words)

    def low_count(flips) -> int:
        """Nodes below level k that the level-k nodes with these flips
        stand for: at level j, those with no flip at j or above."""
        return int(np.searchsorted(np.sort(flips), powers).sum())

    # the hard-decision leaf's metric: zeta* lies at or below it
    word, hard_leaf = int(path_bits(np.zeros(1))[0]), 0.0
    for j in range(k, n):
        hard_leaf += bm1[j] if (word >> j) & 1 else bm0[j]
    threshold = min(1.5 * bound, hard_leaf)
    while True:
        found, zeta, bits = 0, math.inf, None
        kept, held = [], 0  # what the count at zeta* needs, while it fits in a block
        for nodes in level_k(threshold):
            tail, _, values, leaves, words = tails(nodes, threshold)
            found += low_count(nodes[1]) + tail
            if len(leaves) and leaves.min() < zeta:
                i = int(leaves.argmin())
                zeta, bits = float(leaves[i]), int(words[i])
            if kept is not None and values is not None:
                nodes = nodes.take((nodes[0] <= zeta).nonzero()[0], axis=1)
                kept.append((nodes, values[values <= zeta], leaves[leaves <= zeta]))
                held += nodes.shape[1] + len(kept[-1][1])
            if values is None or held > SWEEP_BLOCK:
                kept = None
        if bits is not None:
            break
        if found > limit:  # every node found lies below zeta*
            raise ExtensionLimitExceeded(f"more than {extension_limit} extensions", threshold)
        threshold = min(1.5 * threshold if threshold > 0.0 else hard_leaf, hard_leaf)
    if kept is None:  # sweep again at zeta*
        counts = ((low_count(nodes[1]), *tails(nodes, zeta)[:2]) for nodes in level_k(zeta))
    else:
        counts = ((low_count(nodes[1, nodes[0] <= zeta]), int(np.count_nonzero(values <= zeta)),
                   int(np.count_nonzero(values == zeta)) + int(np.count_nonzero(leaves == zeta)))
                  for nodes, values, leaves in kept)
    low, tail, ties = map(sum, zip(*counts))
    f, own = 0.0, 0  # the winner's own nodes at levels k..n with f == zeta*
    for j in range(n):
        f += bm1[j] if (bits >> j) & 1 else bm0[j]
        own += j + 1 >= k and f == zeta
    if ties != own:  # a node off the winner's path ties with it
        return _gda_search(code, bm0, bm1, extension_limit)
    if low + tail > limit:
        raise ExtensionLimitExceeded(f"more than {extension_limit} extensions", zeta)
    return 2 * low, 2 * low + tail, low + tail, zeta, bits


def _metric_table(trellis: Trellis, phi) -> np.ndarray:
    """Branch metric of every n_out-bit output pattern p at every level,
    for LLRs [..., N], as a flat row [..., levels << n_out] with entry
    (level << n_out) + p: the sum of |phi_j| over the positions of the
    level where p disagrees with the hard decision, added in position
    order.  Each level's table is built as the subset sums of its |phi|
    (the sum of pattern q adds |phi_i| for each set bit i of q, lowest
    first), gathered at p XOR the level's hard-decision pattern.

    Raises NonFiniteLLR unless every row's sum of |phi| is at most half
    the largest float.  A path metric adds a subset of those magnitudes
    in its own order, which rounding moves by a factor of at most about
    1 + 2N eps, so under the limit no path metric overflows to inf,
    where paths with different metrics would tie.
    """
    n_out = trellis.code.n_out
    lead = phi.shape[:-1]
    a = np.abs(phi)
    with np.errstate(over="ignore"):
        sums = a.sum(axis=-1)
    if not (sums <= 0.5 * sys.float_info.max).all():
        raise NonFiniteLLR("LLR magnitudes sum past half the largest float: "
                           "the path metrics could overflow")
    a = a.reshape(-1, n_out)  # one row per (trial, level)
    subsets = np.zeros((len(a), 1 << n_out))
    for i in range(n_out):
        np.add(subsets[:, :1 << i], a[:, i, None], out=subsets[:, 1 << i:2 << i])
    hard = hard_decision(phi).reshape(-1, n_out) @ (1 << np.arange(n_out))
    at = (np.arange(1 << n_out) ^ hard[:, None]) + (np.arange(len(a)) << n_out)[:, None]
    return subsets.take(at).reshape(lead + (-1,))


_CLOSED = (-math.inf, -1)  # a closed node: loses every merge test; seq -1 matches no entry


def mlsda_decode(trellis: Trellis, phi, extension_limit: int | None = None) -> DecodeOutcome:
    """Two-stack best-first search over the trellis; exact ML.

    A popped node is marked closed in the node table (which holds each
    open node's metric) and never extended again; successors landing on
    a closed node are discarded.  When two open paths merge, the one
    with the higher metric is eliminated (ties keep the incumbent).
    Stops when the path up for extension ends at the goal node.  A stale
    top entry (closed or superseded) does not stop the best child's
    dive: a child strictly below it is below every entry on the stack.

    A node at or above the deepest level holding a closed or open node
    (memory m >= 1) dives: neither of its children can be closed or have
    an incumbent, nor can theirs, so it follows the best child (the
    0-child on a tie) while that child lies strictly below the top of
    the stack and every sibling the dive has passed.  When it stops short
    of the goal, the path's nodes are closed, the siblings and the
    stopped child become open, and the stack is popped as after a single
    step.  Pop order depends only on the set of entries, whose (metric,
    insertion number) keys are unique, so every count, metric and
    decoded word is that of single steps.
    """
    phi = check_lengths(phi, trellis.code.n_out * trellis.levels)
    inc = _metric_table(trellis, phi).tolist()
    *counts, zeta, info = _mlsda_search(trellis, inc, extension_limit)
    decoded = encode_conv(trellis.code, [(info >> t) & 1 for t in range(trellis.L)])
    return DecodeOutcome(decoded, *counts, metric=zeta)


def _first_dives(trellis: Trellis, inc: np.ndarray) -> tuple:
    """The search's first dive (memory m >= 1) on every metric row of inc
    [B, levels << n_out] at once: (reached [B], the dive's metric [B], its
    input bits [ceil(L / 8), B] packed little-endian by level), where
    reached marks the rows whose dive ends at the goal.

    Level by level, with the dive's own rules: f0 and f1 add the branch
    metrics to the path's, the 1-child is taken only when f1 < f0, and a
    row stops diving at zeta >= the least sibling of the levels before.
    A path's metric only grows and that least sibling only falls, so a
    row that stopped stays stopped, and a test at any level tells whether
    it has stopped by then; the pass tests every eighth level and ends
    once every row has stopped.  The next state is the register rule
    (state << 1) | input bit, masked to m bits (see Trellis)."""
    n_out, L, levels = trellis.code.n_out, trellis.L, trellis.levels
    batch = len(inc)
    # level-major: metrics[level] holds the 2^n_out metrics of every row in turn
    metrics = inc.reshape(batch, levels, 1 << n_out).transpose(1, 0, 2).reshape(levels, -1)
    offsets = np.tile(np.arange(batch) << n_out, (2, 1))
    outputs = trellis.outputs
    mask = np.int64(trellis.num_states - 1)
    state = np.zeros(batch, dtype=np.int64)
    zeta = np.zeros(batch)
    top = np.full(batch, math.inf)  # the least sibling passed
    bits = np.zeros((L, batch), dtype=bool)
    at = np.empty((2, batch), dtype=np.int64)
    for level in range(levels):
        if level < L:
            f = metrics[level].take(np.add(outputs.take(state, axis=1), offsets, out=at))
            f += zeta
            f0, f1 = f
            one = np.less(f1, f0, out=bits[level])
            zeta = np.minimum(f0, f1)
        else:
            zeta = zeta + metrics[level].take(np.add(outputs[0].take(state), offsets[0],
                                                     out=at[0]))
        if level % 8 == 7 and not (zeta < top).any():
            return np.zeros(batch, dtype=bool), zeta, None
        state <<= 1
        if level < L:
            np.minimum(top, np.maximum(f0, f1), out=top)
            state |= one
        state &= mask
    return zeta < top, zeta, np.packbits(bits, axis=0, bitorder="little")


def _mlsda_batch(trellis: Trellis, inc: np.ndarray, extension_limit) -> list:
    """_mlsda_search's result on each metric row of inc [B, levels << n_out]
    (see _metric_table), or None where the search exceeds the budget.

    A row whose first dive reaches the goal (see _first_dives) is settled
    without the search, after L + m extensions of which L branch: None
    when they exceed the budget.  Every other row, and every row of a
    memory-0 code, which never dives, is searched."""
    L, m = trellis.L, trellis.code.m
    reached = np.zeros(len(inc), dtype=bool)
    if m:
        reached, zeta, info = _first_dives(trellis, inc)
    over = extension_limit is not None and extension_limit < L + m
    results = []
    for i, row in enumerate(inc):
        if reached[i]:
            results.append(None if over else
                           (2 * L, 2 * L + m, L + m, float(zeta[i]),
                            int.from_bytes(info[:, i].tobytes(), "little")))
            continue
        try:
            results.append(_mlsda_search(trellis, row.tolist(), extension_limit))
        except ExtensionLimitExceeded:
            results.append(None)
    return results


def _mlsda_search(trellis: Trellis, inc: list, extension_limit) -> tuple:
    """The trellis search on a prebuilt metric row (a flat list indexed
    (level << n_out) + output pattern, see _metric_table).

    Returns (branch_computations, branch_computations_total, extensions,
    path metric, information bits as an int) of the path that reached
    the goal node.
    """
    heappush, heappop, heapreplace = heapq.heappush, heapq.heappop, heapq.heapreplace
    outputs = trellis.outputs_by_state
    n_out, m, L, mask = trellis.code.n_out, trellis.code.m, trellis.L, trellis.num_states - 1
    levels = trellis.levels
    goal = levels << m
    limit = sys.maxsize if extension_limit is None else extension_limit
    nodes = {0: (0.0, 0)}  # (level << m) | state -> (metric, seq) of its open path, or _CLOSED
    heap = []  # open entries (zeta, seq, level, state, info bits)
    # The highest level holding a node of the table.  Children above it
    # are not in it, so a node at or above it dives (see below); with
    # m = 0 both children of a node land on one node, and it never dives.
    deepest = 0 if m else levels + 1
    zeta, level, state, info = 0.0, 0, 0, 0  # the node being extended
    seq = 1
    extensions = 0
    low_extensions = 0
    tail_metrics = 0

    while True:
        if extensions > limit:
            raise ExtensionLimitExceeded(f"more than {extension_limit} extensions")
        node = (level << m) | state
        if node == goal:
            return (2 * low_extensions, 2 * low_extensions + tail_metrics, extensions,
                    zeta, info)
        if level >= deepest:
            # Fresh-level dive: follow the best child while it lies strictly
            # below the stack and the dive's own siblings.  Its lookups could
            # find nothing, and its writes are left until it stops.
            top = heap[0][0] if heap else math.nan  # nan: no open entry stops it
            first, first_seq = level, seq
            path, pending = [], []  # extended states; their siblings' metrics
            while level < levels:
                path.append(state)
                s0 = (state << 1) & mask  # the 0-child's state; m >= 1, so s0 | 1 is the 1-child's
                if level < L:
                    o0, o1 = outputs[state]
                    row = level << n_out
                    f0 = zeta + inc[row + o0]
                    f1 = zeta + inc[row + o1]
                    if f1 < f0:  # the 1-child is best; on a tie the 0-child (lower seq) is
                        zeta, sib, best_seq, info = f1, f0, seq + 1, info | (1 << level)
                        state = s0 | 1
                    else:
                        zeta, sib, best_seq, state = f0, f1, seq, s0
                    seq += 2
                    level += 1
                    pending.append(sib)
                    if zeta >= top:
                        break
                    if not sib >= top:
                        top = sib
                else:
                    zeta += inc[(level << n_out) + outputs[state][0]]
                    best_seq, state = seq, s0
                    seq += 1
                    level += 1
                    if zeta >= top:
                        break
            extensions += level - first
            low_extensions += len(pending)
            tail_metrics += level - first - len(pending)
            if not zeta >= top:
                continue  # at the goal, below every open entry
            # stopped: write what single steps would have written
            for i, s in enumerate(path):
                j = first + i
                nodes[(j << m) | s] = _CLOSED
                if j < L:
                    b = 1 - ((info >> j) & 1)  # the input that leads to the sibling
                    ns = ((s << 1) | b) & mask
                    f = pending[i]
                    nodes[((j + 1) << m) | ns] = (f, first_seq + 2 * i + b)
                    heappush(heap, (f, first_seq + 2 * i + b, j + 1, ns,
                                    (info & ((1 << j) - 1)) | (b << j)))
            nodes[(level << m) | state] = (zeta, best_seq)
            deepest = level
            entry = heapreplace(heap, (zeta, best_seq, level, state, info))
        else:
            nodes[node] = _CLOSED
            extensions += 1
            if level < L:
                low_extensions += 1
                inputs = (0, 1)
            else:
                tail_metrics += 1
                inputs = (0,)
            best = sibling = None
            row, reg, to_output = level << n_out, state << 1, outputs[state]
            child_level = level + 1
            base = child_level << m
            for b in inputs:
                ns = (reg | b) & mask
                child = base | ns
                child_zeta = zeta + inc[row + to_output[b]]
                incumbent = nodes.get(child)
                if incumbent is not None and incumbent[0] <= child_zeta:
                    continue  # closed, or merge: keep the incumbent (also on ties)
                nodes[child] = (child_zeta, seq)
                entry = (child_zeta, seq, child_level, ns, info | (b << level))
                seq += 1
                if best is None:
                    best = entry
                elif child_zeta < best[0]:
                    best, sibling = entry, best
                else:
                    sibling = entry
            dive = best is not None and (not heap or best[0] < heap[0][0])
            if sibling is not None:  # above best, so it cannot be the next pop
                heappush(heap, sibling)
            if dive:
                zeta, _, level, state, info = best
                continue
            entry = None if best is None else heapreplace(heap, best)
        try:  # pop to the first live entry: a closed or superseded node's seq differs
            if entry is None:
                entry = heappop(heap)
            while nodes[(entry[2] << m) | entry[3]][1] != entry[1]:
                entry = heappop(heap)
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
    shifts = np.arange(code.n, dtype=np.uint64)
    lex_weights = 2.0 ** (code.n - 1 - np.arange(code.n))
    best_corr = -np.inf
    best_lex = np.inf
    best_word = 0
    chunk = 1 << 16
    for words in code.codeword_chunks():
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
    """ML oracle for the trellis decoder: the min-plus pass over the
    metrics of _metric_table, traced back from the goal node."""
    phi = check_lengths(phi, trellis.code.n_out * trellis.levels)
    inc = _metric_table(trellis, phi).reshape(trellis.levels, -1)
    table = min_path_costs(trellis, inc, math.inf)
    return encode_conv(trellis.code, min_path_inputs(trellis, inc, table))
