"""Sequential ML decoders with branch-metric accounting, plus brute-force
and dynamic-programming oracles.

Both searches are best-first with FIFO tie-breaking (insertion order),
which makes every decode deterministic for a fixed LLR vector.  Each
extension hands out insertion numbers to all its children, and the
extension order, and with it every count, is that of a loop that pops
each path and pushes every child.  Each search takes many extensions in
one step where that loop's order is certain.

The tree search dives: a path strictly below the top of the stack whose
every sibling to come would lie strictly above it follows the hard
decisions to level k at once; the dive's siblings form one fan, of which
only the least member is on the stack.  In the single-child tail a path
steps level by level, with its parity bits read from per-byte tables,
until its metric reaches the top.  Any other step below level k comes of
a tie, or of a flip that adds nothing, and is the plain loop's: both
children go on the stack and the least entry comes off.

The trellis search expands the best child (lowest metric, lower number
on a tie) in place when its metric lies strictly below the top of the
open stack: a pop would return exactly that child.  Otherwise the child
goes through the stack (heapreplace), so every tie is settled by the
stack's FIFO order.  It keeps each node's state (unseen, open with one
path, or closed) in one node table, so a child costs one lookup.  It
dives too, over fresh levels: above the deepest level that holds a node
of the table, no lookup can find anything, so a node there follows its
best child level by level with no table work and no push, while that
child lies strictly below the top of the stack and the dive's own
siblings.  A dive that stops short of the goal writes once what single
steps would have written.

Each search checks its extension budget once per turn of its loop, before
the goal test, so it raises exactly when its final count exceeds the budget.

Counting a heavy tree trial.  Branch metrics are nonnegative, so the
tree search extends a path only if its metric f is at most the winner's,
zeta*; its counts are those of the tree nodes with f <= zeta*, which
numpy can count level by level without a stack.  A batch of B > 1 rows
(decode_batch, through _gda_batch) first settles in numpy each row whose
search is a straight dive: the whole dive to level k and a tail whose
leaf lies strictly below the dive's least flip (_straight_dives).  As in
the trellis batch, when at least half the rows are left, threshold
sweeps count them all at once (_gda_count); otherwise, and on a lone row
(gda_decode, through _gda_tree), each is searched under SEARCH_BUDGET
extensions, and the sweeps count the rows it stops.  A round at a
threshold T keeps each row's prefixes with f <= T in arrays that carry
the row's index, adding each path's metrics in the search's own order,
so every f is bit-equal.  T starts at U, the metric of an order-1
ordered-statistics codeword (_osd_bound), which is zeta* on nearly every
row; a tie at zeta* off the winner's path, which the stack's insertion
order would settle, sends the row to the search (see _gda_count), and no
sweep array holds more than SWEEP_BLOCK nodes.

Settling first dives per batch.  The trellis search starts with a dive
from the root, and at high SNR that dive mostly runs straight to the
goal; its result is then fixed: L + m extensions, L of them branching,
and the dive's metric and inputs.  decode_batch hands a batch of
trellis rows to _mlsda_batch, which follows the first dive of every row
at once, one level per step of [B]-wide numpy operations with the
dive's own rules and float adds (_first_dives), and settles each row
whose dive reaches the goal with no Python list and no search.  The
other rows are counted or searched (below).  mlsda_decode keeps the
search alone: for a batch of one, a dozen numpy calls per level cost
more than the dive.

Counting the trellis search.  The trellis search is Dijkstra's algorithm
on nonnegative branch metrics, so it extends every node below level
L + m whose Viterbi metric V (its least path metric, with the search's
own float adds) lies below zeta*, the goal's, and no node above it.  One
min-plus pass (trellis.min_path_costs) gives V at every node of a batch
of rows at once, and its counts are those of the nodes with V <= zeta*:
extensions all of them, low those below level L, branch_computations
2 low and branch_computations_total low + extensions; a row overflows
exactly when its extensions exceed the budget.  Its information bits are
those of the winner traced back from the goal (trellis.min_path_inputs).
Two rules keep the count exact; a row that breaks one is searched.  Both
branches into a node of the traced winner's path must not give the
node's V, or the search's insertion order picks the path.  And the nodes
at exactly zeta* must be the winner's own (its zero-metric suffix, which
the search extends too), since any other one is extended or not by
insertion order.  _mlsda_batch chooses per batch: when at least half its
rows are left by their first dives, it counts them all in one pass, and
otherwise it searches them.  At 5-6 dB most rows are left, and at 5 dB a
counted (2,1,6) L=100 row costs about a third of a searched one; at high
SNR few rows are left, too few to pay for a pass.  The pass holds a table
[levels + 1, rows, S] of at most COUNT_BLOCK entries, so a memory-16 row
(7.7 M entries) is searched, as is every row of a memory-0 code.

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
    """Search exceeded the caller-supplied extension budget.  It carries
    no search state: a search it stops is freed, and one taken up again
    starts from the root."""


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
    A lone decode skips the batch's straight-dive settle (it is searched
    first), and one that outgrows SEARCH_BUDGET extensions is counted in
    numpy (see the module docstring), with the same result.
    """
    offset, bm0, bm1 = _gda_tables(check_lengths(phi, code.n))
    *counts, f, bits = _gda_tree(code, bm0, bm1, extension_limit)
    decoded = np.array([(bits >> j) & 1 for j in range(code.n)], dtype=np.uint8)
    return DecodeOutcome(decoded, *counts, metric=f + float(offset))


def _gda_search(code: BlockCode, bm0: list, bm1: list, extension_limit) -> tuple:
    """The tree search on prebuilt branch-metric lists (see _gda_tables).

    Returns (branch_computations, branch_computations_total, extensions,
    path value, path bits as an int) of the path that reached level n.
    """
    heappush, heappushpop, heapreplace = heapq.heappush, heapq.heappushpop, heapq.heapreplace
    k, n = code.k, code.n
    parity_tables = code.parity_tables
    limit = sys.maxsize if extension_limit is None else extension_limit
    # c[j]: metric of the child that disagrees with the hard decision at
    # level j < k (the other adds exactly 0.0); 0.0 where the children tie
    # or a square overflowed, which stops every whole dive across j
    c = [x if x > 0.0 else 0.0 for x in map(operator.add, bm0[:k], bm1[:k])]
    hard = sum(1 << j for j in range(k) if bm1[j] < bm0[j])
    orders = [None] * k  # orders[l]: levels l..k-1 by (c[j], j), built on first use
    # heap: open entries (f, insertion seq, level, path bits as int, fan or None)
    # A fan [f, base, dive bits, orders[l], k - l, position] holds the k - l
    # siblings of a whole dive from level l with metric f.  Member j is
    # (f + c[j], base + 2j - hard bit j, j + 1, the dive's bits below level
    # j + 1 with bit j flipped).  Only the member at position is on the
    # heap, and only while strictly below the next member.
    # fan: a fan whose member at position goes on the heap next, or None

    # The start path has insertion number 0 and each extension numbers its
    # children in turn, so the next number is 1 + extensions + low_extensions.
    # f, level, bits: the path being extended
    heap, fan, f, level, bits, extensions, low_extensions = [], None, 0.0, 0, 0, 0, 0
    while True:
        if extensions > limit:
            raise ExtensionLimitExceeded(f"more than {extension_limit} extensions")
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
            extensions += 1  # no whole dive: one extension, as a plain loop takes it
            low_extensions += 1
            seq = extensions + low_extensions - 1  # the 0-child's number
            heappush(heap, (f + bm1[level], seq + 1, level + 1, bits | (1 << level), None))
            entry = heappushpop(heap, (f + bm0[level], seq, level + 1, bits, None))
        f, _, level, bits, fan = entry


SEARCH_BUDGET = 1600  # extensions the tree search takes on a lone row before the count takes over
SWEEP_BLOCK = 1 << 14  # the most nodes an array of the count holds


def _gda_tree(code: BlockCode, bm0, bm1, extension_limit) -> tuple:
    """gda_decode's search on one row of branch metrics [n] (see
    _gda_tables), with _gda_search's result: _gda_batch on a batch of one.
    Raises ExtensionLimitExceeded where the search exceeds the budget."""
    result = _gda_batch(code, np.array([bm0]), np.array([bm1]), extension_limit)[0]
    if result is None:
        raise ExtensionLimitExceeded(f"more than {extension_limit} extensions")
    return result


def _straight_dives(code: BlockCode, bm0: np.ndarray, bm1: np.ndarray) -> tuple:
    """(straight [B], leaf metrics [B], leaf words [B]) of bm0, bm1 [B, n]:
    straight marks the rows whose search is one whole dive to level k,
    whose least flip c > 0.0 goes on the stack, and one tail to level n,
    whose hard-decision leaf's metric (the search's adds) lies below c."""
    k = code.k
    words = _encode(code, _pack(bm1[:, :k] < bm0[:, :k]))
    leaf = _path_metrics(bm0, bm1, words[:, None])[:, 0, -1]
    return leaf < np.maximum(bm0[:, :k] + bm1[:, :k], 0.0).min(axis=1), leaf, words


def _gda_batch(code: BlockCode, bm0: np.ndarray, bm1: np.ndarray, extension_limit) -> list:
    """_gda_search's result on each row of bm0, bm1 [B, n] (see
    _gda_tables), or None where the search exceeds the budget.  Where
    B > 1, straight dives (_straight_dives) are settled without it, after
    n extensions, k branching.  When at least half the rows are left, one
    count (_gda_count) takes them all; otherwise, and on a lone row, each
    is searched for up to SEARCH_BUDGET extensions and one count takes
    those it stops.  The count holds information bits in floats and path
    bits in 64-bit words, so larger codes, and budgets of at most
    SEARCH_BUDGET, are searched only."""
    rows, k, n = len(bm0), code.k, code.n
    results, left = [None] * rows, list(range(rows))
    countable = k <= 53 and n <= 64
    if countable and rows > 1:
        straight, leaf, words = _straight_dives(code, bm0, bm1)
        if extension_limit is None or extension_limit >= n:
            for i in np.flatnonzero(straight).tolist():
                results[i] = (2 * k, k + n, n, float(leaf[i]), int(words[i]))
        left = np.flatnonzero(~straight).tolist()
    searched = not countable or (extension_limit is not None and extension_limit <= SEARCH_BUDGET)
    if searched or rows == 1 or 2 * len(left) < rows:
        budget, stopped = extension_limit if searched else SEARCH_BUDGET, []
        for i in left:
            try:
                results[i] = _gda_search(code, bm0[i].tolist(), bm1[i].tolist(), budget)
            except ExtensionLimitExceeded:
                stopped.append(i)
        left = [] if searched else stopped
    if left:
        for i, result in zip(left, _gda_count(code, bm0[left], bm1[left], extension_limit)):
            results[i] = result
    return results


def _pack(bits: np.ndarray) -> np.ndarray:
    """Words (uint64) [...] of bits [..., m], bit j of each from bits[..., j]."""
    return (bits.astype(np.uint64) << np.arange(bits.shape[-1], dtype=np.uint64)).sum(
        axis=-1, dtype=np.uint64)


def _encode(code: BlockCode, info: np.ndarray) -> np.ndarray:
    """The codewords, information then parity bits, of the information
    words info (uint64, bit j information bit j)."""
    word = info
    for t, table in enumerate(code.parity_arrays):
        word = word ^ table[(info >> np.uint64(8 * t)) & np.uint64(0xFF)]
    return word


def _path_metrics(bm0: np.ndarray, bm1: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The metrics [R, m, n] at levels 1..n of the paths with codeword bits
    words [R, m] in the rows of bm0, bm1 [R, n]: the search's sequential
    adds."""
    taken = (words[..., None] >> np.arange(bm0.shape[1], dtype=np.uint64)) & np.uint64(1)
    return np.where(taken == 1, bm1[:, None], bm0[:, None]).cumsum(axis=-1)


def _osd_bound(code: BlockCode, bm0: np.ndarray, bm1: np.ndarray) -> tuple:
    """(U [R], a codeword [R] with metric U) for each row of bm0, bm1
    [R, n]: the least of the _path_metrics of the row's hard-decision leaf
    and of its best order-1 ordered-statistics codeword, so U >= zeta*.

    Those codewords agree with the hard decisions on the k most reliable
    independent positions (reliability bm0 + bm1, the metric of leaving
    the hard decision, in a stable sort), or on all but one of them.  The
    generator is row-reduced over each row's positions in that order, all
    rows at once, with each column held as a word of k row bits, and the
    best of the k + 1 codewords is chosen by their metrics as dot
    products."""
    rows, k, n = len(bm0), code.k, code.n
    everyone = np.arange(rows)
    cost = bm0 + bm1
    hard = bm1 < bm0
    order = np.argsort(-cost, axis=1, kind="stable")
    # [R, n]: bit i of column j is row i's
    reduced = np.tile(_pack(code.generator_bits.T), (rows, 1))
    free = np.full(rows, (1 << k) - 1, dtype=np.uint64)  # the rows with no pivot yet
    info = np.zeros(rows, dtype=np.uint64)  # the hard decisions at the pivots, by pivot row
    # [n, R]: all ones where the hard decision at a step's column is 1
    ones = np.where(np.take_along_axis(hard, order, axis=1).T, ~np.uint64(0), 0)
    for step, column in enumerate(order.T):
        v = reduced[everyone, column]
        pivot = v & free
        pivot &= -pivot  # the first free row with a 1 in the column, or none
        # add the pivot row to the column's other rows: flip them where it has a 1
        reduced ^= np.where(reduced & pivot[:, None], (v ^ pivot)[:, None], 0)
        free ^= pivot
        info |= pivot & ones[step]
        if step >= k - 1 and not free.any():
            break
    base = (np.bitwise_count(reduced & info[:, None]) & 1).astype(bool)  # [R, n]
    # rows' bits [R, n, k]; flipping pivot i moves the metric by gain[i]
    row_bits = np.unpackbits(reduced.astype("<u8").view(np.uint8).reshape(rows, n, 8),
                             axis=-1, count=k, bitorder="little")
    gain = np.matmul(np.where(base != hard, -cost, cost)[:, None], row_bits)[:, 0]
    flip = gain.argmin(axis=1)
    info ^= np.where(gain[everyone, flip] < 0.0, np.uint64(1) << flip.astype(np.uint64), 0)
    osd = _pack(np.bitwise_count(reduced & info[:, None]) & 1)
    leaf = _encode(code, _pack(hard[:, :k]))
    words = np.stack((osd, leaf), axis=1)
    metrics = _path_metrics(bm0, bm1, words)[..., -1]
    best = metrics.argmin(axis=1)
    return metrics[everyone, best], words[everyone, best]


def _sweep(flips: np.ndarray, thresholds: np.ndarray, active: np.ndarray):
    """Chunks (nodes [2, m], their rows [m]) of the level-k tree nodes of
    the active rows with f <= the row's threshold, depth first, none
    longer than SWEEP_BLOCK, given flips [k, R], the metric of the child
    that leaves the hard decision at each level of each row: row 0 of
    nodes holds f, and row 1 the flips, whose bit j is set where the path
    leaves the hard decision at level j.  Every node below level k has a
    descendant at level k with the same f (hard-decision children add
    0.0), so a level-k node whose last flip is at level j - 1 stands for
    its k - j prefixes at levels j..k-1."""
    half = SWEEP_BLOCK // 2
    # the levels where some row can leave the hard decision at all
    reach = (flips[:, active] <= thresholds.take(active)).any(axis=1).tolist()
    stack = [(0, np.zeros((2, len(active))), active)]
    while stack:
        level, nodes, who = stack.pop()
        for j in range(level, len(flips)):
            if not reach[j]:
                continue
            f = flips[j].take(who)
            f += nodes[0]
            kept = (f <= thresholds.take(who)).nonzero()[0]
            if len(kept) and len(who) > half:  # the children must fit in one block
                stack.append((j, nodes[:, half:], who[half:]))
                nodes, who = nodes[:, :half], who[:half]
                kept = kept[:np.searchsorted(kept, half)]
            if len(kept):
                children = nodes.take(kept, axis=1)
                children[0] = f.take(kept)
                children[1] += float(1 << j)
                nodes = np.concatenate((nodes, children), axis=1)
                who = np.concatenate((who, who.take(kept)))
        yield nodes, who


def _gda_count(code: BlockCode, bm0: np.ndarray, bm1: np.ndarray, extension_limit) -> list:
    """The tree search's result (see _gda_search) on each row of bm0, bm1
    [R, n], or None where it exceeds the budget, from threshold sweeps
    over all the rows at once, whether a search stopped them or not.

    The search extends every path below level n with f < zeta*, and
    those with f == zeta* that it pops before the winner.  When no node
    but the winner's prefixes has f == zeta*, it pops all of those, so
    its counts are those of the nodes with f <= zeta*.  The first round
    sweeps each row at T = U, the metric of a codeword (_osd_bound), so
    zeta* <= U and the round finds a leaf at or below U; the least is the
    winner.  Once the round finds a leaf below a row's T, T falls to it
    for the rest of the round, and the row takes a second round at
    T = zeta*.  Where T stays U, as it does on nearly every row, U is
    zeta* and the round's counts are the row's.  The row overflows
    exactly when they exceed extension_limit.  A tie with a node off the
    winner's path reruns the row's search, and so does a round at
    T == zeta* that finds more nodes at T than the winner's path has at
    levels k..n.

    A sweep (_sweep) keeps only the level-k nodes of the rows, each with
    its row's index, and follows their tails to level n.
    """
    rows, k, n = len(bm0), code.k, code.n
    limit = sys.maxsize if extension_limit is None else extension_limit
    is_hard = bm1[:, :k] < bm0[:, :k]
    hard = _pack(is_hard)
    flips = np.where(is_hard, bm0[:, :k], bm1[:, :k]).T.copy()  # [k, R]: the other child's metric
    # tail metrics of all rows, entry bases[row] + 2 (level - k) + bit
    tail_bm = np.stack((bm0[:, k:], bm1[:, k:]), axis=-1).ravel()
    bases = np.arange(rows, dtype=np.uint64) * np.uint64(2 * (n - k))
    shifts = np.arange(k, n, dtype=np.uint64)[:, None]
    offsets = np.arange(0, 2 * (n - k), 2, dtype=np.uint64)[:, None]
    half = SWEEP_BLOCK // 2

    def tails(nodes, who, thresholds) -> tuple:
        """(per row [R]: nodes at levels k..n-1 with f <= the row's
        threshold below the level-k nodes [2, m] of rows who, and nodes at
        levels k..n with f == it; the leaf metrics <= it, their path bits
        and rows).  The metrics are the search's sequential adds, taken
        for as many levels at a time as fit a block."""
        count, ties = np.zeros(rows), np.zeros(rows)
        leaves = [np.empty(0)], [np.empty(0, dtype=np.uint64)], [np.empty(0, dtype=np.intp)]
        for first in range(0, len(who), half):
            f, w = nodes[0, first:first + half], who[first:first + half]
            word = _encode(code, nodes[1, first:first + half].astype(np.uint64) ^ hard.take(w))
            threshold = thresholds.take(w)
            level = k
            while level < n and len(f):
                width = min(n - level, max(1, SWEEP_BLOCK // len(f) - 1))
                levels = slice(level - k, level - k + width)
                path = np.empty((width + 1, len(f)))
                path[0] = f
                tail_bm.take(((word >> shifts[levels]) & np.uint64(1)) + offsets[levels]
                             + bases.take(w), out=path[1:])
                for i in range(width):
                    np.add(path[i], path[i + 1], out=path[i + 1])
                count += np.bincount(w, np.count_nonzero(path[:width] <= threshold, axis=0), rows)
                tied = path[:width] == threshold
                if tied.any():
                    ties += np.bincount(w, np.count_nonzero(tied, axis=0), rows)
                alive = (path[width] <= threshold).nonzero()[0]
                f, word, w = path[width].take(alive), word.take(alive), w.take(alive)
                threshold = threshold.take(alive)
                level += width
            ties += np.bincount(w, f == threshold, rows)
            for kept, part in zip(leaves, (f, word, w)):
                kept.append(part)
        return count, ties, *map(np.concatenate, leaves)

    threshold = _osd_bound(code, bm0, bm1)[0]
    zeta, bits = np.full(rows, math.inf), np.zeros(rows, dtype=np.uint64)  # least leaf so far
    counts = np.zeros((3, rows))  # low, tail and ties at zeta*
    searched = np.zeros(rows, dtype=bool)  # the rows whose ties the search settles
    active = np.arange(rows)
    while len(active):
        found = np.zeros((3, rows))  # low, tail, and ties at the threshold since it was set
        lowered = np.zeros(rows, dtype=bool)
        for nodes, who in _sweep(flips, threshold, active):
            *tail, f, word, w = tails(nodes, who, threshold)
            # nodes below level k: at level j, those with no flip at j or above
            found += (np.bincount(who, k - np.frexp(nodes[1])[1], rows), *tail)
            np.minimum.at(zeta, w, f)
            least = (f == zeta.take(w)).nonzero()[0]
            bits[w.take(least)] = word.take(least)
            # the rest of the round needs only the nodes at or below the least leaf
            lower = zeta < threshold
            if lower.any():
                threshold[lower] = zeta[lower]
                lowered |= lower
                found[2, lower] = 0.0
            # more nodes at zeta* than the winner has at levels k..n: stop sweeping the row
            tied = (found[2] > n - k + 1) & (threshold == zeta)
            if tied.any():
                searched |= tied
                threshold[tied] = -1.0
        active = active[~searched.take(active)]
        done = active[~lowered.take(active)]  # T was zeta* from the start of the round
        counts[:, done] = found[:, done]
        active = active[lowered.take(active)]  # one more round, at T = zeta*
    results = [None] * rows  # None: past the limit
    settled = (~searched).nonzero()[0]
    # a tie off the winner's path: more nodes at zeta* than the winner's own at levels k..n
    own = _path_metrics(bm0[settled], bm1[settled], bits[settled, None])[:, 0, k - 1:]
    searched[settled] = counts[2, settled] != np.count_nonzero(own == zeta[settled, None], axis=1)
    for r in range(rows):
        a, b = int(counts[0, r]), int(counts[1, r])
        if searched[r]:
            try:
                results[r] = _gda_search(code, bm0[r].tolist(), bm1[r].tolist(), extension_limit)
            except ExtensionLimitExceeded:
                pass
        elif a + b <= limit:
            results[r] = (2 * a, 2 * a + b, a + b, float(zeta[r]), int(bits[r]))
    return results


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


def decode_batch(target, phi, extension_limit: int | None = None) -> list:
    """gda_decode's (BlockCode) or mlsda_decode's (Trellis) result on each
    row of LLRs phi [B, N], through _gda_batch or _mlsda_batch: a tuple
    (branch_computations, branch_computations_total, extensions, metric,
    bits), bits being the codeword (tree) or the information bits
    (trellis) as an int, bit j at position j; None where the decode
    exceeds extension_limit."""
    if isinstance(target, BlockCode):
        offset, bm0, bm1 = _gda_tables(check_lengths(phi, len(phi), target.n))
        rows = _gda_batch(target, bm0, bm1, extension_limit)
        return [None if row is None else (*row[:3], row[3] + off, row[4])
                for row, off in zip(rows, offset.tolist())]
    phi = check_lengths(phi, len(phi), target.code.n_out * target.levels)
    return _mlsda_batch(target, _metric_table(target, phi), extension_limit)


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
    it has stopped by then.  The pass tests every eighth level and ends,
    with no row reached, once every row has stopped, or, where the count
    can take the batch (see _mlsda_batch), once at most an eighth of them
    still dive: the levels left would then cost more than counting the
    few rows that might reach the goal.  The next state is the register
    rule (state << 1) | input bit, masked to m bits (see Trellis)."""
    n_out, L, levels = trellis.code.n_out, trellis.L, trellis.levels
    batch = len(inc)
    diving = batch // 8 if _count_rows(trellis) else 0  # the most diving rows at an end
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
        if level % 8 == 7 and np.count_nonzero(zeta < top) <= diving:
            return np.zeros(batch, dtype=bool), zeta, None
        state <<= 1
        if level < L:
            np.minimum(top, np.maximum(f0, f1), out=top)
            state |= one
        state &= mask
    return zeta < top, zeta, np.packbits(bits, axis=0, bitorder="little")


COUNT_BLOCK = 1 << 19  # the most entries a table of the trellis count holds


def _count_rows(trellis: Trellis) -> int:
    """Rows whose min-plus tables [levels + 1, S] fit one COUNT_BLOCK
    together: 0 where none does, or where the code has memory 0."""
    if not trellis.code.m:
        return 0
    return COUNT_BLOCK // ((trellis.levels + 1) * trellis.num_states)


def _search_row(trellis: Trellis, row: np.ndarray, extension_limit):
    """_mlsda_search on one metric row, or None where it exceeds the budget."""
    try:
        return _mlsda_search(trellis, row.tolist(), extension_limit)
    except ExtensionLimitExceeded:
        return None


def _mlsda_batch(trellis: Trellis, inc: np.ndarray, extension_limit) -> list:
    """_mlsda_search's result on each metric row of inc [B, levels << n_out]
    (see _metric_table), or None where the search exceeds the budget.

    A row whose first dive reaches the goal (see _first_dives) is settled
    without the search, after L + m extensions of which L branch: None
    when they exceed the budget.  When at least half the rows are left,
    and their tables fit (see _count_rows), they are counted (see
    _mlsda_count); otherwise they, and every row of a memory-0 code, which
    never dives, are searched."""
    L, m = trellis.L, trellis.code.m
    reached = np.zeros(len(inc), dtype=bool)
    if m:
        reached, zeta, info = _first_dives(trellis, inc)
    left = np.flatnonzero(~reached)
    if _count_rows(trellis) and 2 * len(left) >= len(inc):
        settled = _mlsda_count(trellis, inc[left], extension_limit)
    else:
        settled = [_search_row(trellis, inc[i], extension_limit) for i in left]
    results = [None] * len(inc)
    for i, result in zip(left.tolist(), settled):
        results[i] = result
    if extension_limit is None or extension_limit >= L + m:
        for i in np.flatnonzero(reached).tolist():
            results[i] = (2 * L, 2 * L + m, L + m, float(zeta[i]),
                          int.from_bytes(info[:, i].tobytes(), "little"))
    return results


def _mlsda_count(trellis: Trellis, inc: np.ndarray, extension_limit) -> list:
    """_mlsda_search's result on each metric row of inc [R, levels << n_out]
    (memory m >= 1), or None where the search exceeds the budget, from
    the Viterbi metric V of every node, by one
    min-plus pass (min_path_costs) over as many rows at a time as
    _count_rows allows.

    The search extends every node below level L + m with V < zeta*, the
    goal's V, and no node with V > zeta*; its counts are those of the
    nodes with V <= zeta* when the only nodes at exactly zeta* are the
    winner's own, and its inputs are those of the traced winner
    (min_path_inputs) when no node of that path has tied branches.  A
    row that breaks either rule is searched."""
    L, levels = trellis.L, trellis.levels
    limit = sys.maxsize if extension_limit is None else extension_limit
    step = _count_rows(trellis)
    results = []
    for first in range(0, len(inc), step):
        rows = inc[first:first + step]
        costs = rows.reshape(len(rows), levels, -1).transpose(1, 0, 2)
        table = min_path_costs(trellis, costs, math.inf)
        inputs, tied, path = min_path_inputs(trellis, costs, table)
        zeta = path[levels]
        inner = table[:levels]
        # nodes per (row, state) at or below zeta*, below level L and above it;
        # summing levels first keeps each reduction contiguous
        below = inner <= zeta[:, None]
        low = below[:L].sum(axis=0, dtype=np.int32).sum(axis=1).tolist()
        tail = below[L:].sum(axis=0, dtype=np.int32).sum(axis=1).tolist()
        ties = np.equal(inner, zeta[:, None]).sum(axis=0, dtype=np.int32).sum(axis=1)
        searched = tied | (ties != np.count_nonzero(path[:levels] == zeta, axis=0))
        info = np.packbits(inputs, axis=0, bitorder="little")
        for i in range(len(rows)):
            extensions = low[i] + tail[i]
            if searched[i]:
                results.append(_search_row(trellis, rows[i], extension_limit))
            elif extensions > limit:
                results.append(None)
            else:
                results.append((2 * low[i], low[i] + extensions, extensions, float(zeta[i]),
                                int.from_bytes(info[:, i].tobytes(), "little")))
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

    while True:
        if extensions > limit:
            raise ExtensionLimitExceeded(f"more than {extension_limit} extensions")
        node = (level << m) | state
        if node == goal:
            return 2 * low_extensions, low_extensions + extensions, extensions, zeta, info
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
            inputs = (0, 1) if level < L else (0,)
            low_extensions += level < L
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
    inc = _metric_table(trellis, phi).reshape(trellis.levels, 1, -1)
    inputs = min_path_inputs(trellis, inc, min_path_costs(trellis, inc, math.inf))[0]
    return encode_conv(trellis.code, inputs[:, 0])
