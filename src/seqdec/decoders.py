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
steps level by level along the codeword of its information bits, read
from the code's one table set (codes.BlockCode.word_tables), until its
metric reaches the top; the batch path and the count encode through
them too (BlockCode.encode_words).  Any other step below level k comes
of a tie, or of a flip that adds nothing, and is the plain loop's: both
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
the goal test, so it raises exactly when its final count exceeds the budget;
a step of many levels may overrun the budget by its own length before the
check catches it.

Counting instead of searching.  Branch metrics are nonnegative, so each
search is Dijkstra's algorithm: it extends every node whose metric lies
below the winner's, zeta*, none above it, and at zeta* those that the
stack's insertion order pops before the winner.  So numpy can give a
search's exact result without a stack: the tree count sweeps thresholds
over the code tree (_gda_count, starting at _osd_bound, an elimination
in place on k-bit words), and the trellis count takes one min-plus pass
(_mlsda_count).  A row whose result a tie
at zeta* would leave to insertion order is searched.  decode_batch hands
a batch of rows to _gda_batch or _mlsda_batch, which settle in numpy
each row whose search is one straight dive (_straight_dives,
_first_dives, each row by its own metrics) and count or search the
rest; their docstrings say which.  A trellis row that its first dive
leaves, and that no count takes, can still be settled by a walk from
that dive (_dive_walks) over the nodes off the dive's path whose
Viterbi metric lies at or below the dive's metric T.  The walk is exact
when no such node's branch re-enters the path at or below the path's
own metric there, so that the dive's path wins with zeta* = T, and none
lies at exactly T, so that the search extends just the path and the
nodes below T; it declines every other row, and any with more than
L + m such nodes, to the search.
decode_batch builds a trellis batch's metric table (_metric_table) in
a caller's array where one is given, as the simulation's held workspace.
gda_decode decodes one row as a batch of one, which searches first;
mlsda_decode searches it alone, since for one row a dozen numpy calls
per level cost more than the dive.

Counting conventions, as Han, Chen and Wu count for the MLSDA.
Extending a tree path below level k, or a trellis node below level L,
evaluates two branch metrics; those are the headline
`branch_computations`.  Extensions in the single-branch tail
(tree levels >= k, trellis levels >= L) cost one metric each and are
included only in `branch_computations_total`.
"""

import heapq
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from seqdec.channel import NonFiniteLLR, check_lengths
from seqdec.codes import BlockCode, encode_conv
from seqdec.trellis import Trellis, min_path_costs, min_path_inputs


class SizeError(ValueError):
    """Exhaustive enumeration would be infeasible."""


class ExtensionLimitExceeded(RuntimeError):
    """Search exceeded the caller-supplied extension budget.  It carries
    no search state: a search it stops is freed, and one taken up again
    starts from the root."""


def _result(low: int, extensions: int, metric: float, bits: int, extension_limit) -> tuple:
    """A decode's result, (branch_computations, branch_computations_total,
    extensions, metric, bits), from its extensions, low of them branching
    (see "Counting conventions" in the module docstring), or None once
    extensions exceed extension_limit."""
    if extension_limit is not None and extensions > extension_limit:
        return None
    return 2 * low, low + extensions, extensions, metric, bits


def _or_none(search, *args):
    """search(*args), or None where it raises ExtensionLimitExceeded.  The
    exception is dropped here, so a stopped search's stack is freed at
    once rather than held in a reference cycle for the cyclic collector."""
    try:
        return search(*args)
    except ExtensionLimitExceeded:
        return None


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
    word_tables = code.word_tables  # codewords by information byte
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
    # heap, and only while strictly below the next member, so len(heap)
    # undercounts the open paths.  Insertion numbers are unique, so entry
    # comparisons never reach the fan.
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
            return _result(low_extensions, extensions, f, bits, None)
        if level >= k:  # whole tail: one step per level while below the top
            if level == k:  # the path's bits become its codeword's
                info, bits = bits, 0
                for table in word_tables:
                    bits ^= table[info & 0xFF]
                    info >>= 8
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
# the most row bits _osd_bound unpacks from its k-bit words at a time, one
# byte each (256 KiB), which the product casts to floats (2 MiB): a whole
# QR-48 batch's [R, n, k] would be 12 MiB of floats
OSD_BLOCK = 1 << 18


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
    whose hard-decision leaf's metric (the search's adds) lies strictly
    below c: at a tie the stack pops the fan's member first."""
    k = code.k
    words = code.encode_words(_pack(bm1[:, :k] < bm0[:, :k]))
    leaf = _path_metrics(bm0, bm1, words[:, None])[:, 0, -1]
    return leaf < np.maximum(bm0[:, :k] + bm1[:, :k], 0.0).min(axis=1), leaf, words


def _gda_batch(code: BlockCode, bm0: np.ndarray, bm1: np.ndarray, extension_limit) -> list:
    """_gda_search's result on each row of bm0, bm1 [B, n] (see
    _gda_tables), or None where the search exceeds the budget.  Where
    B > 1, straight dives (_straight_dives) are settled without it, after
    n extensions, k branching.  When at least half the rows are left, one
    count (_gda_count) takes them all; otherwise, and on a lone row, each
    is searched for up to SEARCH_BUDGET extensions and one count takes
    those it stops: a count of one row costs more than most of its
    searches.  The count holds information bits in floats and path bits in
    64-bit words, so larger codes, and budgets of at most SEARCH_BUDGET,
    are searched only."""
    rows, k, n = len(bm0), code.k, code.n
    results, left = [None] * rows, list(range(rows))
    countable = k <= 53 and n <= 64
    if countable and rows > 1:
        straight, leaf, words = _straight_dives(code, bm0, bm1)
        for i in np.flatnonzero(straight).tolist():
            results[i] = _result(k, n, float(leaf[i]), int(words[i]), extension_limit)
        left = np.flatnonzero(~straight).tolist()
    searched = not countable or (extension_limit is not None and extension_limit <= SEARCH_BUDGET)
    if searched or rows == 1 or 2 * len(left) < rows:
        budget = extension_limit if searched else SEARCH_BUDGET
        for i in left:
            results[i] = _or_none(_gda_search, code, bm0[i].tolist(), bm1[i].tolist(), budget)
        left = [] if searched else [i for i in left if results[i] is None]
    if left:
        for i, result in zip(left, _gda_count(code, bm0[left], bm1[left], extension_limit)):
            results[i] = result
    return results


def _pack(bits: np.ndarray) -> np.ndarray:
    """Words (uint64) [...] of bits [..., m], bit j of each from bits[..., j]."""
    return (bits.astype(np.uint64) << np.arange(bits.shape[-1], dtype=np.uint64)).sum(
        axis=-1, dtype=np.uint64)


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

    Han, Hartmann and Chen bound their priority-first search with such
    re-encoded codewords; Fossorier and Lin call them ordered-statistics
    decoding.  Those codewords agree with the hard decisions on the k most
    reliable independent positions (reliability bm0 + bm1, the metric of
    leaving the hard decision, in a stable sort), or on all but one of
    them.  The generator is row-reduced over each row's positions in that
    order, all rows at once, in place in one [n, R] array whose step s
    holds each row's column at its s-th position, as a word of k row bits
    in the narrowest unsigned type that holds them.  A step changes no
    column before it (a pivot column is left with its pivot row's bit
    alone, and a dependent one with bits in pivot rows alone, where no
    later pivot row reaches), so it updates only the columns from its own
    on.  The best of the k + 1 codewords is chosen by their metrics as
    dot products."""
    rows, k, n = len(bm0), code.k, code.n
    everyone = np.arange(rows)
    cost = bm0 + bm1
    hard = bm1 < bm0
    order = np.argsort(-cost, axis=1, kind="stable")
    word = np.min_scalar_type((1 << k) - 1)
    # [n, R]: bit i of step s's word is generator row i's at that position
    reduced = _pack(code.generator_bits.T).astype(word).take(order.T)
    free = np.full(rows, (1 << k) - 1, dtype=word)  # the rows with no pivot yet
    info = np.zeros(rows, dtype=word)  # the hard decisions at the pivots, by pivot row
    ordered = np.take_along_axis(hard, order, axis=1)  # [R, n]: the hard decisions in order
    hit = np.empty_like(reduced)  # [n, R]: the flips of a step
    for step in range(n):
        v = reduced[step]
        pivot = v & free
        pivot &= -pivot  # the first free row with a 1 in the column, or none
        # add the pivot row to the column's other rows: flip them where it has
        # a 1 (where there is none, flip is 0, so the shift by the word's
        # width there flips nothing)
        flip = np.where(pivot, v ^ pivot, 0)
        later, bit = reduced[step:], hit[step:]
        np.right_shift(later, np.bitwise_count(pivot - 1), out=bit)
        bit &= 1  # the pivot row's bit
        np.negative(bit, out=bit)  # all ones where that bit is 1
        bit &= flip
        later ^= bit
        free ^= pivot
        info |= np.where(ordered[:, step], pivot, 0)
        if step >= k - 1 and not free.any():
            break
    columns = np.empty((rows, n), dtype=word)  # [R, n], in position order
    np.put_along_axis(columns, order, reduced.T, axis=1)
    base = (np.bitwise_count(columns & info[:, None]) & 1).astype(bool)  # [R, n]
    signed = np.where(base != hard, -cost, cost)
    gain = np.empty((rows, k))  # flipping pivot i moves the metric by gain[i]
    size = max(1, OSD_BLOCK // (n * k))
    for first in range(0, rows, size):
        part = columns[first:first + size]
        # the block's bits [b, n, k], cast to floats by the product
        row_bits = np.unpackbits(part.astype(f"<u{word.itemsize}").view(np.uint8)
                                 .reshape(len(part), n, word.itemsize),
                                 axis=-1, count=k, bitorder="little")
        gain[first:first + size] = np.matmul(signed[first:first + size, None], row_bits)[:, 0]
    flip = gain.argmin(axis=1)
    info ^= np.where(gain[everyone, flip] < 0.0, word.type(1) << flip.astype(word), 0)
    osd = _pack(np.bitwise_count(columns & info[:, None]) & 1)
    leaf = code.encode_words(_pack(hard[:, :k]))
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
    levels k..n, so that integer LLRs, whose subtrees share one metric,
    cannot make a round enumerate millions of tied nodes.

    A sweep (_sweep) keeps only the level-k nodes of the rows, each with
    its row's index, and follows their tails to level n.
    """
    rows, k, n = len(bm0), code.k, code.n
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
            word = code.encode_words(nodes[1, first:first + half].astype(np.uint64) ^ hard.take(w))
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
    settled = (~searched).nonzero()[0]
    # a tie off the winner's path: more nodes at zeta* than the winner's own at levels k..n
    own = _path_metrics(bm0[settled], bm1[settled], bits[settled, None])[:, 0, k - 1:]
    searched[settled] = counts[2, settled] != np.count_nonzero(own == zeta[settled, None], axis=1)
    low, tail = counts[:2].astype(np.int64).tolist()
    return [_or_none(_gda_search, code, bm0[r].tolist(), bm1[r].tolist(), extension_limit)
            if searched[r] else
            _result(low[r], low[r] + tail[r], float(zeta[r]), int(bits[r]), extension_limit)
            for r in range(rows)]


def _metric_table(trellis: Trellis, phi, out=None) -> np.ndarray:
    """Branch metric of every n_out-bit output pattern p at every level,
    for LLRs [..., N], as a flat row [..., levels << n_out] with entry
    (level << n_out) + p: the sum of |phi_j| over the positions of the
    level where p disagrees with the hard decision, added in position
    order.  The patterns are built a position at a time, with no gather:
    pattern q | 1 << i is pattern q (over positions below i) plus the cost
    of a 1 at position i, max(phi_i, 0), and pattern q becomes itself
    plus the cost of a 0, |phi_i| less that.  A cost is |phi_i| where the
    bit disagrees with the hard decision and 0.0, which adds nothing,
    where it agrees.  The table is written to out, a C-contiguous array of
    its shape, where it is given.

    Raises NonFiniteLLR unless every row's sum of |phi| is at most half
    the largest float.  A path metric adds a subset of those magnitudes
    in its own order, which rounding moves by a factor of at most about
    1 + 2N eps, so under the limit no path metric overflows to inf,
    where paths with different metrics would tie.
    """
    n_out = trellis.code.n_out
    shape = phi.shape[:-1] + (trellis.levels << n_out,)
    a = np.abs(phi)
    with np.errstate(over="ignore"):
        sums = a.sum(axis=-1)
    if not (sums <= 0.5 * sys.float_info.max).all():
        raise NonFiniteLLR("LLR magnitudes sum past half the largest float: "
                           "the path metrics could overflow")
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous array of shape {shape}")
    table = out.reshape(-1, 1 << n_out)  # one row per (trial, level)
    one = np.maximum(phi, 0.0)
    zero = np.subtract(a, one, out=a).reshape(-1, n_out)
    one = one.reshape(-1, n_out)
    table[:, 0] = 0.0
    for i in range(n_out):
        for q in range(1 << i):
            np.add(table[:, q], one[:, i], out=table[:, q | 1 << i])
            np.add(table[:, q], zero[:, i], out=table[:, q])
    return out


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
    step.  A sibling shares its level with the dive's child but never its
    state, since the two inputs lead to different next states.  Pop order
    depends only on the set of entries, whose (metric, insertion number)
    keys are unique, so every count, metric and decoded word is that of
    single steps.
    """
    phi = check_lengths(phi, trellis.n)
    inc = _metric_table(trellis, phi).tolist()
    *counts, zeta, info = _mlsda_search(trellis, inc, extension_limit)
    decoded = encode_conv(trellis.code, [(info >> t) & 1 for t in range(trellis.L)])
    return DecodeOutcome(decoded, *counts, metric=zeta)


def decode_batch(target, phi, extension_limit: int | None = None, table=None) -> list:
    """gda_decode's (BlockCode) or mlsda_decode's (Trellis) result on each
    row of LLRs phi [B, N], through _gda_batch or _mlsda_batch: a tuple
    (branch_computations, branch_computations_total, extensions, metric,
    bits), bits being the codeword (tree) or the information bits
    (trellis) as an int, bit j at position j; None where the decode
    exceeds extension_limit.  A Trellis's metric table is built in table
    [B, levels << n_out] where it is given (see _metric_table)."""
    phi = check_lengths(phi, len(phi), target.n)
    if isinstance(target, BlockCode):
        offset, bm0, bm1 = _gda_tables(phi)
        rows = _gda_batch(target, bm0, bm1, extension_limit)
        return [None if row is None else (*row[:3], row[3] + off, row[4])
                for row, off in zip(rows, offset.tolist())]
    return _mlsda_batch(target, _metric_table(target, phi, table), extension_limit)


def _first_dives(trellis: Trellis, inc: np.ndarray) -> tuple:
    """The search's first dive on every metric row of inc [B, levels <<
    n_out] at once: (reached [B], the dive's metric [B], its input bits
    [ceil(L / 8), B] packed little-endian by level), where reached marks
    the rows whose dive ends at the goal.  A memory-0 search, which never
    dives, takes the same steps one at a time.

    Level by level over every level, with the dive's own rules: f0 and f1
    add the branch metrics to the path's, the 1-child is taken only when
    f1 < f0, and a row stops diving at zeta >= the least sibling of the
    levels before.  From level L on the 1-child's metric is inf, so the
    0-child is taken and the least sibling stays.  A path's metric only
    grows and that least sibling only falls, so a row that stopped stays
    stopped, and the test after the last level tells which rows never
    stopped.  Each row's outcome depends on its own metrics alone.  The
    next state is the register rule (state << 1) | input bit, masked to m
    bits (see Trellis)."""
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
    bits = np.zeros((levels, batch), dtype=bool)
    at = np.empty((2, batch), dtype=np.int64)
    for level in range(levels):
        f = metrics[level].take(np.add(outputs.take(state, axis=1), offsets, out=at))
        f += zeta
        if level >= L:
            f[1] = math.inf
        f0, f1 = f
        one = np.less(f1, f0, out=bits[level])
        zeta = np.minimum(f0, f1)
        np.minimum(top, np.maximum(f0, f1), out=top)
        state <<= 1
        state |= one
        state &= mask
    return zeta < top, zeta, np.packbits(bits[:L], axis=0, bitorder="little")


COUNT_BLOCK = 1 << 19  # the most entries a table of the trellis count holds


def _count_rows(trellis: Trellis) -> int:
    """Rows whose min-plus tables [levels + 1, S] fit one COUNT_BLOCK
    together: 0 where none does (a memory-16 row at L = 100 has 7.7 M
    entries)."""
    return COUNT_BLOCK // ((trellis.levels + 1) * trellis.num_states)


def _mlsda_batch(trellis: Trellis, inc: np.ndarray, extension_limit) -> list:
    """_mlsda_search's result on each metric row of inc [B, levels << n_out]
    (see _metric_table), or None where the search exceeds the budget.

    A row whose first dive reaches the goal (see _first_dives) is settled
    without the search, after L + m extensions of which L branch: None
    when they exceed the budget.  The rows left are counted (see
    _mlsda_count) when their tables fit (see _count_rows) and they are at
    least half the batch: at high SNR the first dives leave too few rows
    to pay for a pass.  Otherwise, with memory m >= 1, each is walked
    from its first dive (see _dive_walks): a row whose dive path wins,
    by the walk's exact rule, is settled as one that reached the goal
    plus the off-path nodes the walk found, and every other row is
    searched.  This is the one place that chooses between the count, the
    walk and the search."""
    L, m = trellis.L, trellis.code.m
    reached, zeta, info = _first_dives(trellis, inc)
    left = np.flatnonzero(~reached)
    # row -> the off-path nodes its search extends, below level L and from L on
    off = dict.fromkeys(np.flatnonzero(reached).tolist(), (0, 0))
    results = [None] * len(inc)
    if _count_rows(trellis) and 2 * len(left) >= len(inc):
        for i, result in zip(left.tolist(), _mlsda_count(trellis, inc[left], extension_limit)):
            results[i] = result
    else:
        walks = (_dive_walks(trellis, inc[left], zeta[left], info[:, left]) if m and len(left)
                 else [None] * len(left))
        for i, walk in zip(left.tolist(), walks):
            if walk is None:
                results[i] = _or_none(_mlsda_search, trellis, inc[i].tolist(), extension_limit)
            else:
                off[i] = walk
    for i, (low, tail) in off.items():
        results[i] = _result(L + low, L + m + low + tail, float(zeta[i]),
                             int.from_bytes(info[:, i].tobytes(), "little"), extension_limit)
    return results


def _dive_walks(trellis: Trellis, inc: np.ndarray, zeta: np.ndarray, info: np.ndarray) -> list:
    """For each metric row of inc [R, levels << n_out] of a code with
    memory m >= 1, with its first dive's metric zeta [R] and packed input
    bits info [ceil(L / 8), R] (see _first_dives): (the off-path nodes the
    search extends below level L, those from level L on) where the walk
    settles the row, else None.

    The dive path pi (its states, its prefix metrics by the search's
    sequential adds, and its siblings) is built in numpy for all rows at
    once; then each row's walk (_walk) goes level by level over the nodes
    off pi whose Viterbi metric V lies at or below T = zeta >= zeta*,
    starting from pi's siblings there.  Float adds of nonnegative metrics
    never fall, so every node on a least path into such a node lies at
    or below T too, and the walk's least arrival at a node is its V.

    Where no off-path arrival at a node of pi is at or below pi's prefix
    there, every node of pi keeps its pi path, so pi wins and zeta* = T;
    where besides no off-path node has V == T, the search extends pi's
    nodes below the goal and exactly the off-path nodes with V < T (see
    _mlsda_count).  The walk declines a row that breaks either rule, or
    that holds more than L + m off-path nodes at or below T, the dive's
    own length."""
    n_out, m, L, levels = trellis.code.n_out, trellis.code.m, trellis.L, trellis.levels
    rows, mask = len(inc), trellis.num_states - 1
    bits = np.zeros((levels, rows), dtype=np.intp)
    bits[:L] = np.unpackbits(info, axis=0, count=L, bitorder="little")
    # pi's state at each level: by the register rule, bit i is the input
    # i + 1 levels back, gathered over windows that double
    states = np.zeros((levels + 1, rows), dtype=np.intp)
    states[1:] = bits
    width = 1
    while width < m:
        states[width:] |= states[:-width] << width
        width *= 2
    states &= mask
    here, flat = states[:levels], inc.ravel()
    at = (np.arange(levels) << n_out)[:, None] + np.arange(rows) * (levels << n_out)
    prefix = np.zeros((levels + 1, rows))
    np.cumsum(flat.take(at + trellis.outputs[bits, here]), axis=0, out=prefix[1:])
    flipped = 1 - bits[:L]
    siblings = prefix[:L] + flat.take(at[:L] + trellis.outputs[flipped, here[:L]])
    sibling_states = ((here[:L] << 1) | flipped) & mask
    # pi's siblings at or below T, ascending by row and, within one, by level
    row_at, level_at = np.nonzero((siblings <= zeta).T)
    found = list(zip((level_at + 1).tolist(), sibling_states[level_at, row_at].tolist(),
                     siblings[level_at, row_at].tolist()))
    starts = np.searchsorted(row_at, np.arange(rows + 1)).tolist()
    return [_walk(trellis, inc, states, prefix, r, T, found[starts[r]:starts[r + 1]])
            for r, T in enumerate(zeta.tolist())]


def _walk(trellis: Trellis, inc: np.ndarray, path: np.ndarray, prefix: np.ndarray, r: int,
          T: float, siblings: list) -> tuple | None:
    """_dive_walks' walk on row r of its arrays: the metric rows inc [R,
    levels << n_out], the dive path's states path and prefix metrics
    prefix [levels + 1, R], its metric T and its siblings at or below T as
    (level, state, metric), ascending by level.  Returns (off-path nodes
    below level L, from L on) at V <= T, or None where it declines the
    row: it declines at once when the nodes it has counted and the
    siblings still ahead, each a node of its own level, pass L + m.  It
    reads the arrays one entry at a time (ndarray.item), since a row
    walks only a few levels."""
    branches = tuple(enumerate(trellis.output_lists))  # (input bit, its outputs by state)
    n_out, L, levels, mask = trellis.code.n_out, trellis.L, trellis.levels, trellis.num_states - 1
    metric, inf = inc.item, math.inf
    low = nodes = 0
    ahead = len(siblings)  # siblings past level, each an off-path node of its own level
    level, frontier = 0, {}  # the off-path nodes at level with V <= T, by state
    for sibling_level, state, v in siblings + [(levels, 0, inf)]:
        while frontier and level < sibling_level:
            if T in frontier.values():
                return None
            nodes += len(frontier)
            if nodes + ahead > levels:
                return None
            row, inputs = level << n_out, branches if level < L else branches[:1]
            pi_state, pi_metric = path.item(level + 1, r), prefix.item(level + 1, r)
            after = {}
            for s, f in frontier.items():
                reg = (s << 1) & mask
                for b, out in inputs:
                    ns = reg | b
                    w = f + metric(r, row + out[s])
                    if ns == pi_state:
                        if w <= pi_metric:
                            return None
                    elif w <= T and not w >= after.get(ns, inf):
                        after[ns] = w
            if level < L:
                low += len(frontier)
            frontier = after
            level += 1
        level, ahead = sibling_level, ahead - 1
        if not v >= frontier.get(state, inf):
            frontier[state] = v
    return low, nodes - low


def _mlsda_count(trellis: Trellis, inc: np.ndarray, extension_limit) -> list:
    """_mlsda_search's result on each metric row of inc [R, levels << n_out],
    or None where the search exceeds the budget, from the Viterbi metric
    V of every node (its least path metric, with the search's own float
    adds), by one min-plus pass (min_path_costs) over as many rows at a
    time as _count_rows allows, each filling the one table the call
    allocates.

    The search extends every node below level L + m with V < zeta*, the
    goal's V, and no node with V > zeta*; its counts are those of the
    nodes with V <= zeta* when the only nodes at exactly zeta* are the
    winner's own (its zero-metric suffix, which the search extends too),
    and its inputs are those of the traced winner (min_path_inputs) when
    no node of that path has tied branches.  A row that breaks either rule
    is searched."""
    L, levels, nst = trellis.L, trellis.levels, trellis.num_states
    step = _count_rows(trellis)
    buffer = np.empty((levels + 1) * min(step, len(inc)) * nst, dtype=inc.dtype)
    results = []
    for first in range(0, len(inc), step):
        rows = inc[first:first + step]
        costs = rows.reshape(len(rows), levels, -1).transpose(1, 0, 2)
        table = min_path_costs(trellis, costs, math.inf, buffer[:(levels + 1) * len(rows) * nst]
                               .reshape(levels + 1, len(rows), nst))
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
        results += [_or_none(_mlsda_search, trellis, rows[i].tolist(), extension_limit)
                    if searched[i] else
                    _result(low[i], low[i] + tail[i], float(zeta[i]),
                            int.from_bytes(info[:, i].tobytes(), "little"), extension_limit)
                    for i in range(len(rows))]
    return results


def _mlsda_search(trellis: Trellis, inc: list, extension_limit) -> tuple:
    """The trellis search on a prebuilt metric row (a flat list indexed
    (level << n_out) + output pattern, see _metric_table).

    Returns (branch_computations, branch_computations_total, extensions,
    path metric, information bits as an int) of the path that reached
    the goal node.
    """
    heappush, heappop, heapreplace = heapq.heappush, heapq.heappop, heapq.heapreplace
    outputs = trellis.output_lists
    out0, out1 = outputs
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
            return _result(low_extensions, extensions, zeta, info, None)
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
                    row = level << n_out
                    f0 = zeta + inc[row + out0[state]]
                    f1 = zeta + inc[row + out1[state]]
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
                    zeta += inc[(level << n_out) + out0[state]]
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
            row, reg = level << n_out, state << 1
            child_level = level + 1
            base = child_level << m
            for b in inputs:
                ns = (reg | b) & mask
                child = base | ns
                child_zeta = zeta + inc[row + outputs[b][state]]
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
    best = []  # (-correlation, bits) of each chunk's least tied word
    for words in code.codeword_chunks():
        bits = ((words[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
        corr = (1.0 - 2.0 * bits) @ phi
        top = corr.max()
        ties = bits[corr == top]
        least = ties[np.lexsort(ties.T[::-1])[0]]  # bit 0 is the primary key
        best.append((-float(top), tuple(least.tolist())))
    return np.array(min(best)[1], dtype=np.uint8)


def viterbi_ml(trellis: Trellis, phi) -> np.ndarray:
    """ML oracle for the trellis decoder: the min-plus pass over the
    metrics of _metric_table, traced back from the goal node."""
    phi = check_lengths(phi, trellis.n)
    inc = _metric_table(trellis, phi).reshape(trellis.levels, 1, -1)
    inputs = min_path_inputs(trellis, inc, min_path_costs(trellis, inc, math.inf))[0]
    return encode_conv(trellis.code, inputs[:, 0])
