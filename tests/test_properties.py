"""Properties over random small codes, each checked against a scalar or
per-trial reference kept here: the trellis layer on convolutional codes
(memory <= 4, 2-3 outputs, L <= 8), the tree search and its entry point
(with the count taking over early) on systematic block codes (k <= 10)
and the Golay code, its batch entry point (and the rows it settles as
straight dives) against the search row by row, the trellis search
against a plain two-stack search, its batch entry point and its count
(also cut into several passes) against the search row by row, the Viterbi oracle against all 2^L
inputs, the harness's batched trial pipeline on both (with the tree
count taking over early too, and with batches of 1, 7 and 64 trials)
and each of its two stages, trial_llrs and
decode_batch, against the one-trial path, the batched stream seeding
against numpy's SeedSequence and RngStream, and the per-pair bound of a
whole evaluation against the scalar one."""

import math
import sys
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from seqdec import decoders, harness
from seqdec.bounds import (
    BERRY_ESSEEN,
    CHERNOFF,
    _log_bounds,
    extension_probability_bounds,
    mlsda_complexity_bound,
)
from seqdec.channel import ChannelConfig, db_to_linear, hard_decision, llr, transmit
from seqdec.codes import BlockCode, ConvCode, build_extended_golay, encode_block, encode_conv
from seqdec.decoders import (
    ExtensionLimitExceeded,
    _gda_batch,
    _gda_search,
    _gda_tables,
    _gda_tree,
    _metric_table,
    _mlsda_batch,
    _mlsda_search,
    brute_force_ml_block,
    decode_batch,
    gda_decode,
    mlsda_decode,
    viterbi_ml,
)
from seqdec.harness import ExperimentConfig, _run_trials, dstar_by_enumeration, trial_llrs
from seqdec.numerics import RngStream, seed_states, stream_uniforms
from seqdec.trellis import ABSENT, build_trellis, compute_dstar

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def conv_codes(draw):
    m = draw(st.integers(0, 4))
    n_out = draw(st.integers(2, 3))
    tap = st.tuples(*[st.integers(0, 1)] * (m + 1))
    taps = draw(st.tuples(*[tap] * n_out).filter(lambda t: any(v[0] for v in t)))
    return ConvCode(n_out=n_out, m=m, taps=taps)


@st.composite
def trellises(draw):
    return build_trellis(draw(conv_codes()), draw(st.integers(1, 8)))


@st.composite
def block_codes(draw):
    k = draw(st.integers(1, 10))
    parity = draw(st.integers(0, 8))
    rows = tuple((1 << i) | (draw(st.integers(0, (1 << parity) - 1)) << k) for i in range(k))
    return BlockCode(n=k + parity, k=k, rows=rows)


def shift_register_encode(code, info) -> list:
    """Reference encoder: reg[j] holds the input j steps back."""
    reg = [0] * (code.m + 1)
    out = []
    for bit in list(info) + [0] * code.m:
        reg = [int(bit)] + reg[:-1]
        for tap in code.taps:
            out.append(sum(t & r for t, r in zip(tap, reg)) & 1)
    return out


def disagreement_metric(phi, word) -> float:
    return float(np.sum((hard_decision(phi) ^ word) * np.abs(phi)))


def per_state_bound(trellis, gamma_b_db, variant) -> float:
    """The bound as one term per present (level, state), all evaluated in
    one call and summed one by one in ascending order."""
    code = trellis.code
    N = code.n_out * trellis.levels
    gamma = (trellis.L / N) * db_to_linear(gamma_b_db)
    dstar = compute_dstar(trellis)[:trellis.L]
    level, state = np.nonzero(dstar != ABSENT)  # row-major: ascending (level, state)
    total = 0.0
    for term in extension_probability_bounds(dstar[level, state], N - level * code.n_out,
                                             gamma, variant).tolist():
        total += term
    return 2 * total


@PROPERTY_SETTINGS
@given(conv_codes(), st.lists(st.integers(0, 1), min_size=1, max_size=8))
def test_encoder_matches_shift_register(code, info):
    assert encode_conv(code, info).tolist() == shift_register_encode(code, info)


@PROPERTY_SETTINGS
@given(trellises())
def test_dstar_matches_enumeration(trellis):
    assert np.array_equal(compute_dstar(trellis),
                          dstar_by_enumeration(trellis.code, trellis.L))


@PROPERTY_SETTINGS
@given(trellises(), st.data())
def test_mlsda_metric_equals_viterbi(trellis, data):
    N = trellis.code.n_out * trellis.levels
    phi = np.array(data.draw(st.lists(st.floats(-6.0, 6.0), min_size=N, max_size=N)))
    out = mlsda_decode(trellis, phi)
    want = viterbi_ml(trellis, phi)
    assert out.metric == pytest.approx(disagreement_metric(phi, want), abs=1e-9)
    assert out.metric == pytest.approx(disagreement_metric(phi, out.decoded), abs=1e-9)
    assert out.branch_computations >= 2 * trellis.L


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 300)).filter(lambda p: sum(p) >= 1),
                min_size=1, max_size=12),
       st.floats(0.01, 30.0))
@example([(1, 1)], 14.57)  # tilted variance <= 0
@example([(3, 7)], 14.979)  # margin a <= 0
@example([(1, 1)], 1.2589)  # prefactor clamped at 1
@example([(2, 1)], 25.795)  # prefactor below 1
@example([(1, 1)], 20.0)  # Gaussian tail's log Phi argument below -5 (erfcx)
@example([(327, 8828)], 0.8200000000000001)  # above the threshold, but no tilt root
@example([(5, 0)], 1.0)  # clipped == 0: the plain Gaussian tail
@example([(0, 10)], 1.0)  # d == 0: certain
@example([(1, 2)], 0.05)  # ratio below the mean-positivity threshold
@example([(1, 4), (2, 8), (3, 12), (1, 4), (4, 1), (0, 3), (6, 0)], 1.0)  # shared ratios
def test_log_bounds_equal_scalar_reference(scalar_log_bound, pairs, gamma):
    # every element of one evaluation's log bounds equals the scalar
    # per-pair bound, bit for bit
    for variant in (BERRY_ESSEEN, CHERNOFF):
        got = [float(x).hex() for x in _log_bounds(pairs, gamma, variant)]
        assert got == [scalar_log_bound(d, c, gamma, variant).hex() for d, c in pairs]


@PROPERTY_SETTINGS
@given(trellises(), st.floats(-3.0, 10.0), st.sampled_from([BERRY_ESSEEN, CHERNOFF]))
def test_bound_equals_per_state_sum(trellis, gamma_b_db, variant):
    # exact equality: the level-vectorized sum must keep the scalar order
    assert (mlsda_complexity_bound(trellis, gamma_b_db, variant)
            == per_state_bound(trellis, gamma_b_db, variant))


def squared_distance(phi, word) -> float:
    return float(np.sum((phi - (1.0 - 2.0 * word)) ** 2))


@PROPERTY_SETTINGS
@given(block_codes(), st.data())
def test_gda_metric_equals_brute_force(code, data):
    phi = np.array(data.draw(st.lists(st.floats(-6.0, 6.0), min_size=code.n,
                                      max_size=code.n)))
    out = gda_decode(code, phi)
    want = brute_force_ml_block(code, phi)
    assert out.metric == pytest.approx(squared_distance(phi, want), rel=1e-12, abs=1e-9)
    assert out.metric == pytest.approx(squared_distance(phi, out.decoded),
                                       rel=1e-12, abs=1e-9)
    assert out.branch_computations >= 2 * code.k
    assert out.branch_computations_total >= 2 * code.k + code.n - code.k
    again = gda_decode(code, phi)
    assert (again.decoded.tolist(), again.branch_computations,
            again.branch_computations_total, again.extensions, again.metric.hex()) == (
        out.decoded.tolist(), out.branch_computations, out.branch_computations_total,
        out.extensions, out.metric.hex())


def near_tie_llrs(seed: int, n: int) -> np.ndarray:
    """n LLRs of random signs whose magnitudes lie within 64 ulps of each
    other, but for one huge |phi|: the disagreeing children's metrics
    c_a != c_b then often give f + c_a == f + c_b after rounding."""
    gen = np.random.default_rng(seed)
    base = gen.uniform(0.1, 3.0)
    phi = gen.choice([-1.0, 1.0], n) * (base + gen.integers(0, 64, n) * math.ulp(base))
    phi[gen.integers(n)] *= gen.uniform(1e2, 1e6)
    return phi


@st.composite
def tree_search_inputs(draw):
    """A code (random systematic with k <= 10, or Golay) and LLRs of one
    of three kinds: continuous, integer-valued in {0, +-1, +-2} (so that
    many paths tie), or near ties (see near_tie_llrs)."""
    code = draw(st.one_of(block_codes(), st.builds(build_extended_golay)))
    return code, tree_llrs(draw, code.n)


def tree_llrs(draw, n: int) -> np.ndarray:
    """n LLRs of one of three kinds: continuous, integer-valued in
    {0, +-1, +-2} (so that many paths tie), or near ties (see
    near_tie_llrs)."""
    kind = draw(st.sampled_from(["continuous", "integer", "near-ties"]))
    if kind == "continuous":
        return np.array(draw(st.lists(st.floats(-6.0, 6.0), min_size=n, max_size=n)))
    if kind == "integer":
        return np.array(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)), dtype=float)
    return near_tie_llrs(draw(st.integers(0, 2**32 - 1)), n)


@st.composite
def tree_batch_inputs(draw):
    """A code (random systematic with k <= 10, or Golay), a batch of 1-6
    LLR rows for it (see tree_llrs) and an extension budget: 5, 50 or
    none."""
    code = draw(st.one_of(block_codes(), st.builds(build_extended_golay)))
    rows = [tree_llrs(draw, code.n) for _ in range(draw(st.integers(1, 6)))]
    return code, np.array(rows), draw(st.sampled_from([5, 50, None]))


@settings(max_examples=300, deadline=None)
@given(tree_search_inputs(), st.sampled_from([5, 50, None]))
@example((build_extended_golay(), near_tie_llrs(5, 24)), None)  # many fan ties of unequal c
# parity bit 3 = b0 forces b0 = 1 (f = 28); parity bit 4 = b1 ^ b2 then wants one
# flip, and c1 > c2 although 28 + c1 == 28 + c2: the lower insertion number (b1)
# must win the tie, not the lower c
@example((BlockCode(n=5, k=3, rows=(0b01001, 0b10010, 0b10100)),
          np.array([7.0, 0.5 + 2 * math.ulp(0.5), 0.5, -1e3, -1e3])), None)
# parity bit 2 = b0 forces b0 = 1 (f = 28); c1 > 0 but 28 + c1 == 28, so both
# children of level 1 tie and no whole dive may cross it
@example((BlockCode(n=3, k=2, rows=(0b101, 0b010)), np.array([7.0, -3e-16, -1e3])), None)
def test_gda_search_matches_textbook(textbook_gda, inputs, limit):
    # every count, the metric's bits and the path bits equal those of the
    # plain pop-every-path search; the budget trips exactly when its
    # extension count exceeds the limit
    code, phi = inputs
    _, bm0, bm1 = _gda_tables(phi)
    bm0, bm1 = bm0.tolist(), bm1.tolist()
    *counts, metric, bits, _ = textbook_gda(code, bm0, bm1)
    if limit is not None and counts[2] > limit:
        with pytest.raises(ExtensionLimitExceeded):
            _gda_search(code, bm0, bm1, limit)
        return
    *got, got_metric, got_bits = _gda_search(code, bm0, bm1, limit)
    assert (got, got_metric.hex(), got_bits) == (counts, metric.hex(), bits)


@settings(max_examples=300, deadline=None)
@given(tree_search_inputs(), st.sampled_from([5, 50, None]))
# two codewords tie at zeta*: the count must hand the trial back to the search
@example((build_extended_golay(),
          np.array([-1, 0, -1, 1, 0, -1, -1, -1, 0, 2, -2, 1,
                    2, 0, -1, 2, 2, -1, -2, 1, 0, -2, -1, -2], dtype=float)), None)
# one leaf at zeta* = 4 (information bits 0, 1), but the level-k nodes of
# information bits 0, 0 and 1, 1 have f = 4 too: again the search decides
@example((BlockCode(n=6, k=2, rows=(53, 18)), np.array([1.0, -1.0, 0.0, -1.0, -2.0, 2.0])),
         None)
# from a search budget of 0 or 1, the count finds more than 5 nodes at or
# below zeta*: the row overflows
@example((BlockCode(n=5, k=4, rows=(1, 18, 4, 24)), np.array([0.0, 2.0, 1.0, 1.0, -2.0])), 5)
# from a budget of 0, the count finds exactly the 5 nodes that the search
# extends: 5 extensions do not exceed a limit of 5
@example((BlockCode(n=5, k=3, rows=(9, 2, 4)), np.array([-3.0, 2.5, -2.5, -1.2, -0.1])), 5)
def test_gda_tree_matches_textbook(textbook_gda, inputs, limit):
    # the entry point, with the count taking over after 0, 1 or 5
    # extensions, gives every count, the metric's bits and the path bits
    # of the plain search, and overflows exactly when it does; blocks of
    # 64 nodes make the count split its sweeps and sweep again at zeta*
    code, phi = inputs
    _, bm0, bm1 = _gda_tables(phi)
    bm0, bm1 = bm0.tolist(), bm1.tolist()
    *counts, metric, bits, _ = textbook_gda(code, bm0, bm1)
    full = decoders.SWEEP_BLOCK
    for budget, block in ((0, 64), (0, full), (1, full), (5, full)):
        with mock.patch.multiple(decoders, SEARCH_BUDGET=budget, SWEEP_BLOCK=block):
            if limit is not None and counts[2] > limit:
                with pytest.raises(ExtensionLimitExceeded):
                    _gda_tree(code, bm0, bm1, limit)
                continue
            *got, got_metric, got_bits = _gda_tree(code, bm0, bm1, limit)
        assert (got, got_metric.hex(), got_bits) == (counts, metric.hex(), bits)


def searched_tree_rows(code, bm0, bm1, limit) -> list:
    """_gda_search on each branch-metric row alone, None where it overflows."""
    results = []
    for a, b in zip(bm0.tolist(), bm1.tolist()):
        try:
            results.append(_gda_search(code, a, b, limit))
        except ExtensionLimitExceeded:
            results.append(None)
    return results


# the four pinned examples of test_gda_tree_matches_textbook, each in a batch
GOLAY_TIE = np.array([-1, 0, -1, 1, 0, -1, -1, -1, 0, 2, -2, 1,
                      2, 0, -1, 2, 2, -1, -2, 1, 0, -2, -1, -2], dtype=float)


@settings(max_examples=300, deadline=None)
@given(tree_batch_inputs())
# two codewords tie at zeta*, beside a row of near ties and a clean one
@example((build_extended_golay(), np.array([GOLAY_TIE, near_tie_llrs(5, 24), [1.0] * 24]),
          None))
# a level-k node off the winner's path at zeta*, beside a row that is a
# codeword's signs
@example((BlockCode(n=6, k=2, rows=(53, 18)), np.array([[1.0, -1.0, 0.0, -1.0, -2.0, 2.0],
                                                        [2.0, -2.0, 2.0, 2.0, -2.0, 2.0]]),
          None))
# a round proves the overflow, beside a row that needs no count
@example((BlockCode(n=5, k=4, rows=(1, 18, 4, 24)), np.array([[0.0, 2.0, 1.0, 1.0, -2.0],
                                                               [3.0] * 5]), 5))
# a round counts exactly the limit, twice over
@example((BlockCode(n=5, k=3, rows=(9, 2, 4)), np.array([[-3.0, 2.5, -2.5, -1.2, -0.1]] * 2),
          5))
def test_gda_batch_matches_search(inputs):
    # every row's result from the batch entry point, with blocks of 64
    # nodes or full ones and the count taking over after 0, 1 or 5
    # extensions where rows are searched (a lone row, or a batch that its
    # straight dives leave less than half of; a batch with at least half
    # its rows left is counted whatever the budget), counts, the metric's
    # bits and the path bits, is that of the search on the row alone, and
    # the row overflows exactly when the search does
    code, phi, limit = inputs
    _, bm0, bm1 = _gda_tables(phi)
    want = searched_tree_rows(code, bm0, bm1, limit)
    full = decoders.SWEEP_BLOCK
    for budget, block in ((0, 64), (0, full), (1, full), (5, full)):
        with mock.patch.multiple(decoders, SEARCH_BUDGET=budget, SWEEP_BLOCK=block):
            got = _gda_batch(code, bm0, bm1, limit)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            if w is None:
                assert g is None
            else:
                assert g is not None
                assert (*g[:3], g[3].hex(), g[4]) == (*w[:3], w[3].hex(), w[4])
                assert type(g[3]) is float and type(g[4]) is int


@st.composite
def high_snr_tree_batches(draw):
    """A code (random systematic with k <= 10, or Golay) and a batch of 2-6
    LLR rows for it near a codeword's signs, with magnitudes of 1 to 6
    plus noise in [-2, 2], so that most rows are straight dives.  A row
    may hold an exact zero (a level whose children tie, where the least
    flip metric is 0.0 if it lies below level k), or have its parity bits
    follow its hard leaf but for one, whose magnitude is the least of the
    information positions', moved by -1, 0 or 1 ulp: its leaf metric then
    ties or nearly ties the least flip metric."""
    code = draw(st.one_of(block_codes(), st.builds(build_extended_golay)))
    k, n = code.k, code.n
    rows = []
    for _ in range(draw(st.integers(2, 6))):
        info = np.array(draw(st.lists(st.integers(0, 1), min_size=k, max_size=k)), dtype=np.uint8)
        noise = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
        phi = (1.0 - 2.0 * encode_block(code, info)) * (draw(st.floats(1.0, 6.0)) + noise)
        kind = draw(st.sampled_from(["plain", "zero", "tie"]))
        if kind == "zero":
            phi[draw(st.integers(0, n - 1))] = 0.0
        elif kind == "tie" and n > k:
            signs = 1.0 - 2.0 * encode_block(code, hard_decision(phi[:k]))
            phi[k:] = signs[k:] * np.abs(phi[k:])
            parity = draw(st.integers(k, n - 1))
            least = float(np.abs(phi[:k]).min())
            phi[parity] = -signs[parity] * (least + draw(st.integers(-1, 1)) * math.ulp(least))
        rows.append(phi)
    return code, np.array(rows)


@PROPERTY_SETTINGS
@given(high_snr_tree_batches())
def test_straight_dives_match_search(inputs):
    # every row that the batch settles as a straight dive has the counts,
    # the metric's bits and the path bits of the search on the row alone,
    # and is None exactly where that search raises: under no limit, one
    # extension short of the dive, and at exactly its n extensions
    code, phi = inputs
    _, bm0, bm1 = _gda_tables(phi)
    straight = decoders._straight_dives(code, bm0, bm1)[0]
    for limit in (None, code.n - 1, code.n):
        got = _gda_batch(code, bm0, bm1, limit)
        want = searched_tree_rows(code, bm0[straight], bm1[straight], limit)
        for g, w in zip([got[i] for i in np.flatnonzero(straight)], want):
            if w is None:
                assert g is None
            else:
                assert (*g[:3], g[3].hex(), g[4]) == (*w[:3], w[3].hex(), w[4])
                assert type(g[3]) is float and type(g[4]) is int


@PROPERTY_SETTINGS
@given(tree_batch_inputs())
def test_osd_bound_is_a_codeword_above_winner(textbook_gda, inputs):
    # the count's first threshold U is the metric of a codeword, taken with
    # the search's sequential adds, so it bounds zeta* from above, and it is
    # zeta* bit for bit where that codeword wins
    code, phi, _ = inputs
    _, bm0, bm1 = _gda_tables(phi)
    bounds, words = decoders._osd_bound(code, bm0, bm1)
    with mock.patch.object(decoders, "OSD_BLOCK", 1):  # one row at a time
        one_by_one = decoders._osd_bound(code, bm0, bm1)
    assert bounds.tobytes() == one_by_one[0].tobytes()
    assert words.tolist() == one_by_one[1].tolist()
    for a, b, bound, word in zip(bm0.tolist(), bm1.tolist(), bounds.tolist(), words.tolist()):
        bits = [(word >> j) & 1 for j in range(code.n)]
        assert encode_block(code, bits[:code.k]).tolist() == bits
        f = 0.0
        for j, bit in enumerate(bits):
            f += b[j] if bit else a[j]
        assert bound.hex() == f.hex()
        zeta, winner = textbook_gda(code, a, b)[3:5]
        assert bound >= zeta
        if word == winner:
            assert bound.hex() == zeta.hex()


def trellis_llrs(draw, N: int) -> np.ndarray:
    """N LLRs of one of two kinds: continuous, or integer-valued in
    {0, +-1, +-2}, so that many paths and merges tie."""
    if draw(st.booleans()):
        return np.array(draw(st.lists(st.floats(-6.0, 6.0), min_size=N, max_size=N)))
    return np.array(draw(st.lists(st.integers(-2, 2), min_size=N, max_size=N)), dtype=float)


@st.composite
def trellis_search_inputs(draw):
    """A trellis (memory 0-4) and LLRs (see trellis_llrs)."""
    trellis = draw(trellises())
    return trellis, trellis_llrs(draw, trellis.code.n_out * trellis.levels)


def codeword_llrs(draw, trellis) -> np.ndarray:
    """LLRs whose signs spell a random codeword but for up to three flips,
    so that the search's first dive often reaches the goal."""
    word = encode_conv(trellis.code, draw(st.lists(st.integers(0, 1), min_size=trellis.L,
                                                   max_size=trellis.L)))
    N = len(word)
    signs = 1.0 - 2.0 * word
    signs[draw(st.lists(st.integers(0, N - 1), max_size=3))] *= -1.0
    return signs * np.array(draw(st.lists(st.floats(0.0, 6.0), min_size=N, max_size=N)))


@st.composite
def trellis_batch_inputs(draw):
    """A trellis (memory 0-4), a batch of 1-6 LLR rows (see trellis_llrs
    and codeword_llrs) and an extension budget: 5, 50, one short of a
    straight dive to the goal (L + m extensions), exactly that, or none."""
    trellis = draw(trellises())
    N = trellis.code.n_out * trellis.levels
    rows = [codeword_llrs(draw, trellis) if draw(st.booleans()) else trellis_llrs(draw, N)
            for _ in range(draw(st.integers(1, 6)))]
    limit = draw(st.sampled_from([5, 50, trellis.levels - 1, trellis.levels, None]))
    return trellis, np.array(rows), limit


@settings(max_examples=300, deadline=None)
@given(trellis_search_inputs(), st.sampled_from([5, 50, None]))
# both children of the root tie at metric 8e307 (the 1.0 rounds away) and
# the stack is empty: the first extension must still follow the 0-child,
# and the decoded word is all zeros
@example((build_trellis(ConvCode(n_out=3, m=1, taps=((1, 0), (0, 1), (0, 1))), 3),
          np.array([1.0, -4e307, -4e307] + [1.0] * 9)), None)
def test_mlsda_search_matches_textbook(textbook_mlsda, inputs, limit):
    # every count, the metric's bits and the information bits equal those
    # of the plain two-stack search; the budget trips exactly when its
    # extension count exceeds the limit
    trellis, phi = inputs
    inc = _metric_table(trellis, phi).tolist()
    *counts, metric, info = textbook_mlsda(trellis, inc)
    if limit is not None and counts[2] > limit:
        with pytest.raises(ExtensionLimitExceeded):
            _mlsda_search(trellis, inc, limit)
        return
    *got, got_metric, got_info = _mlsda_search(trellis, inc, limit)
    assert (got, got_metric.hex(), got_info) == (counts, metric.hex(), info)


def searched_rows(trellis, inc, limit) -> list:
    """_mlsda_search on each metric row alone, None where it overflows."""
    results = []
    for row in inc:
        try:
            results.append(_mlsda_search(trellis, row.tolist(), limit))
        except ExtensionLimitExceeded:
            results.append(None)
    return results


# the (2,1,2) code with generators 7, 5 at L = 4: a straight dive to the
# goal takes L + m = 6 extensions
CONV_75_L4 = build_trellis(ConvCode(n_out=2, m=2, taps=((1, 1, 1), (1, 0, 1))), 4)


@settings(max_examples=300, deadline=None)
@given(trellis_batch_inputs())
# the tie at 8e307 of test_mlsda_search_matches_textbook, as a batch of one:
# the dive must stop at the root's tied sibling and leave the row to the search
@example((build_trellis(ConvCode(n_out=3, m=1, taps=((1, 0), (0, 1), (0, 1))), 3),
          np.array([[1.0, -4e307, -4e307] + [1.0] * 9]), None))
# one batch, three kinds of row: the all-zero word received cleanly dives
# straight to the goal; a flipped symbol at level 1 ties the children there,
# so the dive stops at level 2 on its sibling's metric; two at level 3 send
# the dive along a 1-branch, and its tail climbs to the earlier siblings
@example((CONV_75_L4, np.array([[1.0] * 12,
                            [1.0, 1.0, -1.0, 1.0] + [1.0] * 8,
                            [1.0] * 6 + [-2.0, -2.0] + [1.0] * 4]), None))
# the same batch at a budget one short of a straight dive: every row overflows
@example((CONV_75_L4, np.array([[1.0] * 12,
                            [1.0, 1.0, -1.0, 1.0] + [1.0] * 8,
                            [1.0] * 6 + [-2.0, -2.0] + [1.0] * 4]), 5))
def test_mlsda_batch_matches_search(inputs):
    # every row's result from the batch entry point, counts, the metric's
    # bits and the information bits, is that of the search on the row
    # alone, and the row overflows exactly when the search does
    trellis, phi, limit = inputs
    inc = _metric_table(trellis, phi)
    got = _mlsda_batch(trellis, inc, limit)
    want = searched_rows(trellis, inc, limit)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert g is not None
            assert (*g[:3], g[3].hex(), g[4]) == (*w[:3], w[3].hex(), w[4])
            assert type(g[3]) is float and type(g[4]) is int


def counted_rows(trellis, inc, limit) -> list:
    """_mlsda_batch with no row settled by its first dive, so that every
    row of a code with memory >= 1 goes to the count."""
    with mock.patch.object(decoders, "_first_dives",
                           lambda trellis, inc: (np.zeros(len(inc), dtype=bool), None, None)):
        return _mlsda_batch(trellis, inc, limit)


@settings(max_examples=300, deadline=None)
@given(trellis_batch_inputs())
# three nodes off the winner's path lie at exactly zeta* = 3, and the
# search extends only some of them: 12 extensions, where 13 nodes lie at
# or below zeta*
@example((CONV_75_L4, np.array([[-1.0, 1.0, -2.0, -1.0, 1.0, 2.0,
                                 0.0, 2.0, -1.0, -2.0, 1.0, -1.0]]), None))
# both branches into a node of the winner's path give its metric
@example((CONV_75_L4, np.array([[-2.0, 2.0, 0.0, 0.0, 1.0, -1.0,
                                 1.0, 2.0, 2.0, -2.0, 2.0, 1.0]]), None))
# both branches into the goal give zeta*
@example((CONV_75_L4, np.array([[1.0, 2.0, -2.0, 1.0, -1.0, 0.0,
                                 2.0, -1.0, 1.0, -2.0, -1.0, 2.0]]), None))
# the winner reaches zeta* = 1 at level 2 and its branches add 0 from there:
# the search extends its four nodes at zeta*, and no other node lies there
@example((CONV_75_L4, np.array([[-2.0, -1.0, -1.0, -2.0, 0.0, 1.0,
                                 2.0, -1.0, -1.0, 0.0, 0.0, 2.0]]), None))
# a memory-0 code, whose search never dives, is counted too
@example((build_trellis(ConvCode(n_out=2, m=0, taps=((1,), (1,))), 3),
          np.array([[1.0, -1.0, 0.0, 2.0, -2.0, 1.0], [0.0] * 6]), 2))
def test_mlsda_count_matches_search(inputs):
    # with no row settled by its first dive, every row's result from the
    # batch entry point (the count, where the code has memory), counts,
    # the metric's bits and the information bits, is that of the search
    # on the row alone, and the row overflows exactly when the search does
    trellis, phi, limit = inputs
    inc = _metric_table(trellis, phi)
    got = counted_rows(trellis, inc, limit)
    want = searched_rows(trellis, inc, limit)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert g is not None
            assert (*g[:3], g[3].hex(), g[4]) == (*w[:3], w[3].hex(), w[4])
            assert type(g[3]) is float and type(g[4]) is int


@settings(max_examples=300, deadline=None)
@given(trellis_batch_inputs(), st.data())
def test_mlsda_count_chunks_match_search(inputs, data):
    # with COUNT_BLOCK holding fewer rows than the batch, one count call
    # makes several min-plus passes into its one table, the last over
    # fewer rows; every row's result is still that of the search alone
    trellis, phi, limit = inputs
    assume(trellis.code.m and len(phi) >= 3)
    rows = data.draw(st.sampled_from([r for r in range(1, len(phi)) if len(phi) % r]))
    table = (trellis.levels + 1) * trellis.num_states
    inc = _metric_table(trellis, phi)
    with mock.patch.multiple(decoders, COUNT_BLOCK=rows * table
                             + data.draw(st.integers(0, table - 1))), \
            mock.patch.object(decoders, "min_path_costs",
                              wraps=decoders.min_path_costs) as passes:
        got = counted_rows(trellis, inc, limit)
    outs = [call.args[3] for call in passes.call_args_list]
    assert [out.shape[1] for out in outs] == [rows] * (len(phi) // rows) + [len(phi) % rows]
    assert all(np.shares_memory(out, outs[0]) for out in outs)
    want = searched_rows(trellis, inc, limit)
    for g, w in zip(got, want, strict=True):
        if w is None:
            assert g is None
        else:
            assert g is not None
            assert (*g[:3], g[3].hex(), g[4]) == (*w[:3], w[3].hex(), w[4])


@settings(max_examples=200, deadline=None)
@given(trellis_search_inputs())
def test_viterbi_attains_least_metric(inputs):
    # the oracle's word is a codeword of the trellis whose disagreement
    # metric is the least over the encodings of all 2^L inputs
    trellis, phi = inputs
    L = trellis.L
    words = encode_conv(trellis.code, (np.arange(1 << L)[:, None] >> np.arange(L)) & 1)
    metrics = ((hard_decision(phi) ^ words) * np.abs(phi)).sum(axis=1)
    got = viterbi_ml(trellis, phi)
    assert (words == got).all(axis=1).any()
    assert disagreement_metric(phi, got) == pytest.approx(metrics.min(), abs=1e-9)


def per_trial_counts(target, cfg, gamma_b_db, trials) -> list:
    """The reference pipeline: each trial built alone through the public
    functions, bits first, then the noise."""
    counts = []
    for t in trials:
        rng = RngStream(cfg.seed ^ t)
        if isinstance(target, BlockCode):
            channel = ChannelConfig.for_block_code(target, gamma_b_db)
            info = np.zeros(target.k, dtype=np.uint8) if cfg.all_zero else rng.bits(target.k)
            word, decode = encode_block(target, info), gda_decode
        else:
            channel = ChannelConfig.for_conv_code(target.code, target.L, gamma_b_db)
            info = np.zeros(target.L, dtype=np.uint8) if cfg.all_zero else rng.bits(target.L)
            word, decode = encode_conv(target.code, info), mlsda_decode
        phi = llr(transmit(word, channel, rng), channel)
        try:
            counts.append(decode(target, phi, cfg.extension_limit).branch_computations)
        except ExtensionLimitExceeded:
            counts.append(None)
    return counts


@PROPERTY_SETTINGS
@given(st.one_of(block_codes(), trellises()), st.integers(0, 2**64 - 1),
       st.booleans(), st.one_of(st.none(), st.integers(1, 40)), st.floats(-3.0, 9.0),
       st.integers(0, 1000), st.integers(1, 300))
def test_batched_trials_match_per_trial_path(target, seed, all_zero, limit, gamma_b_db,
                                             first, count):
    cfg = ExperimentConfig(code={}, snr_db=(gamma_b_db,), seed=seed, all_zero=all_zero,
                           extension_limit=limit)
    trials = range(first, first + count)
    assert (_run_trials(target, cfg, gamma_b_db, trials)
            == per_trial_counts(target, cfg, gamma_b_db, trials))


@PROPERTY_SETTINGS
@given(block_codes(), st.integers(0, 2**64 - 1), st.booleans(),
       st.one_of(st.none(), st.integers(1, 40)), st.floats(-3.0, 9.0), st.integers(0, 1000),
       st.integers(1, 300))
def test_counted_trials_match_searched_trials(code, seed, all_zero, limit, gamma_b_db, first,
                                              count):
    # with the count taking over after 0, 8 or 40 extensions where rows
    # are searched (a lone row, or a batch that its straight dives leave
    # less than half of), and blocks of 64 nodes or full ones, the batched
    # pipeline gives every trial the count of the per-trial path run with
    # the search alone
    cfg = ExperimentConfig(code={}, snr_db=(gamma_b_db,), seed=seed, all_zero=all_zero,
                           extension_limit=limit)
    trials = range(first, first + count)
    with mock.patch.object(decoders, "SEARCH_BUDGET", sys.maxsize):
        want = per_trial_counts(code, cfg, gamma_b_db, trials)
    full = decoders.SWEEP_BLOCK
    for budget in (0, 8, 40):
        for block in (64, full):
            with mock.patch.multiple(decoders, SEARCH_BUDGET=budget, SWEEP_BLOCK=block):
                assert _run_trials(code, cfg, gamma_b_db, trials) == want


@PROPERTY_SETTINGS
@given(st.one_of(block_codes(), trellises()), st.integers(0, 2**64 - 1), st.booleans(),
       st.one_of(st.none(), st.integers(1, 40)), st.floats(-3.0, 9.0), st.integers(0, 1000),
       st.integers(65, 200), st.data())
def test_trials_match_per_trial_path_across_batches(target, seed, all_zero, limit,
                                                    gamma_b_db, first, count, data):
    # with the symbol budget patched to batches of 1, 7 and 64 trials (and
    # up to a trial's symbols to spare), every range of more than 64 trials
    # is cut into several batches, the last possibly shorter, and the
    # batched pipeline still gives every trial the count of the per-trial
    # path
    cfg = ExperimentConfig(code={}, snr_db=(gamma_b_db,), seed=seed, all_zero=all_zero,
                           extension_limit=limit)
    trials = range(first, first + count)
    want = per_trial_counts(target, cfg, gamma_b_db, trials)
    symbols = (target.n if isinstance(target, BlockCode)
               else target.code.n_out * target.levels)
    for size in (1, 7, 64):
        budget = size * symbols + data.draw(st.integers(0, symbols - 1))
        with mock.patch.object(harness, "BATCH_SYMBOLS", budget), \
                mock.patch.object(harness, "trial_llrs", wraps=harness.trial_llrs) as built:
            assert _run_trials(target, cfg, gamma_b_db, trials) == want
        batches = [call.args[3] for call in built.call_args_list]
        assert [len(b) for b in batches] == [size] * (count // size) + (
            [count % size] if count % size else [])
        assert [t for b in batches for t in b] == list(trials)


def one_trial_llrs(target, gamma_b_db, seed, t, all_zero) -> np.ndarray:
    """Trial t's LLRs built alone through the public one-trial functions:
    its bits from RngStream(seed ^ t), then its noise."""
    rng = RngStream(seed ^ t)
    if isinstance(target, BlockCode):
        channel = ChannelConfig.for_block_code(target, gamma_b_db)
        info_len, encode = target.k, partial(encode_block, target)
    else:
        channel = ChannelConfig.for_conv_code(target.code, target.L, gamma_b_db)
        info_len, encode = target.L, partial(encode_conv, target.code)
    info = np.zeros(info_len, dtype=np.uint8) if all_zero else rng.bits(info_len)
    return llr(transmit(encode(info), channel, rng), channel)


@PROPERTY_SETTINGS
@given(st.one_of(block_codes(), trellises()), st.integers(0, 2**64 - 1), st.booleans(),
       st.floats(-3.0, 9.0), st.integers(0, 1000), st.integers(1, 100))
def test_trial_llrs_match_one_trial_path(target, seed, all_zero, gamma_b_db, first, count):
    # every row of the LLR stage is bitwise the LLRs of its trial built alone
    trials = range(first, first + count)
    got = trial_llrs(target, gamma_b_db, seed, trials, all_zero)
    assert len(got) == count
    for row, t in zip(got, trials):
        assert row.tobytes() == one_trial_llrs(target, gamma_b_db, seed, t, all_zero).tobytes()


@PROPERTY_SETTINGS
@given(st.lists(st.one_of(st.integers(0, 2**64 - 1), st.integers(-2**80, 2**80)), max_size=8),
       st.integers(0, 600))
@example([0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1], 300)
@example([-1, -2**32 - 5, 2**64, 2**64 + 2**32 + 7, 2**80 - 1], 17)
@example([], 5)
def test_stream_uniforms_match_rng_stream(seeds, n):
    # the batched seeding hash gives SeedSequence's state words for every
    # seed masked to 64 bits, and each row is the stream of its seed alone
    states = seed_states(seeds)
    u = stream_uniforms(seeds, n)
    assert states.shape == (len(seeds), 4) and u.shape == (len(seeds), n)
    for seed, words, row in zip(seeds, states, u):
        want = np.random.SeedSequence(seed % 2**64).generate_state(4, np.uint64)
        assert words.tolist() == want.tolist()
        assert row.tobytes() == RngStream(seed).uniforms(n).tobytes()
@settings(max_examples=300, deadline=None)
@given(st.one_of(tree_batch_inputs(), trellis_batch_inputs()))
# a tie at zeta* that the tree count hands back to the search, beside near ties
@example((build_extended_golay(), np.array([GOLAY_TIE, near_tie_llrs(5, 24), [1.0] * 24]),
          None))
# a trellis batch one extension short of a straight dive: every row overflows
@example((CONV_75_L4, np.array([[1.0] * 12,
                            [1.0, 1.0, -1.0, 1.0] + [1.0] * 8,
                            [1.0] * 6 + [-2.0, -2.0] + [1.0] * 4]), 5))
def test_decode_batch_matches_one_trial_decoders(inputs):
    # every row of the decode stage, with the tree count taking over at
    # once or after the lone-row budget where rows are searched, has the
    # counts, the metric's bits and the decoded word of gda_decode or
    # mlsda_decode on the row alone, and is None exactly where that
    # decoder raises
    target, phi, limit = inputs
    if isinstance(target, BlockCode):
        decode, word = gda_decode, lambda bits: [(bits >> j) & 1 for j in range(target.n)]
    else:
        decode = mlsda_decode
        word = lambda info: encode_conv(target.code, [(info >> t) & 1
                                                      for t in range(target.L)]).tolist()
    want = []
    for row in phi:
        try:
            out = decode(target, row, limit)
            want.append((out.branch_computations, out.branch_computations_total,
                         out.extensions, out.metric.hex(), out.decoded.tolist()))
        except ExtensionLimitExceeded:
            want.append(None)
    for budget in (0, decoders.SEARCH_BUDGET):
        with mock.patch.object(decoders, "SEARCH_BUDGET", budget):
            got = decode_batch(target, phi, limit)
        assert [None if g is None else (*g[:3], g[3].hex(), word(g[4])) for g in got] == want
