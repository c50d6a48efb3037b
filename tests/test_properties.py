"""Properties over random small codes, each checked against a scalar or
per-trial reference kept here: the trellis layer on convolutional codes
(memory <= 4, 2-3 outputs, L <= 8), the tree search and its entry point
(with the count taking over early) on systematic block codes (k <= 10)
and the Golay code, the trellis search against a plain two-stack search,
its batch entry point against the search row by row, the Viterbi oracle
against all 2^L inputs, the harness's batched trial pipeline on both,
and the per-pair bound of a whole evaluation against the scalar one."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqdec import decoders
from seqdec.bounds import (
    BERRY_ESSEEN,
    CHERNOFF,
    _log_bounds,
    extension_probability_bound,
    mlsda_complexity_bound,
)
from seqdec.channel import ChannelConfig, db_to_linear, hard_decision, llr, transmit
from seqdec.codes import BlockCode, ConvCode, build_extended_golay, encode_block, encode_conv
from seqdec.decoders import (
    ExtensionLimitExceeded,
    _gda_search,
    _gda_tables,
    _gda_tree,
    _metric_table,
    _mlsda_batch,
    _mlsda_search,
    brute_force_ml_block,
    gda_decode,
    mlsda_decode,
    viterbi_ml,
)
from seqdec.harness import ExperimentConfig, _run_trials, dstar_by_enumeration
from seqdec.numerics import RngStream
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
    """The bound as one scalar term per present (level, state), summed in
    ascending order."""
    code = trellis.code
    N = code.n_out * trellis.levels
    gamma = (trellis.L / N) * db_to_linear(gamma_b_db)
    dstar = compute_dstar(trellis)
    total = 0.0
    for level in range(trellis.L):
        for state in range(trellis.num_states):
            if dstar[level, state] != ABSENT:
                total += extension_probability_bound(
                    int(dstar[level, state]), N - level * code.n_out, gamma, variant)
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
    n = code.n
    kind = draw(st.sampled_from(["continuous", "integer", "near-ties"]))
    if kind == "continuous":
        return code, np.array(draw(st.lists(st.floats(-6.0, 6.0), min_size=n, max_size=n)))
    if kind == "integer":
        return code, np.array(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)),
                              dtype=float)
    return code, near_tie_llrs(draw(st.integers(0, 2**32 - 1)), n)


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
# from a search budget of 0 or 1, a threshold round finds no leaf but more
# than 5 nodes below it, which proves the overflow before zeta* is known
@example((BlockCode(n=5, k=4, rows=(1, 18, 4, 24)), np.array([0.0, 2.0, 1.0, 1.0, -2.0])), 5)
# from a budget of 0, a round finds no leaf and exactly the 5 nodes that
# the search extends: 5 extensions do not exceed a limit of 5
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


@PROPERTY_SETTINGS
@given(tree_search_inputs(), st.integers(0, 60))
def test_search_stop_metric_bounds_winner(textbook_gda, inputs, budget):
    # the search extends only paths with f <= zeta*, so the metric it
    # stops at is a lower bound for the count to start from
    code, phi = inputs
    _, bm0, bm1 = _gda_tables(phi)
    bm0, bm1 = bm0.tolist(), bm1.tolist()
    zeta = textbook_gda(code, bm0, bm1)[3]
    try:
        _gda_search(code, bm0, bm1, budget)
    except ExtensionLimitExceeded as stop:
        assert stop.metric <= zeta


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
