import gc
import hashlib
import heapq
import json
import math

from unittest import mock

import numpy as np
import pytest

from seqdec import decoders
from seqdec.channel import ChannelConfig, hard_decision, llr, transmit
from seqdec.codes import ConvCode, encode_block, encode_conv
from seqdec.decoders import (
    ExtensionLimitExceeded,
    SizeError,
    _gda_tables,
    _metric_table,
    brute_force_ml_block,
    gda_decode,
    mlsda_decode,
    viterbi_ml,
)
from seqdec.harness import trial_llrs
from seqdec.numerics import RngStream
from seqdec.trellis import ABSENT, build_trellis, compute_dstar


def squared_distance_metric(phi, word):
    return float(np.sum((phi - (1.0 - 2.0 * word.astype(float))) ** 2))


def disagreement_metric(phi, word):
    return float(np.sum((hard_decision(phi) ^ word) * np.abs(phi)))


def golay_trial(golay, db, seed):
    cfg = ChannelConfig.for_block_code(golay, db)
    rng = RngStream(seed)
    word = encode_block(golay, rng.bits(golay.k))
    return word, llr(transmit(word, cfg, rng), cfg)


def conv_trial(trellis, db, seed, all_zero=False):
    code = trellis.code
    cfg = ChannelConfig.for_conv_code(code, trellis.L, db)
    rng = RngStream(seed)
    info = np.zeros(trellis.L, dtype=np.uint8) if all_zero else rng.bits(trellis.L)
    word = encode_conv(code, info)
    return word, llr(transmit(word, cfg, rng), cfg)


class TestGdaDecode:
    def test_noiseless_counts(self, golay):
        cfg = ChannelConfig(gamma_b_db=120.0, gamma=1e12)
        word = np.zeros(24, dtype=np.uint8)
        phi = llr(transmit(word, cfg, RngStream(1)), cfg)
        out = gda_decode(golay, phi)
        assert np.array_equal(out.decoded, word)
        assert out.branch_computations == 2 * golay.k == 24
        assert out.branch_computations_total == 24 + (golay.n - golay.k)
        assert out.extensions == golay.n

    def test_matches_brute_force(self, golay):
        for t in range(300):
            _, phi = golay_trial(golay, 2.0, 9000 + t)
            out = gda_decode(golay, phi)
            want = brute_force_ml_block(golay, phi)
            assert out.metric == pytest.approx(squared_distance_metric(phi, want),
                                               rel=1e-9)

    def test_counter_lower_bound(self, golay):
        for t in range(50):
            _, phi = golay_trial(golay, 0.0, 300 + t)
            out = gda_decode(golay, phi)
            assert out.branch_computations >= 2 * golay.k
            assert out.branch_computations_total >= out.branch_computations

    def test_deterministic_counts(self, golay):
        _, phi = golay_trial(golay, 1.0, 42)
        a = gda_decode(golay, phi)
        b = gda_decode(golay, phi)
        assert a.branch_computations == b.branch_computations
        assert np.array_equal(a.decoded, b.decoded)

    def test_tie_break_is_fifo(self, golay):
        # all-zero LLRs tie every path, so FIFO order degenerates to
        # breadth-first: every internal tree path below level k is
        # extended exactly once, and the all-zero path (always inserted
        # first) wins the race to the goal
        out = gda_decode(golay, np.zeros(24))
        assert not out.decoded.any()
        assert out.branch_computations == 2 * (2 ** golay.k - 1)
        again = gda_decode(golay, np.zeros(24))
        assert again.branch_computations == out.branch_computations

    def test_untied_steps_are_whole_dives(self, golay, qr48):
        # on channel LLRs every step of the search below level k is part of
        # a whole dive; the plain loop's step (heappushpop) is taken only on
        # a tie or a flip that adds nothing, as at each of the 4,095 nodes
        # below level k of the all-zero row, which all tie
        def pushpops(code, phis) -> int:
            _, bm0, bm1 = _gda_tables(phis)
            with mock.patch.object(decoders.heapq, "heappushpop",
                                   wraps=heapq.heappushpop) as spy:
                for a, b in zip(bm0.tolist(), bm1.tolist()):
                    decoders._gda_search(code, a, b, None)
            return spy.call_count

        assert pushpops(golay, trial_llrs(golay, 0.0, 1, range(200))) == 0
        assert pushpops(qr48, trial_llrs(qr48, 4.5, 1, range(100))) == 0
        assert pushpops(golay, np.zeros((1, 24))) == 2 ** golay.k - 1 == 4095

    def test_extension_limit(self, golay):
        _, phi = golay_trial(golay, -4.0, 77)
        with pytest.raises(ExtensionLimitExceeded):
            gda_decode(golay, phi, extension_limit=5)

    def test_every_extended_path_below_ml_metric(self, golay, textbook_gda):
        # replay the search and check the guiding inequality: no path
        # with evaluation above the ML code path's metric gets extended
        for t in range(25):
            _, phi = golay_trial(golay, 1.0, 5000 + t)
            ml_metric = squared_distance_metric(phi, brute_force_ml_block(golay, phi))
            offset, bm0, bm1 = _gda_tables(phi)
            *_, extended = textbook_gda(golay, bm0.tolist(), bm1.tolist())
            assert all(f + float(offset) <= ml_metric + 1e-9 for f in extended)


class TestMlsdaDecode:
    def test_noiseless_counts(self, conv_634_564):
        trellis = build_trellis(conv_634_564, 100)
        cfg = ChannelConfig(gamma_b_db=120.0, gamma=1e12)
        word = np.zeros(212, dtype=np.uint8)
        phi = llr(transmit(word, cfg, RngStream(5)), cfg)
        out = mlsda_decode(trellis, phi)
        assert np.array_equal(out.decoded, word)
        assert out.branch_computations == 2 * trellis.L == 200
        assert out.branch_computations_total == 200 + conv_634_564.m

    def test_matches_viterbi_metric(self, fig_trellis):
        for t in range(300):
            _, phi = conv_trial(fig_trellis, 0.0, 100 + t)
            out = mlsda_decode(fig_trellis, phi)
            want = viterbi_ml(fig_trellis, phi)
            assert out.metric == pytest.approx(disagreement_metric(phi, want), abs=1e-9)

    def test_matches_viterbi_codeword_when_unique(self, fig_trellis):
        agreements = 0
        for t in range(200):
            _, phi = conv_trial(fig_trellis, 2.0, 700 + t)
            out = mlsda_decode(fig_trellis, phi)
            want = viterbi_ml(fig_trellis, phi)
            if np.array_equal(out.decoded, want):
                agreements += 1
            else:
                assert out.metric == pytest.approx(disagreement_metric(phi, want),
                                                   abs=1e-9)
        assert agreements >= 195  # exact ties are rare

    def test_each_node_extended_at_most_once(self, fig_trellis):
        total_nodes = int((compute_dstar(fig_trellis) != ABSENT).sum())
        for t in range(100):
            _, phi = conv_trial(fig_trellis, -3.0, 4000 + t)
            out = mlsda_decode(fig_trellis, phi)
            assert out.extensions <= total_nodes

    def test_merge_discard_keeps_search_exact_under_heavy_noise(self, conv_634_564):
        trellis = build_trellis(conv_634_564, 20)
        for t in range(50):
            _, phi = conv_trial(trellis, -2.0, 8800 + t)
            out = mlsda_decode(trellis, phi)
            want = viterbi_ml(trellis, phi)
            assert out.metric == pytest.approx(disagreement_metric(phi, want), abs=1e-9)

    def test_closed_node_blocks_later_arrivals(self, fig_trellis_code):
        # crafted LLRs: the zero path runs ahead (cheap everywhere), while
        # a detour into state 0 at level 2 arrives after (0, level 2) was
        # already extended; with the closed check the detour dies and the
        # zero word is still decoded with the minimum extension count
        trellis = build_trellis(fig_trellis_code, 3)
        phi = np.full(15, 0.5)
        phi[0:3] = np.array([4.0, 0.6, 0.6])
        out = mlsda_decode(trellis, phi)
        assert not out.decoded.any()
        total_nodes = int((compute_dstar(trellis) != ABSENT).sum())
        assert out.extensions <= total_nodes

    def test_counter_lower_bound(self, fig_trellis):
        for t in range(50):
            _, phi = conv_trial(fig_trellis, 0.0, 60 + t)
            out = mlsda_decode(fig_trellis, phi)
            assert out.branch_computations >= 2 * fig_trellis.L

    def test_extension_limit(self, conv_634_564):
        trellis = build_trellis(conv_634_564, 40)
        _, phi = conv_trial(trellis, -3.0, 31)
        with pytest.raises(ExtensionLimitExceeded):
            mlsda_decode(trellis, phi, extension_limit=10)


class TestGdaBatch:
    def test_straight_dives_are_settled_without_search(self, golay):
        # at 10 dB every row of this 64-trial batch is a straight dive, and
        # numpy settles them all: no row is searched or counted
        _, bm0, bm1 = _gda_tables(trial_llrs(golay, 10.0, 1, range(64)))
        assert decoders._straight_dives(golay, bm0, bm1)[0].all()
        with mock.patch.object(decoders, "_gda_search", wraps=decoders._gda_search) as search, \
                mock.patch.object(decoders, "_gda_count", wraps=decoders._gda_count) as count:
            got = decoders._gda_batch(golay, bm0, bm1, None)
        assert (search.call_count, count.call_count) == (0, 0)
        assert got == [decoders._gda_search(golay, a, b, None)
                       for a, b in zip(bm0.tolist(), bm1.tolist())]

    def spied_batch(self, golay, rows):
        """The bm0 rows of each _gda_count call that _gda_batch makes on
        these LLR rows, whose results must be those of the search on each
        row alone."""
        _, bm0, bm1 = _gda_tables(np.array(rows))
        with mock.patch.object(decoders, "_gda_count", wraps=decoders._gda_count) as spy:
            got = decoders._gda_batch(golay, bm0, bm1, None)
        assert got == [decoders._gda_search(golay, a, b, None)
                       for a, b in zip(bm0.tolist(), bm1.tolist())]
        return [call.args[1] for call in spy.call_args_list]

    def test_few_stopped_rows_are_searched_on(self, golay):
        # two Golay rows at 0 dB that take 636 and 706 extensions, among 8
        # dB rows that take at most 36: too few rows are left by their
        # straight dives to share a count, so each is searched under a lone
        # row's budget, which both end within, with no count
        rows = [golay_trial(golay, 8.0, seed)[1] for seed in range(62)]
        rows += [golay_trial(golay, 0.0, seed)[1] for seed in (8, 17)]
        assert self.spied_batch(golay, rows) == []

    def test_few_rows_that_stop_again_are_counted(self, golay):
        # two Golay rows at -4 dB that take 2,674 and 2,192 extensions,
        # among 8 dB rows: searched under a lone row's budget, both stop,
        # and one count takes just those two
        rows = [golay_trial(golay, 8.0, seed)[1] for seed in range(62)]
        rows += [golay_trial(golay, -4.0, seed)[1] for seed in (3, 39)]
        counted = self.spied_batch(golay, rows)
        assert len(counted) == 1
        assert np.array_equal(counted[0], _gda_tables(np.array(rows[62:]))[1])

    def test_many_stopped_rows_are_counted(self, golay):
        # at -4 dB no row of a 64-row batch is a straight dive, and all the
        # rows left are counted at once
        counted = self.spied_batch(golay, [golay_trial(golay, -4.0, seed)[1]
                                           for seed in range(64)])
        assert len(counted) == 1 and len(counted[0]) >= 4

    def test_stopped_searches_leave_no_cyclic_garbage(self, golay):
        # a search that the budget stops is freed when it raises: nothing
        # it held is left for the cyclic collector, in a 64-row batch at
        # 0 dB (counted), in one whose two -4 dB rows stop at a lone row's
        # budget, or in a lone decode past that budget
        _, bm0, bm1 = _gda_tables(trial_llrs(golay, 0.0, 1, range(64)))
        rows = [golay_trial(golay, 8.0, seed)[1] for seed in range(62)]
        rows += [golay_trial(golay, -4.0, seed)[1] for seed in (3, 39)]
        _, mixed0, mixed1 = _gda_tables(np.array(rows))
        phi = golay_trial(golay, -4.0, 3)[1]  # 2,674 extensions
        gc.collect()
        gc.disable()
        try:
            decoders._gda_batch(golay, bm0, bm1, None)
            batch = gc.collect()
            decoders._gda_batch(golay, mixed0, mixed1, None)
            mixed = gc.collect()
            assert gda_decode(golay, phi).extensions > decoders.SEARCH_BUDGET
            lone = gc.collect()
        finally:
            gc.enable()
        assert (batch, mixed, lone) == (0, 0, 0)


class TestGdaCount:
    def counted(self, code, rows, limit) -> tuple:
        """(the rounds _gda_count sweeps, its results) on these LLR rows,
        whose results must be those of the search on each row alone."""
        _, bm0, bm1 = _gda_tables(np.array(rows))
        with mock.patch.object(decoders, "_sweep", wraps=decoders._sweep) as spy:
            got = decoders._gda_count(code, bm0, bm1, limit)
        want = []
        for a, b in zip(bm0.tolist(), bm1.tolist()):
            try:
                want.append(decoders._gda_search(code, a, b, limit))
            except ExtensionLimitExceeded:
                want.append(None)
        assert got == want
        return spy.call_count, got

    def test_winner_below_the_bound_takes_a_second_round(self, golay):
        # at -4 dB the best re-encoded codeword of this row has metric 16.28
        # and the winner 12.38: the first round finds the winner and lowers T
        # to it, and a second round at T = zeta* counts the row
        phi = golay_trial(golay, -4.0, 44)[1]
        _, bm0, bm1 = _gda_tables(phi[None])
        bound = decoders._osd_bound(golay, bm0, bm1)[0][0]
        assert bound > decoders._gda_search(golay, bm0[0].tolist(), bm1[0].tolist(), None)[3]
        assert self.counted(golay, [phi], None)[0] == 2

    def test_overflow_is_read_at_the_winner(self, golay):
        # eight rows at -4 dB that take 192 to 2,674 extensions: against a
        # limit of 600 the three past it overflow, and the one at 595 does not
        rows = [golay_trial(golay, -4.0, seed)[1] for seed in range(8)]
        got = self.counted(golay, rows, 600)[1]
        assert [result is None for result in got] == [False, False, False, True,
                                                      False, True, True, False]

    def test_qr48_batch_is_counted_in_one_round(self, qr48):
        # at 4.5 dB 52 rows of this 64-trial batch are not straight dives;
        # one count takes exactly those, with no search, and every one's
        # bound is its winner, so one round counts them all
        _, bm0, bm1 = _gda_tables(trial_llrs(qr48, 4.5, 1, range(64)))
        left = ~decoders._straight_dives(qr48, bm0, bm1)[0]
        with mock.patch.object(decoders, "_sweep", wraps=decoders._sweep) as sweeps, \
                mock.patch.object(decoders, "_gda_count", wraps=decoders._gda_count) as count, \
                mock.patch.object(decoders, "_gda_search", wraps=decoders._gda_search) as search:
            got = decoders._gda_batch(qr48, bm0, bm1, None)
        assert [len(call.args[1]) for call in count.call_args_list] == [52]
        assert np.array_equal(count.call_args.args[1], bm0[left])
        assert (sweeps.call_count, search.call_count) == (1, 0)
        assert got == [decoders._gda_search(qr48, a, b, None)
                       for a, b in zip(bm0.tolist(), bm1.tolist())]


class TestMlsdaCount:
    # the (2,1,2) code with generators 7, 5 at L = 4 and four rows for it:
    # three nodes off the winner's path at zeta*; tied branches into a node
    # of the winner's path; tied branches into the goal; and a winner whose
    # last four nodes lie at zeta*, with no other node there
    TRELLIS = build_trellis(ConvCode(n_out=2, m=2, taps=((1, 1, 1), (1, 0, 1))), 4)
    ROWS = np.array([[-1, 1, -2, -1, 1, 2, 0, 2, -1, -2, 1, -1],
                     [-2, 2, 0, 0, 1, -1, 1, 2, 2, -2, 2, 1],
                     [1, 2, -2, 1, -1, 0, 2, -1, 1, -2, -1, 2],
                     [-2, -1, -1, -2, 0, 1, 2, -1, -1, 0, 0, 2]], dtype=float)

    def test_ties_go_to_the_search(self):
        inc = _metric_table(self.TRELLIS, self.ROWS)
        with mock.patch.object(decoders, "_mlsda_search", wraps=decoders._mlsda_search) as spy:
            got = decoders._mlsda_count(self.TRELLIS, inc, None)
        assert [call.args[1] for call in spy.call_args_list] == inc[:3].tolist()
        assert got == [decoders._mlsda_search(self.TRELLIS, row.tolist(), None) for row in inc]

    def test_low_snr_batch_is_counted(self, conv_634_564):
        # at 5 dB most first dives stop within eight levels, so the pass ends
        # there and the count takes the whole batch, searching no row
        trellis = build_trellis(conv_634_564, 100)
        inc = _metric_table(trellis, np.array([conv_trial(trellis, 5.0, seed)[1]
                                               for seed in range(64)]))
        assert decoders._first_dives(trellis, inc)[2] is None
        with mock.patch.object(decoders, "_mlsda_search", wraps=decoders._mlsda_search) as spy:
            got = decoders._mlsda_batch(trellis, inc, None)
        assert spy.call_count == 0
        assert got == [decoders._mlsda_search(trellis, row.tolist(), None) for row in inc]

    def test_block_bounds_the_table(self, conv_634_564, conv_m16):
        # a 64-row (2,1,6) L=100 batch fits one table; one memory-16 row does
        # not, so that code keeps the search
        assert decoders._count_rows(build_trellis(conv_634_564, 100)) >= 64
        assert decoders._count_rows(build_trellis(conv_m16, 100)) == 0


def elementwise_metric_table(trellis, phi) -> np.ndarray:
    """The metric table as one masked sum per (level, pattern): |phi| times
    the disagreement of each pattern bit with the hard decision, summed
    over the level's positions by numpy."""
    n_out = trellis.code.n_out
    lead = phi.shape[:-1]
    y = hard_decision(phi).reshape(lead + (-1, n_out))
    a = np.abs(phi).reshape(lead + (-1, n_out))
    patterns = (np.arange(1 << n_out)[:, None] >> np.arange(n_out)) & 1
    return ((patterns != y[..., None, :]) * a[..., None, :]).sum(-1).reshape(lead + (-1,))


class TestMetricTable:
    @pytest.mark.parametrize("n_out", [1, 2, 3])
    def test_subset_sums_equal_masked_sums(self, n_out):
        # bit for bit, on continuous, heavy-tailed and small-integer LLRs,
        # for one LLR vector and for a batch
        trellis = build_trellis(ConvCode(n_out=n_out, m=2, taps=((1, 1, 1),) * n_out), 12)
        N = n_out * trellis.levels
        gen = np.random.default_rng(n_out)
        for phi in (gen.normal(1.0, 1.0, (40, N)), gen.standard_cauchy((40, N)),
                    gen.integers(-2, 3, (40, N)).astype(float),
                    gen.normal(0.0, 1.0, N) * 10.0 ** gen.integers(-6, 6, N)):
            got = _metric_table(trellis, phi)
            assert got.shape == phi.shape[:-1] + (trellis.levels << n_out,)
            assert np.array_equal(got.view(np.int64),
                                  elementwise_metric_table(trellis, phi).view(np.int64))


class TestBruteForce:
    def test_noiseless_recovers_transmitted(self, golay):
        cfg = ChannelConfig(gamma_b_db=120.0, gamma=1e12)
        rng = RngStream(21)
        word = encode_block(golay, rng.bits(12))
        phi = llr(transmit(word, cfg, rng), cfg)
        assert np.array_equal(brute_force_ml_block(golay, phi), word)

    def test_equals_correlation_argmax(self, golay):
        # expanding the square shows argmin distance = argmax correlation
        table = np.concatenate(list(golay.codeword_chunks()))
        signs = 1.0 - 2.0 * ((table[:, None] >> np.arange(24, dtype=np.uint64))
                             & np.uint64(1)).astype(float)
        for t in range(25):
            _, phi = golay_trial(golay, 1.0, 2400 + t)
            want_idx = int(np.argmax(signs @ phi))
            got = brute_force_ml_block(golay, phi)
            assert np.array_equal(got, (signs[want_idx] < 0).astype(np.uint8))

    def test_all_zero_llr_gives_lexicographic_minimum(self, golay):
        # every codeword ties; the all-zero word is lexicographically first
        assert not brute_force_ml_block(golay, np.zeros(24)).any()

    def test_size_guard(self):
        from seqdec.codes import BlockCode
        rows = tuple(1 << i for i in range(25))
        fat = BlockCode(n=25, k=25, rows=rows, name="identity25")
        with pytest.raises(SizeError):
            brute_force_ml_block(fat, np.zeros(25))


class TestViterbi:
    def test_noiseless(self, fig_trellis):
        word, phi = conv_trial(fig_trellis, 120.0, 1)
        assert np.array_equal(viterbi_ml(fig_trellis, phi), word)

    def test_zero_path_metric_identity(self, fig_trellis):
        _, phi = conv_trial(fig_trellis, 0.0, 9)
        zero = np.zeros(len(phi), dtype=np.uint8)
        want = float(np.abs(phi)[hard_decision(phi) == 1].sum())
        assert disagreement_metric(phi, zero) == pytest.approx(want)


class TestComplexityStatistics:
    def test_codeword_invariance_of_mean_counts(self, golay):
        # random-data and all-zero transmissions must give statistically
        # indistinguishable complexity (linearity + channel symmetry)
        trellis_like = [(True, 0), (False, 1)]
        means, halfs = [], []
        cfg = ChannelConfig.for_block_code(golay, 4.0)
        for all_zero, salt in trellis_like:
            counts = []
            for t in range(4000):
                rng = RngStream((t << 1) ^ salt)
                info = np.zeros(12, dtype=np.uint8) if all_zero else rng.bits(12)
                phi = llr(transmit(encode_block(golay, info), cfg, rng), cfg)
                counts.append(gda_decode(golay, phi).branch_computations)
            counts = np.asarray(counts, dtype=float)
            means.append(counts.mean())
            halfs.append(1.96 * counts.std(ddof=1) / math.sqrt(len(counts)))
        assert abs(means[0] - means[1]) <= halfs[0] + halfs[1]


# ---------------------------------------------------------------------------
# golden counts: every counted quantity of seeded decodes, pinned as one
# sha256 per group over the exact records.  The digests were written once
# from the plain pop-and-push search (one heappop and a heappush per child
# on every extension) and must never be regenerated from a changed decoder.

def _record(decode, target, phi, limit=None):
    try:
        out = decode(target, phi, extension_limit=limit)
    except ExtensionLimitExceeded:
        return ["limit"]
    return ["".join(map(str, out.decoded.tolist())), out.branch_computations,
            out.branch_computations_total, out.extensions, out.metric.hex()]


def _noisy_llr(target, db, seed):
    rng = RngStream(seed)
    if hasattr(target, "k"):
        cfg = ChannelConfig.for_block_code(target, db)
        word = encode_block(target, rng.bits(target.k))
    else:
        cfg = ChannelConfig.for_conv_code(target.code, target.L, db)
        word = encode_conv(target.code, rng.bits(target.L))
    return llr(transmit(word, cfg, rng), cfg)


def _golden_records(group, golay, qr48, t657, t634):
    gda, mlsda = gda_decode, mlsda_decode
    if group == "golay24":
        return [_record(gda, golay, _noisy_llr(golay, db, 1000 * db + t))
                for db in (1, 2, 3, 4) for t in range(100)]
    if group == "qr48":
        return [_record(gda, qr48, _noisy_llr(qr48, 4.5, 4500 + t)) for t in range(200)]
    if group == "conv657":
        return [_record(mlsda, t657, _noisy_llr(t657, db, 700 + 1000 * db + t))
                for db in (0, 2, 4) for t in range(100)]
    if group == "conv634":
        return [_record(mlsda, t634, _noisy_llr(t634, db, 6300 + 1000 * db + t))
                for db in (0, 3, 6) for t in range(60)]
    if group == "limits":  # low-SNR trials stopped by small budgets
        return [_record(decode, target, _noisy_llr(target, db, 900 + t), limit)
                for decode, target, db in ((gda, golay, -2.0), (gda, qr48, 2.0),
                                           (mlsda, t657, -2.0), (mlsda, t634, -1.0))
                for t in range(20) for limit in (5, 50)]
    # "ties": integer-valued LLRs, so that many paths share a metric and
    # the FIFO tie-break decides the order of the search
    gen = np.random.Generator(np.random.PCG64(2024))
    records = []
    for decode, target, n, limits in ((gda, golay, 24, (5, 50, 500, None)),
                                      (gda, qr48, 48, (5, 50, 500)),
                                      (mlsda, t657, 30, (5, 50, 500, None)),
                                      (mlsda, t634, 52, (5, 50, 500, None))):
        for top in (2, 4):  # {0, +-1, +-2} and {0, ..., +-4}
            for _ in range(30):
                phi = gen.integers(-top, top + 1, size=n).astype(float)
                records.extend(_record(decode, target, phi, limit) for limit in limits)
        records.append(_record(decode, target, np.zeros(n), limits[-1]))
    return records


GOLDEN = {  # group -> (records, of which stopped by the budget, sha256)
    "conv634": (180, 0, "e2d203dd8c251f9ec6747d27813378cbfbaccce4fc625ef6fedc7bf7a0aec265"),
    "conv657": (300, 0, "c171f4a26524ce9bf2b67f43a9ef2d6563dc1c24a2b81a931d638935437c5f34"),
    "golay24": (400, 0, "05ccb9ceb78d887fada47e52defd3d3ce29c1a4e19b9674462cb576504c1e1d3"),
    "limits": (160, 139, "b582fb09dfdc2c5ed04a64141bb338359dadf80c2d9654f52a862aab676a6ba6"),
    "qr48": (200, 0, "20974cd4588fc4127902a39dc47e954e5c4b97a8d819ae46326bae60f5ade878"),
    "ties": (904, 581, "ea3387cc5103f47ad24980521e5469a6b5a0abfe717a4bb9ba0c465b133c9d5e"),
}


@pytest.mark.parametrize("group", sorted(GOLDEN))
def test_golden_counts(group, golay, qr48, fig_trellis_code, conv_634_564):
    t657 = build_trellis(fig_trellis_code, 8)
    t634 = build_trellis(conv_634_564, 20)
    records = _golden_records(group, golay, qr48, t657, t634)
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert (len(records), records.count(["limit"]), digest) == GOLDEN[group]
