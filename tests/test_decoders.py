import hashlib
import json
import math

import numpy as np
import pytest

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
