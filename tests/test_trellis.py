import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqdec import trellis as trellis_module
from seqdec.codes import ConvCode, encode_conv
from seqdec.harness import dstar_by_enumeration, extension_event_hits
from seqdec.trellis import ABSENT, build_trellis, compute_dstar


def states(trellis, level):
    """The states present at a level, ascending."""
    return tuple(np.flatnonzero(compute_dstar(trellis)[level] != ABSENT).tolist())


class TestBuildTrellis:
    def test_level_geometry(self, fig_trellis):
        # 8 levels of nodes (0..7); single state at both ends, all four
        # states through the middle
        assert fig_trellis.levels == 7
        assert compute_dstar(fig_trellis).shape == (8, 4)
        assert states(fig_trellis, 0) == (0,)
        assert states(fig_trellis, 1) == (0, 1)
        for level in (3, 4, 5):
            assert states(fig_trellis, level) == (0, 1, 2, 3)
        assert states(fig_trellis, 7) == (0,)

    def test_first_transition(self, fig_trellis):
        assert ((0 << 1) | 1) & (fig_trellis.num_states - 1) == 1
        assert fig_trellis.outputs[1, 0] == 0b111

    def test_termination_forces_zero_inputs(self, fig_trellis):
        # from level L = 5 on only input 0 branches, which shifts a zero
        # into the state: half the states at level 6, the goal at level 7
        assert states(fig_trellis, 5) == (0, 1, 2, 3)
        assert states(fig_trellis, 6) == (0, 2)
        assert states(fig_trellis, 7) == (0,)

    def test_path_count_at_level_l(self, fig_trellis):
        # number of distinct paths reaching level L equals 2^L
        counts = {0: 1}
        for level in range(fig_trellis.L):
            nxt = {}
            for s, c in counts.items():
                for b in (0, 1):
                    ns = ((s << 1) | b) & (fig_trellis.num_states - 1)
                    nxt[ns] = nxt.get(ns, 0) + c
            counts = nxt
        assert sum(counts.values()) == 2 ** fig_trellis.L

    def test_rejects_bad_length(self, fig_trellis_code):
        with pytest.raises(ValueError):
            build_trellis(fig_trellis_code, 0)


@st.composite
def conv_codes(draw):
    """Random (n_out, 1, m) codes, m 0-4 and n_out 1-3."""
    m = draw(st.integers(0, 4))
    n_out = draw(st.integers(1, 3))
    tap = st.tuples(*[st.integers(0, 1)] * (m + 1))
    taps = draw(st.tuples(*[tap] * n_out).filter(lambda t: any(v[0] for v in t)))
    return ConvCode(n_out=n_out, m=m, taps=taps)


@settings(max_examples=60, deadline=None)
@given(conv_codes())
def test_outputs_match_encoder(code):
    # from state s (its m previous inputs, most recent lowest), input b
    # emits outputs[b, s] and moves to the register rule's state: every
    # next input c then emits outputs[c, that state]
    trellis = build_trellis(code, 1)
    nst, m = trellis.num_states, code.m
    assert trellis.outputs.shape == (2, nst)
    for s in range(nst):
        history = [(s >> (m - 1 - t)) & 1 for t in range(m)]  # oldest input first
        for b in (0, 1):
            ns = ((s << 1) | b) & (nst - 1)
            assert ns == sum(bit << j for j, bit in enumerate(reversed((history + [b])[1:])))
            for c in (0, 1):
                blocks = encode_conv(code, history + [b, c]).reshape(-1, code.n_out)
                patterns = blocks @ (1 << np.arange(code.n_out))
                assert patterns[m] == trellis.outputs[b, s]
                assert patterns[m + 1] == trellis.outputs[c, ns]


class TestComputeDstar:
    def test_zero_state_is_zero(self, fig_trellis):
        table = compute_dstar(fig_trellis)
        for level in range(fig_trellis.levels + 1):
            assert table[level, 0] == 0

    def test_known_node_value(self, fig_trellis):
        # the two paths into state 3 at level 3 weigh 5 and 4
        table = compute_dstar(fig_trellis)
        assert table[3, 3] == 4

    def test_absent_states_marked(self, fig_trellis):
        table = compute_dstar(fig_trellis)
        assert table[0, 1] == ABSENT
        assert table[1, 2] == ABSENT
        assert table[7, 1] == ABSENT

    @pytest.mark.parametrize("L", [4, 6, 8])
    def test_matches_exhaustive_enumeration(self, fig_trellis_code, L):
        trellis = build_trellis(fig_trellis_code, L)
        assert np.array_equal(compute_dstar(trellis),
                              dstar_by_enumeration(fig_trellis_code, L))

    def test_dstar_maximizes_extension_probability(self, fig_trellis_code):
        # among the Hamming weights of all paths into a node, the minimum
        # (d*) maximizes the extension-probability estimate, because that
        # probability decreases in the number of clean Gaussian summands
        trellis = build_trellis(fig_trellis_code, 6)
        table = compute_dstar(trellis)
        weights_into = {}
        L, n = trellis.L, fig_trellis_code.n_out
        for val in range(2 ** L):
            info = [(val >> t) & 1 for t in range(L)]
            word = encode_conv(fig_trellis_code, info)
            state, weight = 0, 0
            for level in range(L):
                weights_into.setdefault((level, state), set()).add(weight)
                state = ((state << 1) | info[level]) & (trellis.num_states - 1)
                weight += int(word[level * n:(level + 1) * n].sum())
        gen = np.random.default_rng(77)
        checked = 0
        for (level, state), weights in weights_into.items():
            if len(weights) < 2 or max(weights) > 6:
                continue
            clipped = n * (trellis.levels - level)
            # an independent draw per weight
            hits = {d: int(extension_event_hits(gen, 0.5, [d], [clipped], 200_000)[0, 0])
                    for d in sorted(weights)}
            best = max(hits, key=hits.get)
            assert best == table[level, state] == min(weights)
            checked += 1
        assert checked >= 3

    def test_triangle_property(self, conv_634_564):
        # d*(child) <= d*(parent) + branch weight, tight for some parent
        trellis = build_trellis(conv_634_564, 12)
        table = compute_dstar(trellis)
        for level in range(trellis.levels):
            incoming = {}
            for s in states(trellis, level):
                for b in (0, 1) if level < trellis.L else (0,):
                    ns = ((s << 1) | b) & (trellis.num_states - 1)
                    w = int(trellis.outputs[b, s]).bit_count()
                    assert table[level + 1, ns] <= table[level, s] + w
                    incoming.setdefault(ns, []).append(table[level, s] + w)
            for ns, cands in incoming.items():
                assert table[level + 1, ns] == min(cands)


class TestDstarLevels:
    def test_rows_and_distinct_values(self, conv_634_564):
        trellis = build_trellis(conv_634_564, 12)
        table = compute_dstar(trellis)
        levels = trellis.dstar_levels
        assert len(levels) == trellis.L
        for level, (row, distinct, counts) in enumerate(levels):
            present = np.flatnonzero(table[level] != ABSENT)
            assert row.tolist() == table[level, present].tolist()
            assert distinct.tolist() == sorted(set(row.tolist()))
            assert counts.tolist() == [row.tolist().count(v) for v in distinct.tolist()]
            # a level with every state present reads the table's own row
            assert np.shares_memory(row, table) == (len(present) == trellis.num_states)
        assert trellis.dstar_levels is levels

    def test_table_built_once_and_read_only(self, conv_634_564, monkeypatch):
        real = trellis_module.min_path_costs
        passes = []

        def counted(*args):
            passes.append(args)
            return real(*args)

        monkeypatch.setattr(trellis_module, "min_path_costs", counted)
        trellis = build_trellis(conv_634_564, 12)
        table = compute_dstar(trellis)
        assert compute_dstar(trellis) is table
        assert len(trellis.dstar_levels) == trellis.L  # reads the cached table
        assert len(passes) == 1
        with pytest.raises(ValueError):
            table[3, 2] += 1


# sha256 of compute_dstar(...).tobytes() (int32, C order) per (code, L)
GOLDEN_DSTAR = {
    "m0-L30": ((31, 1), "7b8ec8dd836b564f0c85ad088fc744de820345204e154bc1503e04e9d6fdd9f1"),
    "m1-L12": ((14, 2), "f951887961aa90dd404e0f68f15590f52335c914174fb048fb67bed745df2daa"),
    "657-L5": ((8, 4), "1d907a1d18931b52f2656ca45d5b8dc4a8c981f7b7e6f0295044d6e19890be2d"),
    "634-L100": ((107, 64), "681b96f02dea21411f5bb12b2331567eca31e4be25b804dcaf39935ae42d121d"),
    "m16-L100": ((117, 65536), "a451d8808722069401dc8f6444cbc1a191fae1df013673339d46b02c7746378b"),
}


def test_golden_dstar(fig_trellis_code, conv_634_564, conv_m16):
    targets = {
        "m0-L30": (ConvCode(n_out=2, m=0, taps=((1,), (1,))), 30),
        "m1-L12": (ConvCode(n_out=3, m=1, taps=((1, 0), (0, 1), (0, 1))), 12),
        "657-L5": (fig_trellis_code, 5),
        "634-L100": (conv_634_564, 100),
        "m16-L100": (conv_m16, 100),
    }
    for name, (shape, digest) in GOLDEN_DSTAR.items():
        table = compute_dstar(build_trellis(*targets[name]))
        assert table.dtype == np.int32, name
        assert table.shape == shape, name
        assert hashlib.sha256(table.tobytes()).hexdigest() == digest, name
