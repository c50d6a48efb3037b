import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqdec import trellis as trellis_module
from seqdec.codes import ConvCode, encode_conv
from seqdec.harness import dstar_by_enumeration, extension_event_hits
from seqdec.trellis import (ABSENT, build_trellis, compute_dstar, min_path_costs,
                            min_path_inputs)


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
def conv_codes(draw, max_m=4, min_m=0):
    """Random (n_out, 1, m) codes, m min_m-max_m and n_out 1-3."""
    m = draw(st.integers(min_m, max_m))
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


def full_width_min_path_costs(trellis, costs, unreached):
    """The min-plus pass over all 2S registers of every level, input-1
    branches blocked from level L on, with no stop; sums on unreached
    entries are clamped to unreached."""
    nst = trellis.num_states
    src = np.arange(2 * nst) >> 1
    patterns = trellis.outputs.T.ravel()
    table = np.empty((trellis.levels + 1, costs.shape[1], nst), dtype=costs.dtype)
    table[0] = unreached
    table[0, :, 0] = 0
    for level in range(trellis.levels):
        cand = table[level][:, src] + costs[level][:, patterns]
        if level >= trellis.L:
            cand[:, 1::2] = unreached
        np.minimum(cand[:, :nst], cand[:, nst:], out=table[level + 1])
        np.minimum(table[level + 1], unreached, out=table[level + 1])
    return table


@settings(max_examples=80, deadline=None)
@given(conv_codes(max_m=6), st.integers(1, 14), st.integers(1, 3), st.booleans(),
       st.integers(0, 2**32 - 1))
@example(ConvCode(n_out=2, m=0, taps=((1,), (1,))), 3, 2, False, 0)
@example(ConvCode(n_out=2, m=1, taps=((1, 1), (1, 0))), 6, 2, True, 0)
def test_repeating_costs_stop_exactly(code, L, rows, weights, seed):
    # the same costs at every level: as a zero-stride broadcast the pass may
    # stop at a repeated row, as a materialized copy it may not; both equal
    # the full-width pass, for L below m and past the fixed point alike, and
    # for memory 0 (one state, no halves) and memory 1 (two states)
    trellis = build_trellis(code, L)
    width = 1 << code.n_out
    if weights:
        per_row = np.broadcast_to(np.bitwise_count(np.arange(width)).astype(np.int32),
                                  (rows, width))
        unreached = trellis.n + 1
    else:
        per_row = np.random.default_rng(seed).uniform(-1.0, 3.0, (rows, width))
        unreached = np.inf
    broadcast = np.broadcast_to(per_row, (trellis.levels, rows, width))
    copied = np.ascontiguousarray(broadcast)
    assert broadcast.strides[0] == 0 and (copied.strides[0] != 0 or trellis.levels == 1)
    expected = full_width_min_path_costs(trellis, copied, unreached)
    assert np.array_equal(min_path_costs(trellis, broadcast, unreached), expected)
    assert np.array_equal(min_path_costs(trellis, copied, unreached), expected)
    # costs that change at level L - 1 alone: rows may repeat before it, but
    # the pass may not stop
    changed = copied.copy()
    changed[L - 1] += 1
    assert np.array_equal(min_path_costs(trellis, changed, unreached),
                          full_width_min_path_costs(trellis, changed, unreached))


@settings(max_examples=60, deadline=None)
@given(conv_codes(max_m=10, min_m=7), st.integers(1, 14), st.integers(1, 3), st.booleans(),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_states_past_256_match_full_width(code, L, rows, weights, repeated, seed):
    # memory 7-10 (128-1,024 states), for L below m and past it: costs the
    # same at every level as a zero-stride broadcast and as its materialized
    # copy, or drawn per level; int32 weights or floats.  Each table equals
    # the full-width pass
    trellis = build_trellis(code, L)
    shape = (trellis.levels, rows, 1 << code.n_out)
    gen = np.random.default_rng(seed)
    if weights:
        unreached = trellis.levels * code.n_out + 1
        per_level = gen.integers(0, code.n_out + 1, shape, dtype=np.int32)
        per_row = np.broadcast_to(np.bitwise_count(np.arange(shape[2])).astype(np.int32),
                                  shape[1:])
    else:
        unreached = np.inf
        per_level = gen.uniform(-1.0, 3.0, shape)
        per_row = per_level[0]
    if repeated:
        broadcast = np.broadcast_to(per_row, shape)
        tried = (broadcast, np.ascontiguousarray(broadcast))
    else:
        tried = (per_level,)
    for costs in tried:
        assert np.array_equal(min_path_costs(trellis, costs, unreached),
                              full_width_min_path_costs(trellis, costs, unreached))


def state_major(shape, dtype):
    """An uninitialised array of logical shape [levels, R, W] laid out
    state-major: the transpose(0, 2, 1) view of a C-contiguous [levels, W, R]."""
    return np.empty((shape[0], shape[2], shape[1]), dtype=dtype).transpose(0, 2, 1)


@settings(max_examples=40, deadline=None)
@given(conv_codes(max_m=10, min_m=5), st.integers(1, 12), st.integers(2, 40), st.booleans(),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_many_rows_in_either_layout(code, L, rows, weights, major_costs, seed):
    # 2-40 rows on 32-1,024 states (memory 5-10), int32 weights or floats,
    # costs state-major or in C order, a state-major out: the table equals
    # the full-width pass, and the traceback reads a state-major table and
    # a C-order copy alike
    trellis = build_trellis(code, L)
    shape = (trellis.levels, rows, 1 << code.n_out)
    gen = np.random.default_rng(seed)
    if weights:
        unreached = trellis.levels * code.n_out + 1
        drawn = gen.integers(0, code.n_out + 1, shape, dtype=np.int32)
    else:
        unreached = np.inf
        drawn = gen.uniform(0.0, 3.0, shape)
    costs = state_major(shape, drawn.dtype) if major_costs else np.empty_like(drawn)
    costs[...] = drawn
    table_shape = (trellis.levels + 1, rows, trellis.num_states)
    out = state_major(table_shape, drawn.dtype)
    assert min_path_costs(trellis, costs, unreached, out) is out
    assert np.array_equal(out, full_width_min_path_costs(trellis, drawn, unreached))
    if not weights:
        table = min_path_costs(trellis, costs, unreached)
        assert table.transpose(0, 2, 1).flags.c_contiguous
        got = min_path_inputs(trellis, costs, table)
        want = min_path_inputs(trellis, drawn, np.ascontiguousarray(table))
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and np.array_equal(g, w)


class TestMinPathCostsOut:
    TRELLIS = build_trellis(ConvCode(n_out=2, m=2, taps=((1, 1, 1), (1, 0, 1))), 4)
    COSTS = np.arange(6 * 2 * 4, dtype=float).reshape(6, 2, 4)  # [levels, R, 4]

    def test_out_is_filled_and_returned(self):
        # with one row, C order is the state-major layout
        out = np.full((7, 1, 4), np.nan)
        assert min_path_costs(self.TRELLIS, self.COSTS[:, :1], np.inf, out) is out
        assert np.array_equal(out, min_path_costs(self.TRELLIS, self.COSTS, np.inf)[:, :1])

    def test_state_major_out_is_filled_and_returned(self):
        out = np.full((7, 4, 2), np.nan).transpose(0, 2, 1)
        assert min_path_costs(self.TRELLIS, self.COSTS, np.inf, out) is out
        assert np.array_equal(out, min_path_costs(self.TRELLIS, self.COSTS, np.inf))

    @pytest.mark.parametrize("out", [
        np.empty((6, 2, 4)),  # a level short
        np.empty((7, 1, 4)),  # a row short, which would broadcast
        np.empty((7, 2, 8)),  # twice the states
        np.empty((7, 2, 4), dtype=np.float32),  # would be cast into
        np.empty((7, 2, 4), dtype=np.int32),
        np.empty((7, 4, 4))[:, ::2],  # rows not contiguous
        np.empty((4, 2, 7)).T,  # Fortran order
        np.empty((7, 2, 4)),  # C order
    ])
    def test_rejects_a_wrong_out(self, out):
        before = out.copy()
        with pytest.raises(ValueError, match="out must be"):
            min_path_costs(self.TRELLIS, self.COSTS, np.inf, out)
        assert np.array_equal(out, before, equal_nan=True)  # untouched

    @pytest.mark.parametrize("costs", [COSTS[:5], COSTS[..., :2], COSTS[None]])
    def test_rejects_wrongly_shaped_costs(self, costs):
        with pytest.raises(ValueError, match="costs has shape"):
            min_path_costs(self.TRELLIS, costs, np.inf)


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
            assert np.shares_memory(row, table)  # a view, never a copy
        assert trellis.dstar_levels is levels

    @pytest.mark.parametrize("name, first", [("conv_634_564", 10), ("conv_m16", 40)])
    def test_rows_past_the_fixed_point_share_their_counts(self, request, name, first):
        # d* rows stop changing at level 10 for 634/564 and at level 40 for
        # the memory-16 taps; from there each level shares the distinct and
        # counts of the level before, and every row is still a table view
        trellis = build_trellis(request.getfixturevalue(name), 100)
        table = compute_dstar(trellis)
        repeats = [np.array_equal(table[level], table[level - 1])
                   for level in range(1, trellis.L + 1)]
        assert repeats == [level >= first for level in range(1, trellis.L + 1)]
        levels = trellis.dstar_levels
        for level in range(1, trellis.L):
            row, distinct, counts = levels[level]
            _, before_distinct, before_counts = levels[level - 1]
            assert (distinct is before_distinct) == (level >= first)
            assert (counts is before_counts) == (level >= first)
            assert np.shares_memory(row, table)

    @settings(max_examples=60, deadline=None)
    @given(conv_codes(max_m=6), st.integers(1, 12))
    def test_register_rule_reaches_a_prefix_of_states(self, code, L):
        # dstar_levels slices each row to its first 2^min(l, m) states:
        # those are the states present, for L below m too
        trellis = build_trellis(code, L)
        table = compute_dstar(trellis)
        for level in range(trellis.L + 1):
            assert states(trellis, level) == tuple(range(1 << min(level, code.m)))
        for level, (row, _, _) in enumerate(trellis.dstar_levels):
            assert row.tolist() == table[level][table[level] != ABSENT].tolist()

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
