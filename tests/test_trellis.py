import numpy as np
import pytest

from seqdec.codes import encode_conv
from seqdec.harness import dstar_by_enumeration, extension_event_hits
from seqdec.trellis import ABSENT, build_trellis, compute_dstar, dstar_levels


def states(trellis, level):
    """The states present at a level, ascending."""
    return tuple(np.flatnonzero(trellis.reachable[level]).tolist())


class TestBuildTrellis:
    def test_level_geometry(self, fig_trellis):
        # 8 levels of nodes (0..7); single state at both ends, all four
        # states through the middle
        assert fig_trellis.levels == 7
        assert fig_trellis.reachable.shape == (8, 4)
        assert states(fig_trellis, 0) == (0,)
        assert states(fig_trellis, 1) == (0, 1)
        for level in (3, 4, 5):
            assert states(fig_trellis, level) == (0, 1, 2, 3)
        assert states(fig_trellis, 7) == (0,)

    def test_first_transition(self, fig_trellis):
        assert fig_trellis.next_state[0][1] == 1
        assert fig_trellis.outputs[0][1] == 0b111

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
                    ns = fig_trellis.next_state[s][b]
                    nxt[ns] = nxt.get(ns, 0) + c
            counts = nxt
        assert sum(counts.values()) == 2 ** fig_trellis.L

    def test_rejects_bad_length(self, fig_trellis_code):
        with pytest.raises(ValueError):
            build_trellis(fig_trellis_code, 0)


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
                    ns = trellis.next_state[s][b]
                    w = int(trellis.outputs[s][b]).bit_count()
                    assert table[level + 1, ns] <= table[level, s] + w
                    incoming.setdefault(ns, []).append(table[level, s] + w)
            for ns, cands in incoming.items():
                assert table[level + 1, ns] == min(cands)


class TestDstarLevels:
    def test_rows_and_distinct_values(self, conv_634_564):
        trellis = build_trellis(conv_634_564, 12)
        table = compute_dstar(trellis)
        levels = dstar_levels(trellis)
        assert len(levels) == trellis.L
        for level, (row, distinct) in enumerate(levels):
            present = np.flatnonzero(trellis.reachable[level])
            assert row.tolist() == table[level, present].tolist()
            assert distinct.tolist() == sorted(set(row.tolist()))
            # a level with every state present reads the table's own row
            assert np.shares_memory(row, table) == (len(present) == trellis.num_states)
        assert dstar_levels(trellis) is levels
