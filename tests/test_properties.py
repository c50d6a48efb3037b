"""Properties of the trellis layer over random small convolutional codes
(memory <= 4, 2-3 outputs, L <= 8), each checked against a scalar
reference kept here."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqdec.bounds import (
    BERRY_ESSEEN,
    CHERNOFF,
    db_to_linear,
    extension_probability_bound,
    mlsda_complexity_bound,
)
from seqdec.channel import hard_decision
from seqdec.codes import ConvCode, encode_conv
from seqdec.decoders import mlsda_decode, viterbi_ml
from seqdec.harness import dstar_by_enumeration
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


@PROPERTY_SETTINGS
@given(trellises(), st.floats(-3.0, 10.0), st.sampled_from([BERRY_ESSEEN, CHERNOFF]))
def test_bound_equals_per_state_sum(trellis, gamma_b_db, variant):
    # exact equality: the level-vectorized sum must keep the scalar order
    assert (mlsda_complexity_bound(trellis, gamma_b_db, variant)
            == per_state_bound(trellis, gamma_b_db, variant))
