"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured quantities before asserting.

Run with `pytest tests/test_acceptance.py -v -s` to see every line; a
plain `pytest` run reports the same outcomes per test.  The whole
module takes about 35-40 s on a 2-core machine, two fifths of it
criterion 6.  Every test here carries the `acceptance` marker, so
`pytest -m "not acceptance"` runs the unit tests alone.
"""

import math

import numpy as np
import pytest

from seqdec.bounds import (
    BERRY_ESSEEN,
    CHERNOFF,
    NoRoot,
    extension_probability_bounds,
    gda_complexity_bound,
    mlsda_complexity_bound,
    solve_tilt,
    subexponential_factor,
)
from seqdec.channel import ChannelConfig, llr, transmit
from seqdec.codes import encode_block, encode_conv, parse_octal_generators
from seqdec.decoders import brute_force_ml_block, gda_decode, mlsda_decode, viterbi_ml
from seqdec.harness import ExperimentConfig, extension_event_hits, run_simulation_curve
from seqdec.numerics import RngStream
from seqdec.trellis import build_trellis, compute_dstar

pytestmark = pytest.mark.acceptance


def report(criterion, passed, detail):
    print(f"\nCRITERION {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def simulate(code_spec, snr_db, trials, L=None, seed=1, limit=None, workers=2):
    cfg = ExperimentConfig(code=code_spec, snr_db=(snr_db,), trials=trials,
                           seed=seed, mode="simulate", workers=workers, L=L,
                           extension_limit=limit)
    return run_simulation_curve(cfg)[0]

GOLAY = {"name": "golay24"}
QR48 = {"name": "qr48"}
CONV6 = {"type": "conv", "m": 6, "octal": ["634", "564"]}


def test_criterion_1_bound_ratio_triplet(conv_634_564):
    """Ratio of the two bound variants at 4.0/4.5/5.0 dB for (2,1,6),
    L=100, against the reference triplet 0.86/0.90/0.95 (+-0.03).

    Known-red: the two variants provably coincide for this code.  Every
    non-negligible term has prefactor exactly 1 (the closed forms were
    verified against direct numerical integration of the tilted
    moments), so the reference triplet is unattainable from this
    construction.  The check is kept as stated and fails honestly.
    """
    trellis = build_trellis(conv_634_564, 100)
    expected = {4.0: 0.86, 4.5: 0.90, 5.0: 0.95}
    ratios = {}
    for db, want in expected.items():
        be = mlsda_complexity_bound(trellis, db, BERRY_ESSEEN)
        ch = mlsda_complexity_bound(trellis, db, CHERNOFF)
        ratios[db] = be / ch
    detail = ", ".join(f"{db} dB: ratio={ratios[db]:.4f} (want {expected[db]}+-0.03)"
                       for db in expected)
    passed = all(abs(ratios[db] - expected[db]) <= 0.03 for db in expected)
    report(1, passed, detail)
    for db, want in expected.items():
        assert ratios[db] == pytest.approx(want, abs=0.03)


def test_criterion_2_golay_gap_at_1db(golay):
    bound = gda_complexity_bound(golay, 1.0, BERRY_ESSEEN)
    pt = simulate(GOLAY, 1.0, 10_000)
    gap = math.log10(bound) - math.log10(pt.sim_mean)
    detail = (f"bound={bound:.1f} sim={pt.sim_mean:.1f}+-{pt.sim_ci95_half:.1f} "
              f"log10 gap={gap:.4f} (want within [0.57, 0.77])")
    report(2, 0.57 <= gap <= 0.77, detail)
    assert 0.57 <= gap <= 0.77


def test_criterion_3_qr48_ratio_at_1db(qr48):
    bound = gda_complexity_bound(qr48, 1.0, BERRY_ESSEEN)
    pt = simulate(QR48, 1.0, 1_000, limit=10**6)
    ratio = bound / pt.sim_mean
    detail = (f"bound={bound:.0f} sim={pt.sim_mean:.0f}+-{pt.sim_ci95_half:.0f} "
              f"ratio={ratio:.2f} (want in [8, 16]); "
              f"{pt.overflow_trials} trial(s) hit the 1e6 extension cap "
              f"and were excluded, {pt.trials} kept")
    report(3, 8.0 <= ratio <= 16.0, detail)
    assert 8.0 <= ratio <= 16.0


def test_criterion_4_high_snr_plateaus():
    golay_pt = simulate(GOLAY, 10.0, 10_000)
    qr_pt = simulate(QR48, 10.0, 10_000)
    conv_pt = simulate(CONV6, 10.0, 10_000, L=100)
    checks = [
        ("golay mean", golay_pt.sim_mean, 24.0),
        ("qr48 mean", qr_pt.sim_mean, 48.0),
        ("(2,1,6) L=100 mean", conv_pt.sim_mean, 200.0),
    ]
    passed = all(abs(m - target) <= 0.05 * target for _, m, target in checks)
    detail = "; ".join(f"{name}={m:.2f} (want {t}+-5%)" for name, m, t in checks)
    report(4, passed, detail)
    for name, m, target in checks:
        assert abs(m - target) <= 0.05 * target, name


def test_criterion_5_mlsda_bound_envelope(conv_634_564):
    trellis = build_trellis(conv_634_564, 100)
    trials = {1: 1500, 2: 1500, 3: 1500, 4: 2000, 5: 3000, 6: 4000,
              7: 4000, 8: 4000, 9: 4000, 10: 4000, 11: 4000}
    rows = []
    ok = True
    for db in range(1, 12):
        bound = mlsda_complexity_bound(trellis, float(db), BERRY_ESSEEN)
        pt = simulate(CONV6, float(db), trials[db], L=100)
        gap = math.log10(bound) - math.log10(pt.sim_mean)
        limit = 0.3 if (db >= 6 or db <= 2) else 0.9
        ok = ok and gap <= limit
        rows.append(f"{db}dB:{gap:+.3f}(<= {limit})")
    report(5, ok, " ".join(rows))
    assert ok


def test_criterion_6_bound_dominance_grid():
    gammas = (0.25, 0.5, 1.0, 2.0)
    samples = 1_000_000
    chunk = 250_000
    worst = -np.inf
    worst_cell = None
    for gi, gamma in enumerate(gammas):
        gen = np.random.Generator(np.random.PCG64(1000 + gi))
        hits = sum(extension_event_hits(gen, gamma, range(11), range(31), chunk)
                   for _ in range(samples // chunk))
        d, nd = np.meshgrid(range(11), range(31), indexing="ij")
        cells = d + nd > 0
        p = hits[cells] / samples
        se = np.sqrt(np.maximum(p * (1.0 - p), 1e-12) / samples)
        floor = p - 4.0 * se
        # [cell, variant] in (d, nd, variant) order; argmax takes the
        # first cell of the largest violation
        violation = floor[:, None] - np.stack(
            [extension_probability_bounds(d[cells], nd[cells], gamma, variant)
             for variant in (BERRY_ESSEEN, CHERNOFF)], axis=1)
        cell, v = np.unravel_index(np.argmax(violation), violation.shape)
        if violation[cell, v] > worst:
            worst = float(violation[cell, v])
            worst_cell = (int(d[cells][cell]), int(nd[cells][cell]), gamma,
                          (BERRY_ESSEEN, CHERNOFF)[v].value)
    detail = f"worst violation={worst:.3g} at {worst_cell} (want <= 0)"
    report(6, worst <= 0.0, detail)
    assert worst <= 0.0


def test_criterion_7_ml_optimality_oracles(golay, fig_trellis, conv_634_564):
    mismatches = 0
    for db in (0.0, 2.0, 4.0):
        cfg = ChannelConfig.for_block_code(golay, db)
        for t in range(1000):
            rng = RngStream(int(db * 1000) + t)
            phi = llr(transmit(encode_block(golay, rng.bits(12)), cfg, rng), cfg)
            out = gda_decode(golay, phi)
            want = brute_force_ml_block(golay, phi)
            m_want = float(np.sum((phi - (1.0 - 2.0 * want.astype(float))) ** 2))
            if not math.isclose(out.metric, m_want, rel_tol=1e-9, abs_tol=1e-9):
                mismatches += 1

    trellis20 = build_trellis(conv_634_564, 20)
    for trellis, salt in ((fig_trellis, 50_000), (trellis20, 60_000)):
        code = trellis.code
        cfg = ChannelConfig.for_conv_code(code, trellis.L, 0.0)
        for t in range(1000):
            rng = RngStream(salt + t)
            word = encode_conv(code, rng.bits(trellis.L))
            phi = llr(transmit(word, cfg, rng), cfg)
            out = mlsda_decode(trellis, phi)
            v = viterbi_ml(trellis, phi)
            zeta = float(np.sum(((phi < 0).astype(np.uint8) ^ v) * np.abs(phi)))
            if not math.isclose(out.metric, zeta, rel_tol=1e-9, abs_tol=1e-9):
                mismatches += 1
    report(7, mismatches == 0, f"{mismatches} metric mismatches over 5000 trials")
    assert mismatches == 0


def test_criterion_8_structural_fixtures(golay, qr48, fig_trellis):
    word = "".join(map(str, encode_conv(parse_octal_generators(["6", "5", "7"], 2),
                                        [1, 1, 1, 0, 1])))
    dstar = compute_dstar(fig_trellis)
    fixtures = [
        ("trellis codeword", word == "111010001110100101011"),
        ("dstar(level 3, state 3)", int(dstar[3, 3]) == 4),
        ("golay dmin", golay.minimum_distance() == 8),
        ("qr48 dmin", qr48.minimum_distance() == 12),
    ]
    passed = all(flag for _, flag in fixtures)
    report(8, passed, "; ".join(f"{n}={'ok' if f else 'BAD'}" for n, f in fixtures))
    assert passed


def test_criterion_9_monotone_in_gaussian_count():
    samples = 10_000_000
    chunk = 1_000_000
    gen = np.random.Generator(np.random.PCG64(2024))
    hits = sum(extension_event_hits(gen, 0.5, range(1, 9), [10], chunk)
               for _ in range(samples // chunk))
    p = hits[:, 0] / samples
    half = 1.96 * np.sqrt(p * (1.0 - p) / samples)
    strictly_decreasing = all(p[i] > p[i + 1] for i in range(7))
    separated = all(p[i] - half[i] > p[i + 1] + half[i + 1] for i in range(7))
    detail = " ".join(f"d={d}:{p[d-1]:.5f}" for d in range(1, 9))
    report(9, strictly_decreasing and separated, detail)
    assert strictly_decreasing
    assert separated


def test_criterion_10_prefactor_behavior():
    """Prefactor = 1 through n = 50 at d/n = 0.2 across the SNR grid,
    and < 1 at n = 200 for gamma = -3 dB.

    Known-red on the second clause: the reduction at n = 200 appears at
    gamma = 1 dB (0.754), but at -3 dB the exact prefactor terms
    (cross-checked by direct integration of the tilted distribution)
    sum to 1.22 and clamp to 1.  Kept as stated; fails honestly.
    """
    small_ok = True
    for g_db in (-5.0, -3.0, -1.0, 1.0):
        gamma = 10.0 ** (g_db / 10.0)
        for n in range(10, 51, 5):
            d = round(0.2 * n)
            if d < 1:
                continue
            try:
                lam = solve_tilt(d, n, gamma)
                val = subexponential_factor(d, n - d, gamma, lam, BERRY_ESSEEN)
            except NoRoot:
                val = 1.0
            small_ok = small_ok and val == 1.0

    gamma = 10.0 ** (-3.0 / 10.0)
    lam = solve_tilt(40, 200, gamma)
    at_200 = subexponential_factor(40, 160, gamma, lam, BERRY_ESSEEN)
    passed = small_ok and at_200 < 1.0
    report(10, passed,
           f"prefactor=1 for all n<=50: {small_ok}; "
           f"prefactor at n=200, -3 dB: {at_200:.4f} (want < 1)")
    assert small_ok
    assert at_200 < 1.0
