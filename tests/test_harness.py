import hashlib
import io
import json
import os
import pickle
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from seqdec import bounds, cli, decoders, harness
from seqdec.channel import NonFiniteLLR
from seqdec.codes import BlockCode, ConvCode
from seqdec.harness import (
    ConfigError,
    ExperimentConfig,
    check_dstar_oracle,
    code_from_config,
    curve_csv_text,
    run_atilde_table,
    run_bound_curve,
    run_experiment,
    run_simulation_curve,
    run_validation_suite,
    trial_llrs,
)
from seqdec.trellis import ABSENT, build_trellis, compute_dstar

SMALL_CONV = {"type": "conv", "m": 2, "octal": ["6", "5", "7"], "name": "conv-657"}


def small_cfg(**overrides):
    base = dict(code=SMALL_CONV, snr_db=(4.0,), trials=24, seed=3, L=8,
                variant="both", mode="both", workers=1)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestCodeFromConfig:
    def test_named_codes(self):
        assert code_from_config({"name": "golay24"}).n == 24
        assert code_from_config({"name": "qr48"}).k == 24

    def test_block_rows_roundtrip(self, golay):
        spec = {"type": "block", "n": 24, "k": 12, "name": "golay24",
                "generator_rows": [format(r, "x") for r in golay.rows]}
        rebuilt = code_from_config(spec)
        assert isinstance(rebuilt, BlockCode)
        assert rebuilt.rows == golay.rows

    def test_conv_octal_and_taps(self):
        a = code_from_config(SMALL_CONV)
        b = code_from_config({"type": "conv", "m": 2, "taps": ["110", "101", "111"]})
        assert isinstance(a, ConvCode)
        assert a.taps == b.taps

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            code_from_config({"name": "nonesuch"})

    def test_garbage(self):
        with pytest.raises(ConfigError):
            code_from_config({"type": "conv"})

    @pytest.mark.parametrize("spec, unread", [
        ({"type": "conv", "m": 2, "octal": ["7", "5"], "gnerators": ["7", "5"]}, "gnerators"),
        ({"type": "conv", "m": 2, "n": 2, "taps": ["111", "101"]}, "'n'"),
        ({"type": "block", "n": 3, "k": 1, "m": 0, "generator_rows": ["7"]}, "'m'"),
        ({"type": "block", "n": 3, "k": 1, "generator_rows": ["7"], "octal": ["7"]}, "octal"),
        # both spellings at once: the taps were built and the octal dropped
        ({"type": "conv", "m": 2, "octal": ["7", "5"], "taps": ["110", "101"]}, "exactly one"),
    ])
    def test_unread_spec_key_rejected(self, spec, unread):
        with pytest.raises(ConfigError, match=unread):
            code_from_config(spec)


class TestExperimentConfigValidation:
    def test_grid_must_increase(self):
        with pytest.raises(ConfigError):
            small_cfg(snr_db=(2.0, 1.0))

    def test_trials_positive(self):
        with pytest.raises(ConfigError):
            small_cfg(trials=0)

    def test_variant_checked(self):
        with pytest.raises(ConfigError):
            small_cfg(variant="bogus")

    @pytest.mark.parametrize("field", [
        dict(trials=None), dict(workers=True), dict(L="8"), dict(extension_limit=1.5),
        dict(all_zero="yes"), dict(snr_db=(False,)), dict(snr_db=2.0)])
    def test_field_types(self, field):
        with pytest.raises(ConfigError):
            small_cfg(**field)

    def test_conv_code_needs_L(self):
        with pytest.raises(ConfigError, match="need L"):
            ExperimentConfig(code=SMALL_CONV, snr_db=(1.0,))
        ExperimentConfig(code=SMALL_CONV, snr_db=(1.0,), L=8)
        ExperimentConfig(code={"name": "golay24"}, snr_db=(1.0,))

    @pytest.mark.parametrize("code", [
        {"name": "golay24"}, {"type": "block", "n": 3, "k": 1, "generator_rows": ["7"]}])
    def test_block_code_rejects_L(self, code):
        # a block code has no information length: L is refused, not ignored
        with pytest.raises(ConfigError, match=r"\bL\b"):
            ExperimentConfig(code=code, snr_db=(1.0,), L=5)
        with pytest.raises(ConfigError, match=r"\bL\b"):
            run_experiment(ExperimentConfig(code=code, snr_db=(1.0,), L=5, mode="bound",
                                            variant="be"))


def run_script(script: str) -> str:
    """The stdout of a fresh interpreter running script, with this
    checkout's src on its path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120, check=True).stdout


@pytest.fixture
def in_process_pool(monkeypatch):
    """A stand-in ProcessPoolExecutor that runs every task in this process
    and records each open and shutdown in turn, with the pool's size
    ("events"), and the pickled size of each callable it maps ("pickled").
    The pool the harness keeps is dropped before the test, so no real pool
    serves it, and after, so no stand-in outlives it."""
    log = {"events": [], "pickled": []}

    class InProcessPool:
        def __init__(self, max_workers, mp_context=None):
            self.max_workers = max_workers
            log["events"].append(("open", max_workers))

        def shutdown(self):
            log["events"].append(("shutdown", self.max_workers))

        def map(self, fn, items):
            log["pickled"].append(len(pickle.dumps(fn)))
            return map(fn, items)

    harness._drop_pool()
    monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
    yield log
    harness._drop_pool()


class TestCurves:
    def test_csv_schema(self):
        pts = run_experiment(small_cfg())
        text = curve_csv_text(pts)
        lines = text.strip().split("\n")
        assert lines[0] == "gamma_b_db,bound_be,bound_chernoff,sim_mean,sim_ci95_half,trials"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert len(fields) == 6
        assert all(f != "" for f in fields)

    def test_one_trellis_per_code(self, monkeypatch):
        # one code spelled with octal and with taps builds one trellis
        built = []

        def counting_build(code, L):
            built.append(code)
            return build_trellis(code, L)
        monkeypatch.setattr(harness, "build_trellis", counting_build)
        harness._built_target.cache_clear()
        taps = {"type": "conv", "m": 2, "taps": ["110", "101", "111"], "name": "conv-657"}
        a = run_bound_curve(small_cfg(mode="bound"))
        b = run_bound_curve(small_cfg(code=taps, mode="bound"))
        assert len(built) == 1
        assert curve_csv_text(a) == curve_csv_text(b)

    def test_bound_only_leaves_sim_columns_empty(self):
        pts = run_experiment(small_cfg(mode="bound"))
        line = curve_csv_text(pts).strip().split("\n")[1]
        assert line.split(",")[3:] == ["", "", ""]

    def test_reproducible_bytes(self):
        a = curve_csv_text(run_experiment(small_cfg()))
        b = curve_csv_text(run_experiment(small_cfg()))
        assert a == b

    def test_worker_count_invariance(self):
        grid = dict(mode="simulate", trials=30, snr_db=(2.0, 4.0))
        a = curve_csv_text(run_simulation_curve(small_cfg(**grid)))
        b = curve_csv_text(run_simulation_curve(small_cfg(**grid, workers=2)))
        assert a == b

    @pytest.mark.parametrize("cpus, trials, pool", [
        (4, 30, 4), (4, 3, 3), (1, 30, None), (None, 30, None)])
    def test_pool_size_bounded(self, monkeypatch, in_process_pool, cpus, trials, pool):
        # the stand-in executor runs the trials here, so asking for a
        # million workers starts no process
        if cpus is None:  # neither an affinity set nor a CPU count
            monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(harness.os, "sched_getaffinity",
                                lambda pid: set(range(cpus)), raising=False)
        grid = dict(mode="simulate", trials=trials)
        got = curve_csv_text(run_simulation_curve(small_cfg(**grid, workers=10**6)))
        assert in_process_pool["events"] == ([] if pool is None else [("open", pool)])
        assert got == curve_csv_text(run_simulation_curve(small_cfg(**grid)))

    def test_pool_tasks_carry_the_code(self, monkeypatch, in_process_pool):
        # each pool task pickles to a few hundred bytes: the frozen code,
        # not the trellis with its cached d* table
        conv = {"type": "conv", "m": 6, "octal": ["634", "564"]}
        cfg = ExperimentConfig(code=conv, snr_db=(4.0, 5.0), trials=40, L=100,
                               mode="simulate", workers=2)
        run_bound_curve(cfg)  # caches the target's d*
        target = harness._built_target(code_from_config(conv), 100)
        assert len(pickle.dumps(target)) > 2048
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        got = curve_csv_text(run_simulation_curve(cfg))
        assert in_process_pool["events"] == [("open", 2)]
        pickled = in_process_pool["pickled"]
        assert len(pickled) == 2 and max(pickled) < 2048
        assert got == curve_csv_text(run_simulation_curve(replace(cfg, workers=1)))

    def test_pool_kept_across_runs(self, monkeypatch, in_process_pool):
        # two 2-worker runs share one pool; a 3-worker run shuts it down
        # and opens its own, which the run at L = 9 reuses, because each
        # worker builds the target it lacks; every CSV is the one-worker CSV
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(4)),
                            raising=False)
        grid = dict(mode="simulate", trials=30, snr_db=(2.0, 4.0))
        for workers, L in ((2, 8), (2, 8), (3, 8), (3, 9)):
            want = curve_csv_text(run_simulation_curve(small_cfg(**grid, L=L)))
            got = curve_csv_text(run_simulation_curve(small_cfg(**grid, L=L, workers=workers)))
            assert got == want
        assert in_process_pool["events"] == [("open", 2), ("shutdown", 2), ("open", 3)]

    def test_patch_reaches_kept_pool(self, monkeypatch):
        # a global patched after a pool forked makes the next run fork a
        # fresh one, so 2-worker runs see the patch as 1-worker runs do
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        grid = dict(mode="simulate", trials=30, snr_db=(2.0,))
        first = curve_csv_text(run_simulation_curve(small_cfg(**grid, workers=2)))
        monkeypatch.setattr(harness, "_run_trials",
                            lambda target, cfg, db, trials: [7] * len(trials))
        want = curve_csv_text(run_simulation_curve(small_cfg(**grid)))
        assert want != first
        assert curve_csv_text(run_simulation_curve(small_cfg(**grid, workers=2))) == want

    def test_broken_pool_replaced(self, monkeypatch, in_process_pool):
        # a run whose pool breaks raises, and the next run forks a fresh
        # pool and gives the one-worker CSV
        def broken(fn, items):
            raise BrokenProcessPool("a worker died")

        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = small_cfg(mode="simulate", workers=2)
        monkeypatch.setattr(harness._pool(2), "map", broken)
        with pytest.raises(BrokenProcessPool):
            run_simulation_curve(cfg)
        got = curve_csv_text(run_simulation_curve(cfg))
        assert in_process_pool["events"] == [("open", 2), ("shutdown", 2), ("open", 2)]
        assert got == curve_csv_text(run_simulation_curve(replace(cfg, workers=1)))

    def test_no_worker_outlives_its_interpreter(self):
        # a process that ran trials on its kept pool, and exits without
        # shutting the pool down, leaves none of its workers running
        script = (
            "import multiprocessing\n"
            "from seqdec import harness\n"
            "harness._usable_cpus = lambda: 2\n"
            "cfg = harness.ExperimentConfig(code={'type': 'conv', 'm': 2,"
            " 'octal': ['6', '5', '7']}, snr_db=(4.0,), trials=24, L=8, mode='simulate',"
            " workers=2)\n"
            "harness.run_simulation_curve(cfg)\n"
            "print(*[p.pid for p in multiprocessing.active_children()])\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, timeout=120, check=True).stdout
        pids = [int(p) for p in out.split()]
        assert len(pids) == 2
        deadline = time.monotonic() + 5.0
        for pid in pids:
            while True:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, f"worker {pid} still runs"
                time.sleep(0.05)

    @pytest.mark.skipif(sys.platform != "linux", reason="the pool forks on Linux only")
    @pytest.mark.parametrize("method", ["forkserver", "spawn"])
    def test_patch_reaches_pool_whatever_the_start_method(self, method):
        # the pool forks whatever the interpreter's default start method
        # (test_patch_reaches_kept_pool covers fork), so a global rebound
        # after a 2-worker run reaches the next one; the script runs under
        # -c, since spawn and forkserver children re-import the main module
        out = run_script(
            "import multiprocessing\n"
            f"multiprocessing.set_start_method({method!r}, force=True)\n"
            "from dataclasses import replace\n"
            "from seqdec import harness\n"
            "harness._usable_cpus = lambda: 2\n"
            "cfg = harness.ExperimentConfig(code={'type': 'conv', 'm': 2,"
            " 'octal': ['6', '5', '7']}, snr_db=(4.0,), trials=24, L=8, mode='simulate')\n"
            "def csv(workers):\n"
            "    return harness.curve_csv_text(harness.run_simulation_curve("
            "replace(cfg, workers=workers)))\n"
            "first = csv(2)\n"
            "harness._run_trials = lambda target, cfg, db, trials: [7] * len(trials)\n"
            "want = csv(1)\n"
            "print(want != first, csv(2) == want)\n")
        assert out.split() == ["True", "True"]

    def test_code_switch_keeps_the_workers(self):
        # a 2-worker run on another code reuses the workers of the last
        # one, which build the target they lack; each CSV is the
        # one-worker CSV
        out = run_script(
            "import multiprocessing\n"
            "from dataclasses import replace\n"
            "from seqdec import harness\n"
            "harness._usable_cpus = lambda: 2\n"
            "for code, L in (({'name': 'golay24'}, None),"
            " ({'type': 'conv', 'm': 2, 'octal': ['6', '5', '7']}, 8)):\n"
            "    cfg = harness.ExperimentConfig(code=code, snr_db=(4.0,), trials=24, L=L,"
            " mode='simulate', workers=2)\n"
            "    got = harness.curve_csv_text(harness.run_simulation_curve(cfg))\n"
            "    pids = sorted(p.pid for p in multiprocessing.active_children())\n"
            "    want = harness.curve_csv_text(harness.run_simulation_curve("
            "replace(cfg, workers=1)))\n"
            "    print(got == want, *pids)\n")
        golay, conv = (line.split() for line in out.splitlines())
        assert golay[0] == conv[0] == "True"
        assert len(golay) == 3 and golay[1:] == conv[1:]

    def test_pool_follows_cpu_affinity(self, monkeypatch):
        # a process pinned to one CPU of a larger host runs its trials
        # in process, with the CSV of one worker
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was opened")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
        got = curve_csv_text(run_simulation_curve(small_cfg(mode="simulate", workers=2)))
        assert got == curve_csv_text(run_simulation_curve(small_cfg(mode="simulate")))

    def test_seed_changes_sim_not_bound(self):
        a = run_experiment(small_cfg())
        b = run_experiment(small_cfg(seed=99))
        assert a[0].bound_be == b[0].bound_be
        assert a[0].sim_mean != b[0].sim_mean

    def test_sim_mean_respects_counting_floor(self):
        pts = run_simulation_curve(small_cfg(mode="simulate"))
        assert pts[0].sim_mean >= 2 * 8  # 2^k L with k=1, L=8

    def test_all_zero_mode(self):
        pts = run_simulation_curve(small_cfg(mode="simulate", all_zero=True,
                                             snr_db=(12.0,)))
        assert pts[0].sim_mean == pytest.approx(16.0)  # noiseless-ish floor

    def test_extension_budget_overflow_reported(self):
        pts = run_simulation_curve(small_cfg(mode="simulate", snr_db=(-6.0,),
                                             extension_limit=3, trials=10))
        assert pts[0].overflow_trials == 10
        assert pts[0].sim_mean is None
        assert pts[0].trials == 0

    @pytest.mark.parametrize("limit, counts", [(105, (0, 3000)), (106, (3000, 0))])
    def test_budget_at_a_straight_dive(self, monkeypatch, limit, counts):
        # at 11 dB the first dive of every (2,1,6) L=100 trial runs straight
        # to the goal in L + m = 106 extensions: a budget one short of that
        # overflows every trial, a budget of exactly that none, and the CSV
        # is the one the search alone gives
        cfg = ExperimentConfig(code={"type": "conv", "m": 6, "octal": ["634", "564"]}, L=100,
                               snr_db=(11.0,), trials=3000, seed=23, mode="simulate",
                               extension_limit=limit)
        points = run_simulation_curve(cfg)
        assert (points[0].trials, points[0].overflow_trials) == counts
        monkeypatch.setattr(decoders, "_first_dives",
                            lambda trellis, inc: (np.zeros(len(inc), dtype=bool), None, None))
        assert curve_csv_text(points) == curve_csv_text(run_simulation_curve(cfg))

    @pytest.mark.parametrize("limit, rows", [(29, "0,,,,,0\n4,,,,,0\n"),
                                             (30, "0,,,60,0,200\n4,,,60,0,200\n")])
    def test_memory_zero_csv(self, limit, rows):
        # a memory-0 trial takes L extensions, whether its first dive, the
        # count or the search settles it: they fit a budget of L, and none
        # fits L - 1
        cfg = ExperimentConfig(code={"type": "conv", "m": 0, "taps": ["1", "1"]}, L=30,
                               snr_db=(0.0, 4.0), trials=200, seed=21, mode="simulate",
                               extension_limit=limit)
        assert curve_csv_text(run_simulation_curve(cfg)) == (
            "gamma_b_db,bound_be,bound_chernoff,sim_mean,sim_ci95_half,trials\n" + rows)

    def test_bound_curve_monotone(self):
        cfg = small_cfg(mode="bound", snr_db=tuple(np.arange(1.0, 9.0, 1.0)))
        pts = run_bound_curve(cfg)
        vals = [p.bound_chernoff for p in pts]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestAtilde:
    def test_stays_at_one_for_small_n(self):
        rows = run_atilde_table(0.2, 1.0, [10, 20, 30, 40, 50])
        assert all(v == 1.0 for _, v in rows)

    def test_dips_at_large_n(self):
        # the visible reduction at n = 200 appears at 1 dB; at -3 dB the
        # prefactor terms still sum past 1 there and the dip starts near
        # n = 400 (cross-checked against direct integration of the
        # tilted moments)
        rows = dict(run_atilde_table(0.2, 1.0, [50, 200, 400]))
        assert rows[50] == 1.0
        assert rows[200] < 1.0
        assert rows[400] < rows[200]
        low_snr = dict(run_atilde_table(0.2, -3.0, [200, 400]))
        assert low_snr[200] == 1.0
        assert low_snr[400] < 1.0

    def test_monotone_after_departure(self):
        rows = [v for _, v in run_atilde_table(0.2, -1.0, list(range(40, 401, 20)))]
        departed = [v for v in rows if v < 1.0]
        assert all(a >= b for a, b in zip(departed, departed[1:]))

    def test_equals_one_ratio_at_a_time(self):
        # ratio 0.3 at -10 dB has a tilt root at n = 5 only (prefactor 1
        # without one)
        for ratio, db in ((0.2, 1.0), (0.3, -10.0), (0.3, 6.0)):
            grid = [5, 40, 200, 1000, 3000]
            gamma = 10.0 ** (db / 10.0)
            want = []
            for n in grid:
                d = round(ratio * n)
                try:
                    lam = bounds.solve_tilt(d, n, gamma)
                except bounds.NoRoot:
                    want.append((n, 1.0))
                else:
                    want.append((n, bounds.subexponential_factor(d, n - d, gamma, lam,
                                                                 bounds.BERRY_ESSEEN)))
            assert run_atilde_table(ratio, db, grid) == want
        assert run_atilde_table(0.2, 1.0, []) == []

    def test_sample_count_limit(self):
        with pytest.raises(ConfigError):
            run_atilde_table(0.2, 1.0, [100, bounds.MAX_SUMMANDS])

    def test_bad_ratio(self):
        with pytest.raises(ConfigError):
            run_atilde_table(1.2, 0.0, [100])


@pytest.fixture(scope="module")
def validation_run():
    """One run of the validation suite, shared by the tests that read it,
    with the hit counts of every extension-event draw it made."""
    tallies = []
    estimate = harness.extension_event_hits

    def recording(*args):
        hits = estimate(*args)
        tallies.append(hits.tolist())
        return hits

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "extension_event_hits", recording)
        results = run_validation_suite()
    return results, tallies


class TestValidationSuite:
    def test_all_pass(self, validation_run):
        results, _ = validation_run
        assert all(r.passed for r in results), [r for r in results if not r.passed]

    def test_dstar_fault_injection(self, fig_trellis_code, monkeypatch):
        trellis = build_trellis(fig_trellis_code, 6)
        table = compute_dstar(trellis).copy()  # the cached table is read-only
        table[3, 2] += 1  # corrupt one entry
        monkeypatch.setattr(harness, "compute_dstar", lambda t: table)
        result = check_dstar_oracle(trellis)
        assert not result.passed


class TestExtensionEventHits:
    """Hit counts of the extension event, pinned from the draw code each
    site had of its own before they shared one estimator."""

    def test_validation_checks(self, validation_run):
        # only the two Monte Carlo checks of the suite draw the event
        results, tallies = validation_run
        passed = {r.name: r.passed for r in results}
        assert passed["bound-dominance"] and passed["extension-probability-monotone"]
        assert tallies == [
            [[100000, 100000, 100000, 100000], [7744, 13222, 19608, 26706],
             [2216, 3776, 5971, 8638], [679, 1184, 1881, 2849]],
            [[100000, 100000, 100000, 100000], [2346, 3389, 4657, 6036],
             [227, 340, 480, 653], [25, 34, 55, 77]],
            [[426019], [231171], [129067], [72653], [41625], [23809]],
        ]

    @pytest.mark.parametrize("d, clipped, gamma, samples, seed, hits", [
        (5, 15, 1.0, 1_000_000, 17, 2750),
        (3, 10, 0.25, 200_000, 103, 71231),
    ])
    def test_single_cells(self, d, clipped, gamma, samples, seed, hits):
        gen = np.random.Generator(np.random.PCG64(seed))
        got = harness.extension_event_hits(gen, gamma, [d], [clipped], samples)
        assert got.tolist() == [[hits]]


class TestShippedConfigs:
    def test_all_parse(self):
        root = resources.files("seqdec") / "configs"
        names = sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))
        assert names == [f"fig{i}.json" for i in range(1, 9)]
        for name in names:
            raw = json.loads((root / name).read_text())
            if "code" in raw:
                code_from_config(raw["code"])

    def test_memory16_configs_flag_interpretation(self):
        root = resources.files("seqdec") / "configs"
        for name in ("fig7.json", "fig8.json"):
            raw = json.loads((root / name).read_text())
            assert "interpretation-dependent" in raw.get("note", "")
            code = code_from_config(raw["code"])
            assert code.m == 16

    def test_all_load_through_the_library(self):
        # every shipped config loads without the CLI: the curve configs
        # (fig7 and fig8 with their free-text note) as ExperimentConfigs,
        # the prefactor configs as run_atilde_table calls
        root = resources.files("seqdec") / "configs"
        for i in range(1, 9):
            raw = json.loads((root / f"fig{i}.json").read_text())
            if i <= 2:
                for curve in raw["curves"]:
                    rows = run_atilde_table(curve["d_over_n"], curve["gamma_db"],
                                            raw["n_grid"])
                    assert len(rows) == len(raw["n_grid"])
                continue
            cfg = ExperimentConfig.from_dict(raw)
            assert cfg.trials == raw["trials"] and cfg.L == raw.get("L")
            assert isinstance(code_from_config(cfg.code), BlockCode if i <= 4 else ConvCode)

    @pytest.mark.parametrize("raw, match", [
        ({"lenght": 9}, "lenght"), ({"Note": "x"}, "Note"), ({"mode": "both", "L": 5}, "L")])
    def test_library_rejects_unknown_or_misplaced_keys(self, raw, match):
        # keys no field names are ConfigErrors, not TypeErrors, and so is L
        # on a block code; mode is a field the library reads
        base = json.loads((resources.files("seqdec") / "configs" / "fig3.json").read_text())
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict({**base, **raw})

    def test_library_needs_code_and_grid(self):
        with pytest.raises(ConfigError, match="code"):
            ExperimentConfig.from_dict({"snr_db": [1.0], "note": "x"})
        with pytest.raises(ConfigError, match="snr_db"):
            ExperimentConfig.from_dict({"code": {"name": "golay24"}})

    @pytest.mark.parametrize("name, command", [
        ("fig1", "atilde"), ("fig2", "atilde"),
        ("fig3", "simulate-gda"), ("fig4", "simulate-gda"),
        *((f"fig{i}", "simulate-mlsda") for i in range(5, 9))])
    def test_runs_through_its_subcommand(self, capsys, name, command):
        # every key of a shipped config is one its subcommand reads
        path = resources.files("seqdec") / "configs" / f"{name}.json"
        argv = [command, "--config", str(path)]
        if command != "atilde":
            argv += ["--trials", "2", "--snr", str(json.loads(path.read_text())["snr_db"][-1])]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        if command == "atilde":
            assert len(lines) == 38
        else:
            assert len(lines) == 2 and lines[1].endswith(",2")


class TestCli:
    def test_bound_csv(self, capsys, tmp_path):
        rc = cli.main(["bound-gda", "--code", "golay24", "--snr", "10.0:10.0:1.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("gamma_b_db,")
        value = float(out.strip().split("\n")[1].split(",")[1])
        assert value == pytest.approx(24.59, abs=0.1)

    def test_simulate_to_file(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = cli.main(["simulate-mlsda", "--config",
                       str(_write_cfg(tmp_path)), "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.splitlines()[0].startswith("gamma_b_db,")

    def test_config_error_exit_code(self, capsys):
        rc = cli.main(["bound-gda", "--snr", "1:2:1"])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_wrong_code_kind(self, capsys, tmp_path):
        path = tmp_path / "block.json"
        path.write_text(json.dumps({"code": {"name": "golay24"}, "snr_db": [1.0, 2.0]}))
        rc = cli.main(["bound-mlsda", "--config", str(path)])
        assert rc == 2
        assert "expects a convolutional code" in capsys.readouterr().err

    @pytest.mark.parametrize("name, flags", [
        ("bound-gda", ["--config", "--code", "--snr", "--variant", "--out"]),
        ("bound-mlsda", ["--config", "--length", "-L", "--snr", "--variant", "--out"]),
        ("simulate-gda", ["--config", "--code", "--snr", "--out", "--seed", "--trials",
                          "--workers", "--all-zero", "--extension-limit"]),
        ("simulate-mlsda", ["--config", "--length", "-L", "--snr", "--out", "--seed",
                            "--trials", "--workers", "--all-zero", "--extension-limit"]),
    ])
    def test_curve_flags_are_the_ones_read(self, curve_flags, name, flags):
        assert curve_flags(name) == flags

    @pytest.mark.parametrize("argv", [
        ["bound-gda", "--code", "golay24", "--snr", "1", "--seed", "1"],
        ["simulate-gda", "--code", "golay24", "--snr", "1", "--variant", "be"],
        ["bound-gda", "--code", "golay24", "--snr", "1", "-L", "5"],
        ["simulate-mlsda", "--code", "golay24", "--snr", "1"],
    ])
    def test_unread_curve_flag_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_atilde_from_fig_config(self, capsys):
        cfg = resources.files("seqdec") / "configs" / "fig1.json"
        rc = cli.main(["atilde", "--config", str(cfg), "--gamma-db", "1",
                       "--n-grid", "40,200"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "n,atilde"
        assert float(lines[1].split(",")[1]) == 1.0
        assert float(lines[2].split(",")[1]) < 1.0

    def test_dstar_csv(self, capsys):
        rc = cli.main(["dstar", "--octal", "6,5,7", "-m", "2", "-L", "5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "level,state,dstar"
        table = {(int(l), int(s)): int(d)
                 for l, s, d in (line.split(",") for line in lines[1:])}
        assert table[(3, 3)] == 4

    def test_dstar_csv_literal(self, capsys):
        rc = cli.main(["dstar", "--octal", "6,5,7", "-m", "2", "-L", "6"])
        assert rc == 0
        assert capsys.readouterr().out == (
            "level,state,dstar\n"
            "0,0,0\n"
            "1,0,0\n1,1,3\n"
            + "".join(f"{level},0,0\n{level},1,3\n{level},2,5\n{level},3,4\n"
                      for level in range(2, 7))
            + "7,0,0\n7,2,5\n"
            "8,0,0\n")

    def test_dstar_csv_equals_whole_table_dump(self, conv_634_564):
        # the level-by-level writer gives the bytes of one dump of every
        # present (level, state) of the table at once
        trellis = build_trellis(conv_634_564, 100)
        table = compute_dstar(trellis)
        levels, states = np.nonzero(table != ABSENT)
        want = "level,state,dstar\n" + "".join(
            f"{lv},{st},{d}\n" for lv, st, d in zip(levels.tolist(), states.tolist(),
                                                   table[levels, states].tolist()))
        out = io.StringIO()
        harness.write_dstar_csv(trellis, out)
        assert out.getvalue() == want

    @pytest.mark.parametrize("extra, flags, rc, message", [
        # a key no experiment-config field names is not read, so it is refused
        ({"lenght": 9}, [], 2, "lenght"),
        ({"lenght": 9}, ["-L", "4"], 2, "lenght"),
        # keys that name fields, and the note, are allowed
        ({"note": "x", "snr_db": [1.0], "trials": 3}, [], 0, ""),
        # ExperimentConfig's L rule
        ({"L": None}, [], 2, "need L"),
        ({"L": 0}, [], 2, "L must be >= 1"),
        ({"L": 2.5}, [], 2, "L must be an integer"),
        ({"L": 0}, ["-L", "3"], 0, ""),  # the flag wins
        # a dstar config is an experiment config: every field is checked
        ({"trials": -5}, [], 2, "trials must be >= 1"),
        ({"snr_db": "x"}, [], 2, "snr_db must be a list of numbers"),
        ({"snr_db": None}, [], 2, "['snr_db'] missing"),
    ])
    def test_dstar_config_rules(self, capsys, tmp_path, extra, flags, rc, message):
        raw = {k: v for k, v in {"code": SMALL_CONV, "L": 3, "snr_db": [1.0], **extra}.items()
               if v is not None}
        path = tmp_path / "dstar.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["dstar", "--config", str(path), *flags]) == rc
        out, err = capsys.readouterr()
        if rc:
            assert err.startswith("config error:") and message in err and out == ""
            # simulate-mlsda refuses the same config with the same message
            assert cli.main(["simulate-mlsda", "--config", str(path), *flags]) == rc
            assert capsys.readouterr() == (out, err)
        else:
            assert out.startswith("level,state,dstar\n") and err == ""

    def test_invalid_snr_exit_code(self, capsys):
        # -4000 dB underflows to a linear SNR of 0, which the channel rejects
        rc = cli.main(["simulate-gda", "--code", "golay24", "--snr", "-4000",
                       "--trials", "1"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_non_finite_snr_exit_code(self, capsys):
        rc = cli.main(["bound-gda", "--code", "golay24", "--snr", "nan"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_overflowing_bound_snr_exit_code(self, capsys, tmp_path):
        # e^gamma overflows past gamma of about 709.78: golay24 at 35 dB
        # (gamma about 1581), the (3,1,2) code at 40 dB and gamma = 30 dB
        cfg = tmp_path / "conv.json"
        cfg.write_text(json.dumps({**CONV_CFG, "snr_db": [40.0]}))
        for argv in (["bound-gda", "--code", "golay24", "--snr", "35"],
                     ["bound-mlsda", "--config", str(cfg)],
                     ["atilde", "--ratio", "0.5", "--gamma-db", "30", "--n-grid", "10,20"]):
            rc = cli.main(argv)
            assert rc == 2
            assert "e^gamma overflows" in capsys.readouterr().err

    def test_high_snr_bound_reaches_floor(self, capsys):
        # just below the overflow the golay24 bound is its 2k floor
        rc = cli.main(["bound-gda", "--code", "golay24", "--snr", "29"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[1] == "29,24,24,,,"

    def test_overflowing_llr_exit_code(self, capsys):
        # at 1540 dB the LLRs are finite but their squares overflow; at
        # 160 dB they pass 2^53, where phi - 1 and phi + 1 round to one float
        for snr in ("1540", "160"):
            rc = cli.main(["simulate-gda", "--code", "golay24", "--snr", snr,
                           "--trials", "3"])
            assert rc == 2
            assert "overflow" in capsys.readouterr().err

    def test_non_finite_llr_exit_code(self, capsys, monkeypatch):
        def boom(cfg):
            raise NonFiniteLLR("LLR vector holds NaN or infinite entries")
        monkeypatch.setattr(harness, "run_experiment", boom)
        rc = cli.main(["simulate-gda", "--code", "golay24", "--snr", "1.0",
                       "--trials", "1"])
        assert rc == 2
        assert "NaN" in capsys.readouterr().err

    @pytest.mark.parametrize("leaf", ["missing/x.csv", "file.txt/x.csv", "directory", None])
    def test_out_directory_checked_before_run(self, capsys, monkeypatch, tmp_path, leaf):
        # leaf None is an empty --out
        def no_run(cfg):
            raise AssertionError("the run started before --out was checked")
        monkeypatch.setattr(harness, "run_experiment", no_run)
        (tmp_path / "file.txt").write_text("")
        (tmp_path / "directory").mkdir()
        rc = cli.main(["simulate-gda", "--code", "golay24", "--snr", "2", "--trials", "2000",
                       "--out", "" if leaf is None else str(tmp_path / leaf)])
        assert rc == 2
        assert "config error:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["directory", "file.txt"]

    @pytest.mark.parametrize("existing", [True, False])
    def test_out_writable_checked_before_run(self, capsys, monkeypatch, tmp_path, existing):
        # permission bits do not bind root, so the denial is simulated
        def no_run(cfg):
            raise AssertionError("the run started before --out was checked")
        monkeypatch.setattr(harness, "run_experiment", no_run)
        asked = []

        def deny(path, mode):
            asked.append(path)
            return False
        monkeypatch.setattr(cli.os, "access", deny)
        out = tmp_path / "x.csv"
        if existing:
            out.write_text("")
        rc = cli.main(["simulate-gda", "--code", "golay24", "--snr", "2", "--trials", "2000",
                       "--out", str(out)])
        assert rc == 2
        assert "permission denied" in capsys.readouterr().err
        assert asked == [str(out) if existing else str(tmp_path)]

    @pytest.mark.parametrize("command, name, typo", [
        ("simulate-gda", "fig4", {"extension_limt": 3, "wrokers": 2}),
        ("bound-mlsda", "fig7", {"varaint": "be"}),
        ("atilde", "fig1", {"n_gird": [40]}),
        ("bound-gda", "fig3", {"mode": "both"}),  # the subcommand sets mode
        ("bound-gda", "fig3", {"L": 5}),  # a block code has no information length
        ("simulate-gda", "fig4", {"L": 5}),
    ])
    def test_unknown_config_key_rejected_before_run(self, capsys, monkeypatch, tmp_path,
                                                    command, name, typo):
        def no_run(*args):
            raise AssertionError("the run started before the config was checked")
        monkeypatch.setattr(harness, "run_experiment", no_run)
        monkeypatch.setattr(harness, "run_atilde_table", no_run)
        raw = json.loads((resources.files("seqdec") / "configs" / f"{name}.json").read_text())
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({**raw, **typo}))
        rc = cli.main([command, "--config", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and min(typo) in err

    def test_broken_pipe_exits_141(self, capsys, monkeypatch, tmp_path):
        # seqdec ... | head: the reader of stdout goes away mid-CSV
        class Gone:
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return self.fd

        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        monkeypatch.setattr(sys, "stdout", Gone(fd))
        try:
            assert cli.main(["bound-gda", "--code", "golay24", "--snr=-8,-4"]) == 141
        finally:
            os.close(fd)
        assert capsys.readouterr().err == ""  # no traceback

    @pytest.mark.parametrize("argv, kind", [
        (["dstar", "--octal", "6,5,7", "-L", "4"], "config"),
        (["atilde", "--ratio", "0.2", "--gamma-db", "1", "--n-grid", "40,x"], "config"),
        (["atilde", "--config", "{curves}", "--gamma-db", "1"], "config"),
        (["atilde", "--ratio", "0.2", "--gamma-db", "nan"], "input"),
        (["bound-gda", "--code", "golay24", "--snr", "-4000"], "input"),
        (["bound-mlsda", "--config", "{conv}", "--snr", "-4000"], "input"),
        (["bound-gda", "--code", "golay24", "--snr", "4000"], "input"),
        (["bound-gda", "--config", "{list}", "--snr", "1"], "config"),
        (["atilde", "--config", "{curve-list}"], "config"),
        (["atilde", "--config", "{curve-text}"], "config"),
        (["atilde", "--config", "{n-grid}"], "config"),
        (["simulate-mlsda", "--config", "{conv}", "-L", "-5"], "config"),
        (["bound-mlsda", "--config", "{conv}", "-L", "-5", "--snr", "1"], "config"),
        (["dstar", "--octal", "6,5,7", "-m", "2", "-L", "-3"], "config"),
        (["simulate-mlsda", "--config", "{conv}", "--extension-limit", "0"], "config"),
        (["simulate-gda", "--code", "golay24", "--snr", "1", "--trials", "1",
          "--extension-limit", "-4"], "config"),
        (["bound-gda", "--code", "golay24", "--snr", "0:10:nan"], "config"),
        (["bound-gda", "--code", "golay24", "--snr", "0:10:inf"], "config"),
        (["bound-gda", "--code", "golay24", "--snr", "0:inf:1"], "config"),
        (["bound-gda", "--code", "golay24", "--snr", "1:2:1e-300"], "config"),
        (["simulate-mlsda", "--config", "{trials-text}"], "config"),
        (["simulate-mlsda", "--config", "{seed-text}"], "config"),
        (["bound-mlsda", "--config", "{no-L}"], "config"),
        (["simulate-mlsda", "--config", "{trials-float}"], "config"),
        (["simulate-mlsda", "--config", "{snr-text}"], "config"),
        (["simulate-mlsda", "--config", "{L-text}"], "config"),
        (["simulate-mlsda", "--config", "{L-float}"], "config"),
        (["simulate-mlsda", "--config", "{L-bool}"], "config"),
        (["dstar", "--config", "{L-text}"], "config"),
        (["dstar", "--config", "{L-float}"], "config"),
        (["dstar", "--config", "{L-bool}"], "config"),
        (["simulate-mlsda", "--config", "{taps}"], "config"),
        (["dstar", "--config", "{taps}"], "config"),
        (["dstar", "--config", "{octal-text}"], "config"),
        (["simulate-mlsda", "--config", "{octal-text}"], "config"),
        (["dstar", "--config", "{taps-text}"], "config"),
        (["dstar", "--config", "{m-float}"], "config"),
        (["dstar", "--config", "{m-text}"], "config"),
        (["dstar", "--config", "{m-bool}"], "config"),
        (["dstar", "--config", "{m-negative}"], "config"),
        (["simulate-mlsda", "--config", "{m-negative}"], "config"),
        (["bound-gda", "--config", "{n-float}", "--snr", "1"], "config"),
        (["bound-gda", "--config", "{rows-text}", "--snr", "1"], "config"),
        # a block code with no information bits is rejected, not divided by
        (["simulate-gda", "--config", "{k-zero-empty}", "--snr", "1", "--trials", "3"], "config"),
        (["simulate-gda", "--config", "{k-zero}", "--snr", "1", "--trials", "3"], "config"),
        # an empty flag is an error, not a fall-back to the config or a default
        (["atilde", "--ratio", "0.2", "--gamma-db", "1", "--n-grid", ""], "config"),
        (["atilde", "--config", "", "--ratio", "0.2", "--gamma-db", "1"], "config"),
        (["simulate-mlsda", "--config", "{conv}", "--snr", ""], "config"),
        (["simulate-gda", "--code", "", "--snr", "1", "--trials", "1"], "config"),
        (["simulate-mlsda", "--config", "{conv}", "--out", ""], "config"),
        (["bound-gda", "--config", "", "--code", "golay24", "--snr", "1"], "config"),
        (["dstar", "--config", "", "--octal", "6,5,7", "-m", "2", "-L", "3"], "config"),
        (["dstar", "--config", "{conv}", "--octal", "", "-m", "2"], "config"),
        (["dstar", "--octal", "6,5,7", "-m", "2", "-L", "3", "--out", ""], "config"),
        # an output that cannot be opened is a config error, not a traceback
        (["simulate-mlsda", "--config", "{conv}", "--out", "{no-dir}"], "config"),
        # seeds outside [0, 2^64) would alias others modulo 2^64
        (["simulate-mlsda", "--config", "{conv}", "--seed", "-1"], "config"),
        (["simulate-mlsda", "--config", "{conv}", "--seed", "18446744073709551616"], "config"),
        # a named code is {"name": ...} alone, not a block spec without rows
        (["bound-gda", "--config", "{block-named}", "--snr", "1"], "config"),
        # -m is read only with --octal
        (["dstar", "--config", "{conv}", "-m", "3"], "config"),
    ])
    def test_bad_input_exit_code(self, capsys, tmp_path, argv, kind):
        configs = {
            "{curves}": {"curves": [{"gamma_db": 1}]},  # a curve without d_over_n
            "{list}": [],
            "{curve-list}": {"curves": [[0.2, 1.0]]},  # a curve that is no object
            "{curve-text}": {"curves": [{"d_over_n": 0.2, "gamma_db": "x"}]},
            "{n-grid}": {"curves": [{"d_over_n": 0.2, "gamma_db": 1}], "n_grid": ["x"]},
            "{trials-text}": {**CONV_CFG, "trials": "100"},
            "{seed-text}": {**CONV_CFG, "seed": "7"},
            "{no-L}": {k: v for k, v in CONV_CFG.items() if k != "L"},
            "{trials-float}": {**CONV_CFG, "trials": 2.5},
            "{snr-text}": {**CONV_CFG, "snr_db": "2.0"},
            "{L-text}": {**CONV_CFG, "L": "x"},
            "{L-float}": {**CONV_CFG, "L": 2.7},
            "{L-bool}": {**CONV_CFG, "L": True},
            # tap digits other than 0 and 1 are rejected, not read as taps
            "{taps}": {**CONV_CFG, "code": {"type": "conv", "m": 1, "taps": ["12", "11"]}},
            # a string of generators or taps is not read digit by digit
            "{octal-text}": {**CONV_CFG, "code": {"type": "conv", "m": 6, "octal": "634"}},
            "{taps-text}": {**CONV_CFG, "code": {"type": "conv", "m": 0, "taps": "11"}},
            # a memory that is not a JSON integer is not rounded or parsed
            "{m-float}": {**CONV_CFG, "code": {**SMALL_CONV, "m": 2.5}},
            "{m-text}": {**CONV_CFG, "code": {**SMALL_CONV, "m": "2"}},
            "{m-bool}": {**CONV_CFG, "code": {"type": "conv", "m": True, "taps": ["11"]}},
            "{m-negative}": {**CONV_CFG, "code": {"type": "conv", "m": -1, "taps": [""]}},
            "{n-float}": {**BLOCK_CFG, "code": {"type": "block", "n": 3.0, "k": 1,
                                                "generator_rows": ["7"]}},
            "{rows-text}": {**BLOCK_CFG, "code": {"type": "block", "n": 3, "k": 1,
                                                  "generator_rows": "7"}},
            "{k-zero-empty}": {**BLOCK_CFG, "code": {"type": "block", "n": 0, "k": 0,
                                                     "generator_rows": []}},
            "{k-zero}": {**BLOCK_CFG, "code": {"type": "block", "n": 3, "k": 0,
                                               "generator_rows": []}},
            "{block-named}": {**BLOCK_CFG, "code": {"type": "block", "name": "qr48"}},
        }
        paths = {"{conv}": str(_write_cfg(tmp_path)), "{no-dir}": str(tmp_path / "no" / "x.csv")}
        for key, raw in configs.items():
            path = tmp_path / f"{key[1:-1]}.json"
            path.write_text(json.dumps(raw))
            paths[key] = str(path)
        rc = cli.main([paths.get(a, a) for a in argv])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"{kind} error:")

    def test_validate_passes(self, capsys, monkeypatch, validation_run):
        results, _ = validation_run
        monkeypatch.setattr(harness, "run_validation_suite", lambda: results)
        assert cli.main(["validate"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_validate_failure_exit_code(self, capsys, monkeypatch):
        results = [harness.CheckResult("good", True, "ok"),
                   harness.CheckResult("bad", False, "off by one")]
        monkeypatch.setattr(harness, "run_validation_suite", lambda: results)
        assert cli.main(["validate"]) == 1
        out, err = capsys.readouterr()
        assert out == "PASS good: ok\nFAIL bad: off by one\n"
        assert "1 check(s) failed" in err


CONV_CFG = {"code": SMALL_CONV, "L": 8, "snr_db": [6.0], "trials": 10,
            "seed": 4, "variant": "both", "workers": 1}
BLOCK_CFG = {k: v for k, v in CONV_CFG.items() if k != "L"}  # a block code takes no L


def _write_cfg(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(CONV_CFG))
    return path


# golden simulation CSVs: a sha256 of curve_csv_text per fixed-seed config,
# together with the overflow counts per point.  The digests were written
# once from the one-trial-at-a-time harness and must never be regenerated
# from a changed pipeline.

_QR48 = {"name": "qr48"}
_GOLAY = {"name": "golay24"}
_C634 = {"type": "conv", "m": 6, "octal": ["634", "564"]}
_M16 = {"type": "conv", "m": 16, "taps": ["11100110100001001", "10011001011110111"]}

GOLDEN_CSV = {  # name -> (config, overflow trials per point, sha256)
    "golay": (dict(code=_GOLAY, snr_db=(1.0, 2.0, 3.0), trials=301, seed=11), [0, 0, 0],
              "3bfdaf90cc90728d93943e86725d52d35c0d40d5b5efeb1ca9124744442fcf5a"),
    "qr48": (dict(code=_QR48, snr_db=(4.5,), trials=40, seed=12), [0],
             "d42a1c5e19e2aba1dcddcbf6cbb9ac1a68e7b69e4550fbce8ebff80f2bd3ae9a"),
    "conv657": (dict(code=SMALL_CONV, L=8, snr_db=(0.0, 2.0, 4.0), trials=601, seed=13),
                [0, 0, 0], "440893e49f48b66f7dda7e4edea05427e9ea5aa68091433589b02443690c1e3f"),
    "conv634": (dict(code=_C634, L=100, snr_db=(5.0, 8.0, 11.0), trials=150, seed=14),
                [0, 0, 0], "f886531927d463136bb0d823d859f8e9e0ac84a8819c2cda0924244cdb18156c"),
    "conv-m16": (dict(code=_M16, L=100, snr_db=(8.0,), trials=30, seed=15), [0],
                 "9c7387476666476ecd9bc7e3a4953ea4c485c5ee86ae9c0176c8cb3c4d5b84d1"),
    "golay-all-zero": (dict(code=_GOLAY, snr_db=(1.0, 3.0), trials=100, seed=16,
                            all_zero=True), [0, 0],
                       "d5ac12ae4e13d42c7b94980ce5011fc6da6d0b4d45fb842c14de9f5627c2d42c"),
    "conv634-all-zero": (dict(code=_C634, L=100, snr_db=(3.0, 8.0), trials=100, seed=17,
                              all_zero=True), [0, 0],
                         "1458d81e6da58d6c55148365b9100670d04163f3a22bd3234e186b9e4cfea41a"),
    "golay-limit": (dict(code=_GOLAY, snr_db=(-1.0, 1.0), trials=100, seed=18,
                         extension_limit=400), [55, 29],
                    "2269eb2808556321c850f296feb5c6e073710b1d4bf15b569f3ba156d97eab19"),
    "conv634-limit": (dict(code=_C634, L=100, snr_db=(3.0, 5.0), trials=100, seed=20,
                           extension_limit=200), [98, 27],
                      "57cf33ef757eccbc7ca84526568dcfd8d12c5a20cc2a672e021a48231401353a"),
    "conv657-limit": (dict(code=SMALL_CONV, L=8, snr_db=(-3.0, 0.0), trials=100, seed=19,
                           extension_limit=12), [94, 78],
                      "957e0051402d9d6ed4a9502d16097a653b9f0fec2bba9842dfe5d1f1c08c5149"),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(GOLDEN_CSV))
def test_golden_csv(name, workers):
    config, overflow, digest = GOLDEN_CSV[name]
    points = run_simulation_curve(ExperimentConfig(**config, mode="simulate",
                                                   workers=workers))
    text = curve_csv_text(points)
    assert ([p.overflow_trials for p in points],
            hashlib.sha256(text.encode()).hexdigest()) == (overflow, digest)


RESULTS = Path(__file__).resolve().parents[1] / "results"


@pytest.mark.parametrize("figure", ["fig5", "fig6", "fig7", "fig8"])
def test_golden_bound_curves(figure):
    # every point of each shipped trellis figure's bound curve, both
    # variants, byte for byte against the CSV `seqdec bound-mlsda
    # --config src/seqdec/configs/<figure>.json` wrote into results/
    raw = json.loads((resources.files("seqdec") / "configs" / f"{figure}.json").read_text())
    text = curve_csv_text(run_bound_curve(ExperimentConfig.from_dict(raw)))
    assert text.encode() == (RESULTS / f"{figure}-bound.csv").read_bytes()


def test_code_wider_than_64_bits(textbook_gda):
    # a (72, 8) code, each row with bit 71 set: the batch path searches
    # every row on tables of Python ints.  The CSV, at 1 and 2 workers,
    # is pinned, and each decode is the plain search's, count for count
    rng = np.random.default_rng(72)
    rows = [(1 << i) | int.from_bytes(rng.bytes(8), "little") << 8 | 1 << 71 for i in range(8)]
    spec = {"type": "block", "n": 72, "k": 8, "generator_rows": [format(r, "x") for r in rows]}
    for workers in (1, 2):
        cfg = ExperimentConfig(code=spec, snr_db=(6.0, 10.0), trials=60, seed=21,
                               mode="simulate", workers=workers)
        text = curve_csv_text(run_simulation_curve(cfg))
        assert (hashlib.sha256(text.encode()).hexdigest()
                == "b36ed68539b074d750fd93aa994caf7628292ed832296577a21db10fa1ec4b01")
    code = code_from_config(spec)
    for phi in trial_llrs(code, 6.0, 21, range(6)):
        offset, bm0, bm1 = decoders._gda_tables(phi)
        *counts, metric, bits, _ = textbook_gda(code, bm0.tolist(), bm1.tolist())
        out = decoders.gda_decode(code, phi)
        assert [out.branch_computations, out.branch_computations_total, out.extensions] == counts
        assert out.metric == metric + float(offset)
        assert out.decoded.tolist() == [(bits >> j) & 1 for j in range(code.n)]
