import hashlib
import io
import json
from importlib import resources

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
    def test_pool_size_bounded(self, monkeypatch, cpus, trials, pool):
        # the stand-in executor records its size and runs the trials here,
        # so asking for a million workers starts no process
        opened = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                opened.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        if cpus is None:  # neither an affinity set nor a CPU count
            monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(harness.os, "sched_getaffinity",
                                lambda pid: set(range(cpus)), raising=False)
        grid = dict(mode="simulate", trials=trials)
        got = curve_csv_text(run_simulation_curve(small_cfg(**grid, workers=10**6)))
        assert opened == ([] if pool is None else [pool])
        assert got == curve_csv_text(run_simulation_curve(small_cfg(**grid)))

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
        # a memory-0 code never dives, so every trial is searched: its L
        # extensions fit a budget of L, and none fits L - 1
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

    def test_dstar_fault_injection(self, fig_trellis_code):
        trellis = build_trellis(fig_trellis_code, 6)
        table = compute_dstar(trellis)
        table[3, 2] += 1  # corrupt one entry
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
        rc = cli.main(["bound-mlsda", "--code", "golay24", "--snr", "1:2:1"])
        assert rc == 2

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

    @pytest.mark.parametrize("command, name, typo", [
        ("simulate-gda", "fig4", {"extension_limt": 3, "wrokers": 2}),
        ("bound-mlsda", "fig7", {"varaint": "be"}),
        ("atilde", "fig1", {"n_gird": [40]}),
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
        (["simulate-mlsda", "--config", "{conv}", "--code", ""], "config"),
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
            "{n-float}": {**CONV_CFG, "code": {"type": "block", "n": 3.0, "k": 1,
                                               "generator_rows": ["7"]}},
            "{rows-text}": {**CONV_CFG, "code": {"type": "block", "n": 3, "k": 1,
                                                 "generator_rows": "7"}},
            "{k-zero-empty}": {**CONV_CFG, "code": {"type": "block", "n": 0, "k": 0,
                                                    "generator_rows": []}},
            "{k-zero}": {**CONV_CFG, "code": {"type": "block", "n": 3, "k": 0,
                                              "generator_rows": []}},
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
            "seed": 4, "variant": "both", "mode": "simulate", "workers": 1}


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
