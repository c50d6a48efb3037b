"""One measurement of one workload, in a fresh interpreter.

    python3 bench/measure.py setup  <workload>
    python3 bench/measure.py run    <workload> <seed> [--serial]
    python3 bench/measure.py traced <workload> <seed>

``bench/run.py`` starts this script once per sample, with ``src`` on
PYTHONPATH, and reads the JSON object on its last line of output.  It
reaches seqdec only through names exported by ``seqdec`` and the public
names of ``seqdec.harness``, so that refactors of module internals never
force an edit here.

* ``setup`` times building the decode target: ``code_from_config``, plus
  ``build_trellis`` and ``compute_dstar`` for convolutional codes.
* ``run`` is the untraced experiment: set-up, bound curve, the harness's
  own simulation, curve CSV.  The simulation is split into rounds, one
  harness call per SNR point and chunk of its trials, and each round
  first evaluates its slice of the bound grid, so that bound and
  simulation timings both span the whole run.  Afterwards, outside the
  timed region, it runs the pinned-seed gate config (``--serial`` also
  reruns the simulation with one worker, for worker-count invariance).
* ``traced`` is the same experiment with the simulation replaced by a
  serial replay of the harness's documented per-trial stream
  (``RngStream(seed ^ t)``: information bits first, then noise) that
  times each call into a layer.

Every role also times a calibration loop between its stages (outside
the timed regions) and reports the median as ``cal_s``; ``bench/run.py``
scales the timings by it.
"""

import dataclasses
import hashlib
import json
import math
import resource
import statistics
import sys
import time

import numpy as np

import seqdec
from seqdec import harness
from workloads import PINNED_SEED, WORKLOADS

clock = time.perf_counter

VARIANTS = {"be": seqdec.BERRY_ESSEEN, "chernoff": seqdec.CHERNOFF}
CAL_BLOCKS = 8  # calibration blocks per sample
CAL_VECTOR = np.arange(1 << 16, dtype=np.float64)


def calibration_loop() -> float:
    """A fixed piece of work, independent of seqdec, that mixes
    interpreted arithmetic with small numpy calls, as seqdec does."""
    total = 0.0
    for i in range(100_000):
        total += i * i % 7
    for _ in range(50):
        total += float(np.sqrt(CAL_VECTOR).sum())
    return total


class HostSpeed:
    """Times the calibration loop between the stages of a run.  The
    host's speed drifts by tens of percent over tens of seconds and
    more, so bench/run.py scales each run's timings by the median of
    these samples."""

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0  # kept out of the run's own timings

    def sample(self) -> None:
        t0 = clock()
        for _ in range(CAL_BLOCKS):
            t = clock()
            calibration_loop()
            self.samples.append(clock() - t)
        self.spent_s += clock() - t0

    def median(self) -> float:
        return statistics.median(self.samples)


def experiment_config(params: dict, seed: int, **overrides):
    return harness.ExperimentConfig(**{**params, "seed": seed, **overrides})


def build_target(cfg):
    """The decode target as the harness builds it: a BlockCode, or a
    (ConvCode, Trellis) pair for convolutional codes."""
    code = harness.code_from_config(cfg.code)
    if isinstance(code, seqdec.ConvCode):
        return code, seqdec.build_trellis(code, cfg.L)
    return code, None


def setup(cfg) -> dict:
    """Time code construction, trellis and d* table separately."""
    t0 = clock()
    code = harness.code_from_config(cfg.code)
    t1 = clock()
    trellis = dstar = None
    if isinstance(code, seqdec.ConvCode):
        trellis = seqdec.build_trellis(code, cfg.L)
    t2 = clock()
    if trellis is not None:
        dstar = seqdec.compute_dstar(trellis)
    t3 = clock()
    return {"code": code, "trellis": trellis, "dstar": dstar,
            "code_s": t1 - t0, "trellis_s": t2 - t1, "dstar_s": t3 - t2,
            "setup_s": t3 - t0}


def structure(code, cfg, dstar) -> dict:
    """Structural counts from the code dimensions and the d* table."""
    if dstar is None:
        return {"bound_terms": code.k * (code.k + 1) // 2, "dstar_nodes": 0,
                "dstar_sha256": None, "floor_extensions": code.n}
    table = np.where(np.asarray(dstar) >= 0, np.asarray(dstar), -1).astype("<i8")
    digest = hashlib.sha256(repr(table.shape).encode() + table.tobytes()).hexdigest()
    return {"bound_terms": int((table[:cfg.L] >= 0).sum()),
            "dstar_nodes": int((table >= 0).sum()),
            "dstar_sha256": digest,
            "floor_extensions": cfg.L + code.m}


def bound_evaluations(cfg, snr_db) -> list:
    """The (SNR point, variant) pairs of a bound curve."""
    return [(db, name) for db in snr_db for name in VARIANTS
            if cfg.variant in (name, "both")]


def evaluate_bounds(built: dict, pairs) -> list:
    """Evaluate the bound at each (SNR point, variant) pair, timing each."""
    evals = []
    for db, name in pairs:
        t0 = clock()
        if built["trellis"] is None:
            value = seqdec.gda_complexity_bound(built["code"], db, VARIANTS[name])
        else:
            value = seqdec.mlsda_complexity_bound(built["trellis"], db, VARIANTS[name])
        evals.append({"db": db, "variant": name, "s": clock() - t0, "value": value})
    return evals


def bound_points(evals) -> list:
    """Curve points holding the bound values of the evaluations."""
    points = {}
    for e in evals:
        point = points.setdefault(e["db"], harness.CurvePoint(gamma_b_db=e["db"]))
        setattr(point, "bound_" + e["variant"], e["value"])
    return list(points.values())


def sim_summary(points) -> list:
    return [{"db": p.gamma_b_db, "sim_mean": p.sim_mean, "trials": p.trials,
             "overflow": p.overflow_trials} for p in points]


def replay(code, trellis, cfg) -> dict:
    """Serial replay of the simulation through the public API, timing
    each layer call.  Overflowed trials (extension limit exceeded, a
    RuntimeError) are counted, not decoded."""
    trials = []
    points = []
    for db in cfg.snr_db:
        counts = []
        overflow = 0
        for t in range(cfg.trials):
            t0 = clock()
            rng = seqdec.RngStream(cfg.seed ^ t)
            if trellis is None:
                channel = seqdec.ChannelConfig.for_block_code(code, db)
                info = rng.bits(code.k)
            else:
                channel = seqdec.ChannelConfig.for_conv_code(code, cfg.L, db)
                info = rng.bits(cfg.L)
            t1 = clock()
            word = (seqdec.encode_block(code, info) if trellis is None
                    else seqdec.encode_conv(code, info))
            t2 = clock()
            phi = seqdec.llr(seqdec.transmit(word, channel, rng), channel)
            t3 = clock()
            try:
                if trellis is None:
                    out = seqdec.gda_decode(code, phi, extension_limit=cfg.extension_limit)
                else:
                    out = seqdec.mlsda_decode(trellis, phi,
                                              extension_limit=cfg.extension_limit)
            except RuntimeError:
                out = None
            t4 = clock()
            trials.append((t1 - t0 + t3 - t2, t2 - t1, t4 - t3, t4 - t0, out))
            if out is None:
                overflow += 1
            else:
                counts.append(out.branch_computations)
        points.append({"db": db, "sim_mean": statistics.fmean(counts) if counts else None,
                       "trials": len(counts), "overflow": overflow})
    return {"points": points, "trials": trials}


def replay_totals(trials) -> dict:
    kept = [out for *_, out in trials if out is not None]
    return {"branch_computations": sum(o.branch_computations for o in kept),
            "branch_computations_total": sum(o.branch_computations_total for o in kept),
            "extensions": sum(o.extensions for o in kept),
            "overflow_trials": len(trials) - len(kept)}


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def layer_stats(trials, floor_extensions: int) -> dict:
    channel = sorted(r[0] for r in trials)
    encode = sorted(r[1] for r in trials)
    decode = sorted(r[2] for r in trials)
    kept = [(r[2], r[4]) for r in trials if r[4] is not None]
    floor = sorted(s for s, out in kept if out.extensions == floor_extensions)
    totals = replay_totals(trials)
    return {
        "channel_us_p50": 1e6 * percentile(channel, 0.5),
        "encode_us_p50": 1e6 * percentile(encode, 0.5),
        "decode_us_p50": 1e6 * percentile(decode, 0.5),
        "decode_us_p99": 1e6 * percentile(decode, 0.99),
        "floor_decode_us": 1e6 * percentile(floor, 0.5) if floor else 0.0,
        "floor_share": len(floor) / len(trials),
        "branch_metrics_per_s": (totals["branch_computations_total"]
                                 / sum(s for s, _ in kept)),
        "extensions": totals["extensions"],
        "branch_metrics": totals["branch_computations"],
        "trial_s_sum": sum(r[3] for r in trials),
    }


def peak_rss_mb() -> float:
    """Largest RSS of this process and of its waited-for children (the
    harness's pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def gate(built: dict, params: dict) -> dict:
    """Pinned-seed outputs, for comparison with the committed reference.
    The gate config shares its code (and L) with the experiment, so the
    experiment's target is reused for the replay."""
    cfg = experiment_config(params, PINNED_SEED)
    points = harness.run_experiment(cfg)
    rep = replay(built["code"], built["trellis"], cfg)
    return {"csv": harness.curve_csv_text(points), "points": sim_summary(points),
            "totals": replay_totals(rep["trials"]), "replay_points": rep["points"]}


def role_setup(work: dict) -> dict:
    cfg = experiment_config(work["experiment"], PINNED_SEED)
    host = HostSpeed()
    host.sample()
    setup_s = setup(cfg)["setup_s"]
    host.sample()
    return {"setup_s": setup_s, "cal_s": host.median()}


def chunk_seed(seed: int, chunk: int) -> int:
    """Seed of one chunk of a point's trials.  Trials are seeded with
    seed ^ t, so chunk seeds are hashed apart rather than adjacent."""
    digest = hashlib.sha256(f"{seed}:{chunk}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def rounds(cfg, work: dict) -> list:
    """Split the simulation into rounds: one harness call per SNR point
    and chunk of its trials.  The run interleaves them with slices of
    the bound grid, so that the bound and simulation timings both span
    the whole run instead of one stretch of it."""
    chunks = work.get("chunks", 1)
    if cfg.trials % chunks:
        raise SystemExit(f"{cfg.trials} trials do not split into {chunks} chunks")
    return [experiment_config({**work["experiment"], "snr_db": (db,),
                               "trials": cfg.trials // chunks},
                              cfg.seed if chunks == 1 else chunk_seed(cfg.seed, c))
            for db in cfg.snr_db for c in range(chunks)]


def pooled(points) -> list:
    """One curve point per SNR from the points of its chunks."""
    by_db = {}
    for p in points:
        by_db.setdefault(p.gamma_b_db, []).append(p)
    out = []
    for db, parts in by_db.items():
        if len(parts) == 1:
            out.append(parts[0])
            continue
        kept = [p for p in parts if p.trials]
        trials = sum(p.trials for p in kept)
        mean = sum(p.sim_mean * p.trials for p in kept) / trials if trials else None
        out.append(harness.CurvePoint(gamma_b_db=db, sim_mean=mean, trials=trials,
                                      overflow_trials=sum(p.overflow_trials
                                                          for p in parts)))
    return out


def role_run(work: dict, seed: int, serial: bool) -> dict:
    cfg = experiment_config(work["experiment"], seed)
    plan = rounds(cfg, work)
    host = HostSpeed()
    host.sample()
    t0 = clock()
    built = setup(cfg)
    host.sample()
    grid = work["bound_snr_db"]
    evals, sim_pts, sim_s = [], [], []
    for r, sub in enumerate(plan):
        pairs = bound_evaluations(cfg, grid[r::len(plan)])  # every variant of a point
        evals += [{**e, "round": r} for e in evaluate_bounds(built, pairs)]
        host.sample()
        t_sim = clock()
        sim_pts += harness.run_simulation_curve(sub)
        sim_s.append(clock() - t_sim)
        host.sample()
    harness.curve_csv_text(harness.merge_curves(bound_points(evals), pooled(sim_pts)))
    wall_s = clock() - t0 - host.spent_s
    host.sample()
    record = {
        "wall_s": wall_s, "setup_s": built["setup_s"], "sim_s": sum(sim_s),
        "cal_s": host.median(), "bound_evals": evals, "points": sim_summary(sim_pts),
        "attempted_trials": cfg.trials * len(cfg.snr_db), "rss_mb": peak_rss_mb(),
        **structure(built["code"], cfg, built["dstar"]),
    }
    if serial:
        t_ser = clock()
        serial_pts = [p for sub in plan for p in
                      harness.run_simulation_curve(dataclasses.replace(sub, workers=1))]
        record["serial"] = {"sim_s": clock() - t_ser,
                            "csv": harness.curve_csv_text(serial_pts),
                            "parallel_csv": harness.curve_csv_text(sim_pts)}
    record["gate"] = gate(built, work["gate"])
    return record


def role_traced(work: dict, seed: int) -> dict:
    cfg = experiment_config(work["experiment"], seed)
    host = HostSpeed()
    host.sample()
    t0 = clock()
    built = setup(cfg)
    host.sample()
    evals = evaluate_bounds(built, bound_evaluations(cfg, work["bound_snr_db"]))
    host.sample()
    code, trellis = build_target(cfg)  # run_simulation_curve rebuilds its target too
    reps = []
    for sub in rounds(cfg, work):
        reps.append(replay(code, trellis, sub))
        host.sample()
    wall_s = clock() - t0 - host.spent_s
    shape = structure(built["code"], cfg, built["dstar"])
    return {"wall_s": wall_s, "cal_s": host.median(), "code_s": built["code_s"],
            "trellis_s": built["trellis_s"], "dstar_s": built["dstar_s"],
            "bound_evals": evals, "points": [p for r in reps for p in r["points"]],
            "layers": layer_stats([t for r in reps for t in r["trials"]],
                                  shape["floor_extensions"]), **shape}


def main(argv) -> int:
    role, name = argv[0], argv[1]
    work = WORKLOADS[name]
    if role == "setup":
        record = role_setup(work)
    elif role == "run":
        record = role_run(work, int(argv[2]), serial="--serial" in argv[3:])
    elif role == "traced":
        record = role_traced(work, int(argv[2]))
    else:
        raise SystemExit(f"unknown role {role!r}")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
