"""Experiment driver: bound curves, Monte Carlo complexity curves,
prefactor tables, CSV emission, and a cross-module validation suite.

Reproducibility contract: trial t of a run draws everything (information
bits, then noise) from its own stream seeded with seed XOR t, and
results are reduced in trial order.  Outputs are therefore byte-identical
for a fixed config regardless of the worker count.
"""

import contextlib
import csv
import io
import json
import math
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from seqdec import bounds
from seqdec.bounds import BERRY_ESSEEN, CHERNOFF
from seqdec.channel import ChannelConfig, db_to_linear, llr, transmit
from seqdec.codes import (
    BlockCode,
    ConvCode,
    build_extended_golay,
    build_extended_qr48,
    encode_block,
    encode_conv,
    parse_octal_generators,
)
from seqdec.decoders import (
    ExtensionLimitExceeded,
    gda_decode,
    mlsda_decode,
    brute_force_ml_block,
)
from seqdec.numerics import RngStream
from seqdec.trellis import ABSENT, build_trellis, compute_dstar

CSV_HEADER = ["gamma_b_db", "bound_be", "bound_chernoff",
              "sim_mean", "sim_ci95_half", "trials"]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    code: dict
    snr_db: tuple
    trials: int = 10_000
    seed: int = 1
    variant: str = "both"        # "be" | "chernoff" | "both"
    mode: str = "both"           # "bound" | "simulate" | "both"
    workers: int = 1
    all_zero: bool = False
    L: int | None = None         # convolutional info length
    extension_limit: int | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.variant not in ("be", "chernoff", "both"):
            raise ConfigError(f"bad variant {self.variant!r}")
        if self.mode not in ("bound", "simulate", "both"):
            raise ConfigError(f"bad mode {self.mode!r}")
        if len(self.snr_db) == 0:
            raise ConfigError("empty SNR grid")
        if not all(math.isfinite(v) for v in self.snr_db):
            raise ConfigError("SNR grid must be finite")
        if any(b <= a for a, b in zip(self.snr_db, self.snr_db[1:])):
            raise ConfigError("SNR grid must be strictly increasing")


@dataclass
class CurvePoint:
    gamma_b_db: float
    bound_be: float | None = None
    bound_chernoff: float | None = None
    sim_mean: float | None = None
    sim_ci95_half: float | None = None
    trials: int | None = None
    overflow_trials: int = 0


# ---------------------------------------------------------------------------
# code construction from config dicts

_NAMED_CODES = {
    "golay24": build_extended_golay,
    "qr48": build_extended_qr48,
}


def code_from_config(spec: dict):
    """Build a BlockCode or ConvCode from its JSON description.

    Block: {"name": "golay24" | "qr48"} or {"type": "block", "n", "k",
    "generator_rows": [hex row, ...], "name"?}.  Conv: {"type": "conv",
    "m", and "octal": [str, ...] or "taps": [bit string, ...], "name"?}.
    """
    if not isinstance(spec, dict):
        raise ConfigError("code spec must be an object")
    name = spec.get("name", "")
    if set(spec) <= {"name"}:
        try:
            return _NAMED_CODES[name]()
        except KeyError:
            raise ConfigError(f"unknown named code {name!r}") from None
    kind = spec.get("type")
    if kind == "block":
        if name in _NAMED_CODES and "generator_rows" not in spec:
            return _NAMED_CODES[name]()
        try:
            rows = tuple(int(r, 16) for r in spec["generator_rows"])
            return BlockCode(n=int(spec["n"]), k=int(spec["k"]), rows=rows, name=name)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad block code spec: {exc}") from exc
    if kind == "conv":
        try:
            m = int(spec["m"])
            if "taps" in spec:
                taps = tuple(tuple(int(c) for c in t) for t in spec["taps"])
                return ConvCode(n_out=len(taps), m=m, taps=taps, name=name)
            return parse_octal_generators(spec["octal"], m, name=name)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad conv code spec: {exc}") from exc
    raise ConfigError(f"bad code spec {spec!r}")


@lru_cache(maxsize=32)
def _built_target(code_json: str, L: int | None):
    """The decode target of a JSON code spec: a BlockCode, or the Trellis
    of a convolutional code at information length L.  Cached, so that
    repeated runs on one code build its trellis once."""
    code = code_from_config(json.loads(code_json))
    if isinstance(code, ConvCode):
        if not L:
            raise ConfigError("convolutional experiments need L")
        return build_trellis(code, int(L))
    return code


# ---------------------------------------------------------------------------
# bound curves

def run_bound_curve(cfg: ExperimentConfig) -> list:
    target = _built_target(json.dumps(cfg.code, sort_keys=True), cfg.L)
    if isinstance(target, BlockCode):
        evaluate = lambda db, v: bounds.gda_complexity_bound(target, db, v)
    else:
        evaluate = lambda db, v: bounds.mlsda_complexity_bound(target, db, v)
    points = []
    for db in cfg.snr_db:
        pt = CurvePoint(gamma_b_db=db)
        if cfg.variant in ("be", "both"):
            pt.bound_be = evaluate(db, BERRY_ESSEEN)
        if cfg.variant in ("chernoff", "both"):
            pt.bound_chernoff = evaluate(db, CHERNOFF)
        points.append(pt)
    return points


# ---------------------------------------------------------------------------
# simulation curves

def _run_trial(target, cfg: ExperimentConfig, gamma_b_db: float, trial: int):
    """One transmit/decode round; returns branch_computations or None on
    budget overflow.  Stream: info bits first, then channel noise."""
    rng = RngStream(cfg.seed ^ trial)
    if isinstance(target, BlockCode):
        code = target
        channel = ChannelConfig.for_block_code(code, gamma_b_db)
        info = np.zeros(code.k, dtype=np.uint8) if cfg.all_zero else rng.bits(code.k)
        word = encode_block(code, info)
    else:
        code = target.code
        channel = ChannelConfig.for_conv_code(code, target.L, gamma_b_db)
        info = np.zeros(target.L, dtype=np.uint8) if cfg.all_zero else rng.bits(target.L)
        word = encode_conv(code, info)
    phi = llr(transmit(word, channel, rng), channel)
    try:
        if isinstance(target, BlockCode):
            out = gda_decode(code, phi, extension_limit=cfg.extension_limit)
        else:
            out = mlsda_decode(target, phi, extension_limit=cfg.extension_limit)
    except ExtensionLimitExceeded:
        return None
    return out.branch_computations


_worker_job = None  # (target, cfg) of a pool worker, set by _init_worker


def _init_worker(target, cfg: ExperimentConfig) -> None:
    global _worker_job
    _worker_job = (target, cfg)


def _worker_trial(gamma_b_db: float, trial: int):
    return _run_trial(*_worker_job, gamma_b_db, trial)


def run_simulation_curve(cfg: ExperimentConfig, progress=None) -> list:
    """Monte Carlo complexity per SNR point.

    Mean and a normal-approximation 95% CI half-width over the included
    trials; trials that blow the extension budget are excluded and
    counted in overflow_trials.  With several workers, one process pool
    serves the whole grid; its workers receive the built target once,
    through the pool initializer.  The pool has no more processes than
    there are CPUs or trials, and none at all when that leaves one.
    """
    target = _built_target(json.dumps(cfg.code, sort_keys=True), cfg.L)
    workers = min(cfg.workers, os.cpu_count() or 1, cfg.trials)
    parallel = workers > 1
    pool = (ProcessPoolExecutor(workers, initializer=_init_worker,
                                initargs=(target, cfg))
            if parallel else contextlib.nullcontext())
    points = []
    with pool:
        for db in cfg.snr_db:
            if parallel:
                # map keeps trial order, so the reduction is worker-count invariant
                results = list(pool.map(partial(_worker_trial, db), range(cfg.trials),
                                        chunksize=-(-cfg.trials // workers)))
            else:
                results = [_run_trial(target, cfg, db, t) for t in range(cfg.trials)]
            counts = [c for c in results if c is not None]
            if counts:
                mean = statistics.fmean(counts)
                half = (1.96 * statistics.stdev(counts) / math.sqrt(len(counts))
                        if len(counts) > 1 else 0.0)
            else:
                mean = None
                half = None
            points.append(CurvePoint(gamma_b_db=db, sim_mean=mean, sim_ci95_half=half,
                                     trials=len(counts),
                                     overflow_trials=len(results) - len(counts)))
            if progress is not None:
                progress(points[-1])
    return points


def merge_curves(bound_pts, sim_pts) -> list:
    by_db = {p.gamma_b_db: p for p in bound_pts}
    for sp in sim_pts:
        bp = by_db.get(sp.gamma_b_db)
        if bp is None:
            by_db[sp.gamma_b_db] = sp
        else:
            bp.sim_mean = sp.sim_mean
            bp.sim_ci95_half = sp.sim_ci95_half
            bp.trials = sp.trials
            bp.overflow_trials = sp.overflow_trials
    return [by_db[db] for db in sorted(by_db)]


def run_experiment(cfg: ExperimentConfig, progress=None) -> list:
    bound_pts = run_bound_curve(cfg) if cfg.mode in ("bound", "both") else []
    sim_pts = (run_simulation_curve(cfg, progress=progress)
               if cfg.mode in ("simulate", "both") else [])
    if not bound_pts:
        return sim_pts
    if not sim_pts:
        return bound_pts
    return merge_curves(bound_pts, sim_pts)


def _fmt(x) -> str:
    return "" if x is None else format(x, ".17g")


def write_curve_csv(points, stream) -> None:
    """Fixed schema; absent fields stay empty, columns never disappear."""
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for p in points:
        w.writerow([_fmt(p.gamma_b_db), _fmt(p.bound_be), _fmt(p.bound_chernoff),
                    _fmt(p.sim_mean), _fmt(p.sim_ci95_half),
                    "" if p.trials is None else p.trials])


def curve_csv_text(points) -> str:
    buf = io.StringIO()
    write_curve_csv(points, buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# prefactor tables

def run_atilde_table(d_over_n: float, gamma_db: float, n_grid) -> list:
    """(n, prefactor) rows at fixed d/n across sample counts n.

    gamma is taken in dB to match the usual plotting axes.
    """
    if not 0.0 < d_over_n < 1.0:
        raise ConfigError("d/n must lie in (0, 1)")
    gamma = db_to_linear(gamma_db)
    rows = []
    for n in n_grid:
        d = round(d_over_n * n)
        clipped = n - d
        if d < 1 or clipped < 1:
            raise ConfigError(f"degenerate split at n={n}")
        try:
            lam = bounds.solve_tilt(d, n, gamma)
            value = bounds.subexponential_factor(d, clipped, gamma, lam, BERRY_ESSEEN)
        except bounds.NoRoot:
            value = 1.0
        rows.append((n, value))
    return rows


def write_atilde_csv(rows, stream) -> None:
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(["n", "atilde"])
    for n, value in rows:
        w.writerow([n, format(value, ".17g")])


def write_dstar_csv(trellis, stream) -> None:
    """One row per present node, in ascending (level, state) order."""
    table = compute_dstar(trellis)
    levels, states = np.nonzero(trellis.reachable)
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(["level", "state", "dstar"])
    w.writerows(zip(levels.tolist(), states.tolist(), table[levels, states].tolist()))


# ---------------------------------------------------------------------------
# validation suite

@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name, passed, detail) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def check_encoder_fixture() -> CheckResult:
    code = parse_octal_generators(["6", "5", "7"], m=2)
    got = "".join(map(str, encode_conv(code, [1, 1, 1, 0, 1])))
    want = "111010001110100101011"
    return _check("encoder-fixture", got == want, f"{got} vs {want}")


def dstar_by_enumeration(code: ConvCode, L: int) -> np.ndarray:
    """The d* table by exhaustive enumeration of all 2^L inputs.

    Entry [level, state] is the least Hamming weight of the first level
    output blocks over the inputs whose path is in that state at that
    level (the state packs the last m inputs, most recent lowest), and
    ABSENT where no path passes.  This is the oracle for compute_dstar.
    """
    levels, mask = L + code.m, (1 << code.m) - 1
    table = np.full((levels + 1, 1 << code.m), ABSENT, dtype=np.int64)
    for val in range(1 << L):
        word = encode_conv(code, [(val >> t) & 1 for t in range(L)])
        weights = np.cumsum(word.reshape(levels, code.n_out).sum(1)).tolist()
        state = weight = 0
        for level in range(levels + 1):
            if table[level, state] == ABSENT or weight < table[level, state]:
                table[level, state] = weight
            if level < levels:
                state = ((state << 1) | ((val >> level) & 1)) & mask
                weight = weights[level]
    return table


def check_dstar_oracle(trellis=None) -> CheckResult:
    """DP table against exhaustive input enumeration on a small trellis."""
    if trellis is None:
        trellis = build_trellis(parse_octal_generators(["6", "5", "7"], m=2), L=6)
    mismatches = int((compute_dstar(trellis)
                      != dstar_by_enumeration(trellis.code, trellis.L)).sum())
    return _check("dstar-oracle", mismatches == 0, f"{mismatches} mismatching entries")


def check_ml_equivalence(trials: int = 100, seed: int = 7) -> CheckResult:
    code = build_extended_golay()
    cfg = ChannelConfig.for_block_code(code, 2.0)
    worst = 0.0
    for t in range(trials):
        rng = RngStream(seed ^ t)
        info = rng.bits(code.k)
        phi = llr(transmit(encode_block(code, info), cfg, rng), cfg)
        got = gda_decode(code, phi)
        want = brute_force_ml_block(code, phi)
        m_want = float(np.sum((phi - (1.0 - 2.0 * want.astype(float))) ** 2))
        worst = max(worst, abs(got.metric - m_want))
    return _check("ml-equivalence", worst <= 1e-6, f"max metric gap {worst:.3g}")


def check_bound_dominance(samples: int = 100_000, seed: int = 11) -> CheckResult:
    gen = np.random.Generator(np.random.PCG64(seed))
    worst = -np.inf
    for gamma in (0.5, 1.0):
        mu = math.sqrt(2.0 * gamma)
        x = gen.normal(mu, 1.0, size=(samples, 6))
        w = np.minimum(gen.normal(mu, 1.0, size=(samples, 12)), 0.0)
        sx = np.concatenate([np.zeros((samples, 1)), np.cumsum(x, axis=1)], axis=1)
        sw = np.concatenate([np.zeros((samples, 1)), np.cumsum(w, axis=1)], axis=1)
        for d in range(0, 7, 2):
            for clipped in range(0, 13, 4):
                if d + clipped == 0:
                    continue
                p_hat = float(np.mean(sx[:, d] + sw[:, clipped] <= 0.0))
                se = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / samples)
                for variant in (BERRY_ESSEEN, CHERNOFF):
                    b = bounds.extension_probability_bound(d, clipped, gamma, variant)
                    worst = max(worst, (p_hat - 4.0 * se) - b)
    return _check("bound-dominance", worst <= 0.0, f"worst margin {worst:.3g}")


def check_extension_probability_monotone(samples: int = 1_000_000,
                                         seed: int = 13) -> CheckResult:
    """Estimated extension probability decreases in the Gaussian count."""
    gamma = 0.5
    mu = math.sqrt(2.0 * gamma)
    gen = np.random.Generator(np.random.PCG64(seed))
    x = gen.normal(mu, 1.0, size=(samples, 6))
    w = np.minimum(gen.normal(mu, 1.0, size=(samples, 10)), 0.0)
    sw = np.sum(w, axis=1)
    sx = np.cumsum(x, axis=1)
    last = np.inf
    ok = True
    details = []
    for d in range(1, 7):
        p = float(np.mean(sx[:, d - 1] + sw <= 0.0))
        details.append(f"{p:.4f}")
        ok = ok and p < last
        last = p
    return _check("extension-probability-monotone", ok, " > ".join(details))


def check_golay_fixture() -> CheckResult:
    code = build_extended_golay()
    ok = code.minimum_distance() == 8 and code.weight_count(8) == 759
    return _check("golay-fixture",
                  ok, f"dmin={code.minimum_distance()} A8={code.weight_count(8)}")


def run_validation_suite(checks=None) -> list:
    if checks is None:
        checks = [check_encoder_fixture, check_golay_fixture, check_dstar_oracle,
                  check_ml_equivalence, check_bound_dominance,
                  check_extension_probability_monotone]
    return [c() for c in checks]
