"""Experiment driver: bound curves, Monte Carlo complexity curves,
prefactor tables, CSV emission, and a cross-module validation suite.

Reproducibility contract: trial t of a run draws everything (information
bits, then noise) from its own stream seeded with seed XOR t, and
results are reduced in trial order.  Outputs are therefore byte-identical
for a fixed config regardless of the worker count, and of where a run's
trials are cut into batches.  A worker builds its block of trials batch
by batch in one workspace it holds for the block (_run_trials): no batch
allocates its uniforms, LLRs or metric table afresh.

One process pool per process, forked on Linux and re-forked whenever its
workers could run stale code (_pool), so a patched or reloaded module
reaches every worker count alike.
"""

import csv
import io
import math
import multiprocessing
import numbers
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from itertools import repeat

import numpy as np

from seqdec import bounds
from seqdec.bounds import BERRY_ESSEEN, CHERNOFF
from seqdec.channel import (
    ChannelConfig,
    channel_output,
    check_lengths,
    db_to_linear,
    hard_decision,
    llr,
)
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
    brute_force_ml_block,
    decode_batch,
    gda_decode,
    mlsda_decode,
    viterbi_ml,
)
from seqdec.numerics import bits_from_uniforms, gaussians_from_uniforms, stream_uniforms
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

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """The config of a JSON experiment config's keys less its
        free-text note; a key that names no field, or a missing code or
        SNR grid, is a ConfigError."""
        kwargs = {k: v for k, v in raw.items() if k != "note"}
        unknown = sorted(set(kwargs) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown config key(s) {unknown}")
        missing = sorted({"code", "snr_db"} - set(kwargs))
        if missing:
            raise ConfigError(f"config key(s) {missing} missing")
        return cls(**kwargs)

    @staticmethod
    def check_L(code, L) -> None:
        """The L rule: L, an integer >= 1, is the information length of a
        convolutional code spec (see code_from_config), which needs one,
        and no other spec has one."""
        conv = isinstance(code, dict) and code.get("type") == "conv"
        if conv == (L is None):
            raise ConfigError("convolutional experiments need L" if conv
                              else "L: only a convolutional code has an information length")
        if conv:
            _check_integer("L", L, 1)

    def __post_init__(self):
        for name in ("trials", "seed", "workers", "extension_limit"):
            value = getattr(self, name)
            if value is None and name == "extension_limit":
                continue
            _check_integer(name, value, None if name == "seed" else 1)
        if not 0 <= self.seed < 1 << 64:  # RngStream keeps 64 bits: others would alias
            raise ConfigError(f"seed must lie in [0, 2^64), got {self.seed}")
        if not isinstance(self.all_zero, bool):
            raise ConfigError(f"all_zero must be true or false, got {self.all_zero!r}")
        if self.variant not in ("be", "chernoff", "both"):
            raise ConfigError(f"bad variant {self.variant!r}")
        if self.mode not in ("bound", "simulate", "both"):
            raise ConfigError(f"bad mode {self.mode!r}")
        self.check_L(self.code, self.L)
        if not isinstance(self.snr_db, (list, tuple)):
            raise ConfigError(f"snr_db must be a list of numbers, got {self.snr_db!r}")
        if len(self.snr_db) == 0:
            raise ConfigError("empty SNR grid")
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                   and math.isfinite(v) for v in self.snr_db):
            raise ConfigError(f"SNR grid must hold finite numbers, got {self.snr_db!r}")
        if any(b <= a for a, b in zip(self.snr_db, self.snr_db[1:])):
            raise ConfigError("SNR grid must be strictly increasing")


def _check_integer(name: str, value, least) -> None:
    """value is an integer (not a bool), and at least `least` unless that is None."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{name} must be >= {least}")


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
_SPEC_KEYS = {"block": {"type", "name", "n", "k", "generator_rows"},
              "conv": {"type", "name", "m", "octal", "taps"}}


def code_from_config(spec: dict):
    """Build a BlockCode or ConvCode from its JSON description.

    Block: {"name": "golay24" | "qr48"} or {"type": "block", "n", "k",
    "generator_rows": [hex row, ...], "name"?}.  Conv: {"type": "conv",
    "m", and "octal": [str, ...] or "taps": [bit string, ...], "name"?}.
    A key the spec's kind does not read is a ConfigError.
    """
    if not isinstance(spec, dict):
        raise ConfigError("code spec must be an object")
    for key, value in spec.items():  # JSON types only: no rounding, no reading digit by digit
        if key in ("m", "n", "k") and (not isinstance(value, int) or isinstance(value, bool)):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        if key in ("octal", "taps", "generator_rows") and not (
                isinstance(value, list) and all(isinstance(v, str) for v in value)):
            raise ConfigError(f"{key} must be a list of strings, got {value!r}")
    name = spec.get("name", "")
    if set(spec) <= {"name"}:
        try:
            return _NAMED_CODES[name]()
        except KeyError:
            raise ConfigError(f"unknown named code {name!r}") from None
    kind = spec.get("type")
    if kind not in _SPEC_KEYS:
        raise ConfigError(f"bad code spec {spec!r}")
    unread = sorted(set(spec) - _SPEC_KEYS[kind])
    if unread:
        raise ConfigError(f"{kind} code spec key(s) {unread} are not read")
    if kind == "conv" and ("octal" in spec) == ("taps" in spec):
        raise ConfigError("a conv code spec takes exactly one of octal and taps")
    try:
        if kind == "block":
            rows = tuple(int(r, 16) for r in spec["generator_rows"])
            return BlockCode(n=spec["n"], k=spec["k"], rows=rows, name=name)
        if "taps" in spec:
            taps = tuple(tuple(int(c) for c in t) for t in spec["taps"])
            return ConvCode(n_out=len(taps), m=spec["m"], taps=taps, name=name)
        return parse_octal_generators(spec["octal"], spec["m"], name=name)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {kind} code spec: {exc}") from exc


@lru_cache(maxsize=32)
def _built_target(code, L: int | None):
    """The decode target of a code_from_config code: the BlockCode itself,
    or the ConvCode's Trellis at information length L.  Keyed by the frozen
    code, so one code builds its trellis and d* once, however it is spelled."""
    return build_trellis(code, L) if isinstance(code, ConvCode) else code


# ---------------------------------------------------------------------------
# bound curves

def run_bound_curve(cfg: ExperimentConfig) -> list:
    target = _built_target(code_from_config(cfg.code), cfg.L)
    bound = (bounds.gda_complexity_bound if isinstance(target, BlockCode)
             else bounds.mlsda_complexity_bound)
    points = []
    for db in cfg.snr_db:
        pt = CurvePoint(gamma_b_db=db)
        if cfg.variant in ("be", "both"):
            pt.bound_be = bound(target, db, BERRY_ESSEEN)
        if cfg.variant in ("chernoff", "both"):
            pt.bound_chernoff = bound(target, db, CHERNOFF)
        points.append(pt)
    return points


# ---------------------------------------------------------------------------
# simulation curves

BATCH_SYMBOLS = 1 << 16  # channel symbols of the trials built together; bounds peak memory


def _drawn(target, all_zero: bool) -> int:
    """The uniforms a trial draws before its noise: one per information
    bit (k on a BlockCode, L on a Trellis), none when all_zero."""
    return 0 if all_zero else target.k if isinstance(target, BlockCode) else target.L


def trial_llrs(target, gamma_b_db: float, seed: int, trials, all_zero: bool = False,
               out=None) -> np.ndarray:
    """LLRs [len(trials), N] of these trials on a BlockCode or a Trellis.

    Trial t draws one row of uniforms from RngStream(seed XOR t): its
    information bits first (none when all_zero), then two per channel
    symbol for the noise.  The rows come from numerics.stream_uniforms,
    which seeds the whole batch's streams at once and equals
    RngStream(seed XOR t) row for row.  They are built into LLRs as
    arrays with a leading trial axis, by the functions a single trial
    uses, so each row is bitwise that of RngStream.bits, encode_block or
    encode_conv, transmit and llr on the trial alone (the all-zero word
    needs no encoding).  The noise turns into the LLRs in place.  Where
    out is given, a pair (uniforms [len(trials), _drawn + 2N], LLRs
    [len(trials), N]), the batch is built in those arrays and the second
    is returned.
    """
    if isinstance(target, BlockCode):
        channel = ChannelConfig.for_block_code(target, gamma_b_db)
        encode = partial(encode_block, target)
    else:
        channel = ChannelConfig.for_conv_code(target.code, target.L, gamma_b_db)
        encode = partial(encode_conv, target.code)
    drawn = _drawn(target, all_zero)
    uniforms, phi = (None, None) if out is None else out
    u = stream_uniforms([seed ^ t for t in trials], drawn + 2 * target.n, uniforms)
    words = encode(bits_from_uniforms(u[:, :drawn])) if drawn else 0  # 0: the all-zero word
    phi = gaussians_from_uniforms(u[:, drawn:], channel.noise_stddev, phi)
    channel_output(words, phi, out=phi)
    return check_lengths(llr(phi, channel, out=phi), len(trials), target.n)


def _run_trials(target, cfg: ExperimentConfig, gamma_b_db: float, trials: range) -> list:
    """branch_computations of each trial, or None where the trial blew the
    extension budget, in trial order: trial_llrs and then decode_batch on
    one batch of trials at a time, max(1, BATCH_SYMBOLS // N) trials of N
    channel symbols each.  Both give each trial the counts of the trial
    built and decoded alone (see decoders.decode_batch), so no output
    depends on where the batches are cut.

    Every batch is built in one workspace held for the whole block: the
    uniforms and LLRs of trial_llrs and, for a Trellis, decode_batch's
    metric table, of which a shorter last batch fills the first rows.  So
    no batch allocates, frees and faults in these arrays again."""
    size = max(1, BATCH_SYMBOLS // target.n)
    rows = min(size, len(trials))
    uniforms = np.empty((rows, _drawn(target, cfg.all_zero) + 2 * target.n))
    phi = np.empty((rows, target.n))
    table = (None if isinstance(target, BlockCode)
             else np.empty((rows, target.levels << target.code.n_out)))
    results = []
    for first in range(trials.start, trials.stop, size):
        batch = range(first, min(first + size, trials.stop))
        b = len(batch)
        llrs = trial_llrs(target, gamma_b_db, cfg.seed, batch, cfg.all_zero,
                          (uniforms[:b], phi[:b]))
        results += [None if r is None else r[0]
                    for r in decode_batch(target, llrs, cfg.extension_limit,
                                          None if table is None else table[:b])]
    return results


def _code_trials(code, cfg: ExperimentConfig, gamma_b_db: float, trials: range) -> list:
    """_run_trials on the code's target at cfg.L, built once per process."""
    return _run_trials(_built_target(code, cfg.L), cfg, gamma_b_db, trials)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else the host's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_KEPT = {}  # (process count, ids of what its workers inherit) -> (those, the pool)


def _pool(processes: int) -> ProcessPoolExecutor:
    """A pool of this many processes, kept for later runs.  It forks on
    Linux, so its workers inherit every seqdec module global as it is now
    (other platforms start it their default way, which a patch does not
    reach).  It re-forks for a new process count, a rebound seqdec module
    global or a dead worker (run_simulation_curve drops a broken pool),
    shutting the old pool down first (_drop_pool), so no fork meets its
    manager thread.  Another code or L reuses it: a worker builds the
    target it lacks (_built_target)."""
    inherited = tuple(value for name, module in list(sys.modules.items())
                      if name.split(".")[0] == __package__ for value in vars(module).values())
    key = (processes, tuple(map(id, inherited)))  # unique: _KEPT holds the objects
    if key not in _KEPT:
        _drop_pool()
        context = multiprocessing.get_context("fork" if sys.platform == "linux" else None)
        _KEPT[key] = (inherited, ProcessPoolExecutor(processes, mp_context=context))
    return _KEPT[key][1]


def _drop_pool() -> None:
    """Shut down the kept pool, if any, joining its manager thread and
    workers; the next run that needs one forks a fresh pool (_pool)."""
    for _, pool in _KEPT.values():
        pool.shutdown()
    _KEPT.clear()


def run_simulation_curve(cfg: ExperimentConfig) -> list:
    """Monte Carlo complexity per SNR point.

    Mean and a normal-approximation 95% CI half-width over the included
    trials; trials that blow the extension budget are excluded and
    counted in overflow_trials.  Each point maps _code_trials over one
    contiguous block of trials per worker: the builtin map when one
    worker is left, else the map of the process pool this process keeps
    (_pool: forked on Linux, and re-forked as it states), which has no
    more processes than trials or CPUs this process may run on.  Its
    tasks carry the frozen code, never the built target, which a worker
    inherits or builds (_built_target).  A broken pool (a worker was
    killed) is dropped and its error raised; the next run forks afresh.
    """
    code = code_from_config(cfg.code)
    workers = min(cfg.workers, _usable_cpus(), cfg.trials)
    size = -(-cfg.trials // workers)
    blocks = [range(start, min(start + size, cfg.trials))
              for start in range(0, cfg.trials, size)]
    trial_map = map if workers == 1 else _pool(workers).map
    points = []
    for db in cfg.snr_db:
        # map keeps block order, so the reduction is worker-count invariant
        try:
            results = [c for block in trial_map(partial(_code_trials, code, cfg, db), blocks)
                       for c in block]
        except BrokenProcessPool:
            _drop_pool()
            raise
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


def run_experiment(cfg: ExperimentConfig) -> list:
    bound_pts = run_bound_curve(cfg) if cfg.mode in ("bound", "both") else []
    sim_pts = run_simulation_curve(cfg) if cfg.mode in ("simulate", "both") else []
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
    ds = [round(d_over_n * n) for n in n_grid]
    for n, d in zip(n_grid, ds):
        if d < 1 or n - d < 1:
            raise ConfigError(f"degenerate split at n={n}")
        if n >= bounds.MAX_SUMMANDS:
            raise ConfigError(f"n={n} is not below {bounds.MAX_SUMMANDS}")
    d, n = np.array(ds, dtype=np.int64), np.array(n_grid, dtype=np.int64)
    lams = bounds.solve_tilts(d / n, gamma)
    values = np.ones(len(n))  # a ratio whose tilt has no root keeps prefactor 1
    rooted = ~np.isnan(lams)
    values[rooted] = bounds.subexponential_factor(d[rooted], (n - d)[rooted], gamma,
                                                  lams[rooted], BERRY_ESSEEN)
    return list(zip(n_grid, values.tolist()))


def write_atilde_csv(rows, stream) -> None:
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(["n", "atilde"])
    for n, value in rows:
        w.writerow([n, _fmt(value)])


def write_dstar_csv(trellis, stream) -> None:
    """One row per present node, in ascending (level, state) order,
    written a level at a time, so memory grows with a level's states,
    not the table's."""
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(["level", "state", "dstar"])
    for level, row in enumerate(compute_dstar(trellis)):
        states = np.flatnonzero(row != ABSENT)
        w.writerows(zip(repeat(level), states.tolist(), row[states].tolist()))


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


def check_dstar_oracle() -> CheckResult:
    """DP table against exhaustive input enumeration on five small
    trellises.  The memory-0 4/4 code at L = 5 has one state, which both
    inputs enter, and the memory-1 6/4 code at L = 6 two.  The 6/5/7 code
    at L = 6 passes through the pass's stop: its d* row at level 3
    repeats the row at level 2.  The 634/564 code at L = 4 (16 inputs)
    has L < m, so its tail levels reach the states of the L < m rule (see
    the trellis module docstring).  The memory-9 4734/6624 code at L = 10
    (1,024 inputs) has 512 states."""
    mismatches = 0
    for octal, m, L in ((["4", "4"], 0, 5), (["6", "4"], 1, 6), (["6", "5", "7"], 2, 6),
                        (["634", "564"], 6, 4), (["4734", "6624"], 9, 10)):
        trellis = build_trellis(parse_octal_generators(octal, m=m), L)
        mismatches += int((compute_dstar(trellis) != dstar_by_enumeration(trellis.code, L)).sum())
    return _check("dstar-oracle", mismatches == 0, f"{mismatches} mismatching entries")


def check_ml_equivalence() -> CheckResult:
    """Each decoder against its ML oracle on 100 trials at 2 dB (seed 7):
    the tree search on the Golay code against brute force, and the
    trellis search on the (2,1,6) code at L = 20 against viterbi_ml.  The
    trials of each code also go through decode_batch as one batch, and
    each row must give the one-trial decoder's counts and metric: the
    tree batch settles the Golay trials whose search is a straight dive
    in numpy and counts the rest together, and the trellis batch counts
    most trellis trials.  The detail line gives the number of Golay rows
    with exactly n extensions, the straight dives (15 of them)."""

    def differ(rows, outs) -> int:
        return sum(row is None or row[:4] != (o.branch_computations, o.branch_computations_total,
                                              o.extensions, o.metric)
                   for row, o in zip(rows, outs))

    code = build_extended_golay()
    phis = trial_llrs(code, 2.0, 7, range(100))
    decoded = [gda_decode(code, phi) for phi in phis]
    block = max(abs(out.metric - float(
        np.sum((phi - (1.0 - 2.0 * brute_force_ml_block(code, phi))) ** 2)))
        for out, phi in zip(decoded, phis))
    rows = decode_batch(code, phis)
    tree_differ = differ(rows, decoded)
    straight = sum(row is not None and row[2] == code.n for row in rows)  # n: no pop at all
    trellis = build_trellis(parse_octal_generators(["634", "564"], m=6), L=20)
    phis = trial_llrs(trellis, 2.0, 7, range(100))
    searched = [mlsda_decode(trellis, phi) for phi in phis]
    conv = max(abs(out.metric - float(
        np.sum((hard_decision(phi) ^ viterbi_ml(trellis, phi)) * np.abs(phi))))
        for out, phi in zip(searched, phis))
    trellis_differ = differ(decode_batch(trellis, phis), searched)
    return _check("ml-equivalence",
                  max(block, conv) <= 1e-6 and trellis_differ == tree_differ == 0,
                  f"max metric gap {block:.3g} (golay24 vs brute force), "
                  f"{conv:.3g} ((2,1,6) L=20 trellis vs viterbi_ml); "
                  f"{tree_differ} of 100 golay24 batch rows ({straight} of them straight dives) "
                  f"differ from gda_decode, {trellis_differ} of 100 trellis batch rows from the "
                  f"search")


def extension_event_hits(gen: np.random.Generator, gamma: float, ds, clipped,
                         samples: int) -> np.ndarray:
    """Hit counts [len(ds), len(clipped)] of the extension event
    Σ_{i≤d} X_i + Σ_{j≤c} min(W_j, 0) ≤ 0 over samples Monte Carlo rows,
    with every X_i and W_j independent N(sqrt(2 gamma), 1).

    Draws max(ds) X's per row from gen, then max(clipped) W's (a width of
    0 draws nothing and leaves gen where it was), and tallies
    S_x[d] + S_w[c] ≤ 0 for the requested cells only, S being each row's
    running sums after a leading zero.  To bound memory, call
    once per chunk of rows on the same generator and add the counts.
    """
    mu = math.sqrt(2.0 * gamma)
    sx = _running_sums(gen.normal(mu, 1.0, size=(samples, max(ds))))
    w = np.minimum(gen.normal(mu, 1.0, size=(samples, max(clipped))), 0.0)
    # take keeps the selected columns row-major (w[:, list] would not),
    # so each d's tally below streams through memory in order
    sw = np.take(_running_sums(w), list(clipped), axis=1)
    return np.array([(sx[:, d:d + 1] + sw <= 0.0).sum(axis=0) for d in ds], dtype=np.int64)


def _running_sums(a: np.ndarray) -> np.ndarray:
    """Row-wise running sums of a, after a leading zero column."""
    sums = np.zeros((a.shape[0], a.shape[1] + 1))
    np.cumsum(a, axis=1, out=sums[:, 1:])
    return sums


def check_bound_dominance() -> CheckResult:
    samples = 100_000
    gen = np.random.Generator(np.random.PCG64(11))
    ds, clipped_counts = range(0, 7, 2), range(0, 13, 4)
    d, clipped = np.meshgrid(ds, clipped_counts, indexing="ij")
    cells = d + clipped > 0
    worst = -np.inf
    for gamma in (0.5, 1.0):
        p_hat = extension_event_hits(gen, gamma, ds, clipped_counts, samples)[cells] / samples
        se = np.sqrt(np.maximum(p_hat * (1.0 - p_hat), 1e-12) / samples)
        for variant in (BERRY_ESSEEN, CHERNOFF):
            b = bounds.extension_probability_bounds(d[cells], clipped[cells], gamma, variant)
            worst = max(worst, float(((p_hat - 4.0 * se) - b).max()))
    return _check("bound-dominance", worst <= 0.0, f"worst margin {worst:.3g}")


def check_extension_probability_monotone() -> CheckResult:
    """Estimated extension probability decreases in the Gaussian count."""
    samples = 1_000_000
    gen = np.random.Generator(np.random.PCG64(13))
    p = extension_event_hits(gen, 0.5, range(1, 7), [10], samples)[:, 0] / samples
    ok = all(p[:-1] > p[1:])
    return _check("extension-probability-monotone", ok,
                  " > ".join(f"{v:.4f}" for v in p))


def check_golay_fixture() -> CheckResult:
    code = build_extended_golay()
    dmin, a8 = code.minimum_distance(), code.weight_count(8)
    return _check("golay-fixture", dmin == 8 and a8 == 759, f"dmin={dmin} A8={a8}")


def run_validation_suite() -> list:
    checks = [check_encoder_fixture, check_golay_fixture, check_dstar_oracle,
              check_ml_equivalence, check_bound_dominance,
              check_extension_probability_monotone]
    return [c() for c in checks]
