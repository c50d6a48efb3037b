"""Command-line front end.

Subcommands: bound-gda, bound-mlsda, simulate-gda, simulate-mlsda,
atilde, dstar, validate.  Exit codes: 0 success, 1 validation failure,
2 configuration error or invalid input (NaN/infinite LLR or SNR, or an
SNR so high that the bound's e^gamma overflows), 141 (128 + SIGPIPE)
when the reader of stdout goes away, as `seqdec ... | head` does.
"""

import argparse
import contextlib
import json
import math
import os
import sys

from seqdec import harness
from seqdec.channel import InvalidSnr, NonFiniteLLR
from seqdec.codes import BlockCode, ConvCode
from seqdec.harness import ConfigError, ExperimentConfig
from seqdec.numerics import DomainError
from seqdec.trellis import build_trellis


def _parse_snr(text: str) -> tuple:
    """start:stop:step (inclusive stop, dB) or a comma-separated list."""
    try:
        if ":" in text:
            start, stop, step = (float(v) for v in text.split(":"))
            if not all(map(math.isfinite, (start, stop, step))):
                raise ValueError("start, stop and step must be finite")
            if step <= 0:
                raise ValueError("step must be positive")
            last = (stop - start + 1e-9) / step  # index of the last point
            if last >= 10_000:
                raise ValueError("more than 10,000 grid points")
            return tuple(round(start + i * step, 10) for i in range(math.floor(last) + 1))
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --snr {text!r}: {exc}") from exc


def _load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return raw


def _experiment_config(args, kind: str, mode: str) -> ExperimentConfig:
    """The config file's keys with the given flags laid over them; a key
    ExperimentConfig has no field for is a config error, bar the free-text
    note, and so is mode, which the subcommand sets."""
    fields = _load_config(args.config) if args.config is not None else {}
    fields.pop("note", None)
    if "mode" in fields:
        raise ConfigError("config key 'mode': the subcommand sets mode")
    code_name = getattr(args, "code_name", None)
    flags = {"code": None if code_name is None else {"name": code_name},
             "snr_db": None if args.snr is None else _parse_snr(args.snr),
             **{name: getattr(args, name, None) for name in (
                 "trials", "seed", "variant", "workers", "all_zero", "L", "extension_limit")}}
    fields.update({k: v for k, v in flags.items() if v is not None}, mode=mode)
    try:
        cfg = ExperimentConfig(**fields)
    except TypeError as exc:  # an unknown key, or no code or SNR grid
        raise ConfigError(str(exc)) from exc
    target = harness.code_from_config(cfg.code)
    if kind == "gda" and not isinstance(target, BlockCode):
        raise ConfigError("this subcommand expects a block code")
    if kind == "mlsda" and not isinstance(target, ConvCode):
        raise ConfigError("this subcommand expects a convolutional code")
    return cfg


def _open_out(args):
    """The CSV output, a context manager: stdout unless --out is given."""
    if args.out is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(args.out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {args.out!r}: {exc}") from exc


def _add_curve_flags(p: argparse.ArgumentParser, kind: str, simulate: bool):
    """The flags a curve run reads: a bound has no seed, a simulation no
    variant, a block code no length and a convolutional code no name."""
    p.add_argument("--config", help="JSON experiment config")
    if kind == "gda":
        p.add_argument("--code", dest="code_name", help="named code (golay24, qr48)")
    else:
        p.add_argument("--length", "-L", dest="L", type=int, help="information length")
    p.add_argument("--snr", help="gamma_b grid in dB: start:stop:step or list; write "
                                 "--snr=-8:10:0.5 when it starts with a minus sign")
    if not simulate:
        p.add_argument("--variant", choices=["be", "chernoff", "both"])
    p.add_argument("--out", help="CSV output path (default stdout)")
    if simulate:
        p.add_argument("--seed", type=int)
        p.add_argument("--trials", type=int)
        p.add_argument("--workers", type=int)
        p.add_argument("--all-zero", action="store_true", default=None,
                       help="transmit the all-zero codeword instead of random data")
        p.add_argument("--extension-limit", type=int,
                       help="per-trial search budget; overflowing trials are excluded")


def _cmd_curve(args, kind: str, mode: str) -> int:
    cfg = _experiment_config(args, kind, mode)
    # an --out that is empty, names a directory, lies in a missing one or
    # cannot be written fails before the run
    if args.out == "":
        raise ConfigError("--out is empty")
    if args.out is not None:
        parent = os.path.dirname(args.out) or "."
        if os.path.isdir(args.out):
            raise ConfigError(f"cannot write {args.out!r}: it is a directory")
        if not os.path.isdir(parent):
            raise ConfigError(f"cannot write {args.out!r}: no such directory")
        if not os.access(args.out if os.path.exists(args.out) else parent, os.W_OK):
            raise ConfigError(f"cannot write {args.out!r}: permission denied")
    points = harness.run_experiment(cfg)
    overflow = sum(p.overflow_trials for p in points)
    with _open_out(args) as out:
        harness.write_curve_csv(points, out)
    if overflow:
        print(f"note: {overflow} trial(s) exceeded the extension budget "
              "and were excluded", file=sys.stderr)
    return 0


def _all_numbers(values, kind) -> bool:
    """Every value is a JSON number of the given type (booleans are not)."""
    return all(isinstance(v, kind) and not isinstance(v, bool) for v in values)


def _cmd_atilde(args) -> int:
    raw = _load_config(args.config) if args.config is not None else {}
    unknown = sorted(set(raw) - {"curves", "n_grid", "note"})
    if unknown:
        raise ConfigError(f"unknown atilde config key(s) {unknown}")
    curves = raw.get("curves", [])
    if not isinstance(curves, list) or not all(isinstance(c, dict) for c in curves):
        raise ConfigError("atilde config curves must be a list of JSON objects")
    flags = {"d_over_n": args.ratio, "gamma_db": args.gamma_db}
    # flags win; the first config curve consistent with them fills the rest
    curve = next((c for c in curves
                  if all(v is None or c.get(k) == v for k, v in flags.items())), {})
    d_over_n, gamma_db = (curve.get(k) if v is None else v for k, v in flags.items())
    if d_over_n is None or gamma_db is None:
        raise ConfigError("atilde needs --ratio and --gamma-db (or a config curve)")
    if not _all_numbers((d_over_n, gamma_db), (int, float)):
        raise ConfigError("atilde d_over_n and gamma_db must be numbers")
    n_grid = raw.get("n_grid", list(range(40, 401, 10)))
    if args.n_grid is not None:
        try:
            n_grid = [int(v) for v in args.n_grid.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad --n-grid {args.n_grid!r}: {exc}") from exc
    if not isinstance(n_grid, list) or not _all_numbers(n_grid, int):
        raise ConfigError("atilde n_grid must be a list of integers")
    rows = harness.run_atilde_table(float(d_over_n), float(gamma_db), n_grid)
    with _open_out(args) as out:
        harness.write_atilde_csv(rows, out)
    return 0


def _cmd_dstar(args) -> int:
    raw = _load_config(args.config) if args.config is not None else {}
    code_spec = raw.get("code")
    if args.memory is not None and args.octal is None:
        raise ConfigError("dstar reads -m/--memory only with --octal")
    if args.octal is not None:
        code_spec = {"type": "conv", "m": args.memory, "octal": args.octal.split(",")}
    if code_spec is None:
        raise ConfigError("dstar needs --octal/--memory or a config with a conv code")
    code = harness.code_from_config(code_spec)
    if not isinstance(code, ConvCode):
        raise ConfigError("dstar expects a convolutional code")
    L = args.length if args.length is not None else raw.get("L")
    if L is None:
        raise ConfigError("dstar needs L (use --length)")
    if not _all_numbers((L,), int) or L < 1:
        raise ConfigError(f"L must be an integer >= 1, got {L!r}")
    trellis = build_trellis(code, L)
    with _open_out(args) as out:
        harness.write_dstar_csv(trellis, out)
    return 0


def _cmd_validate(args) -> int:
    results = harness.run_validation_suite()
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
        failed += not r.passed
    if failed:
        print(f"{failed} check(s) failed", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqdec",
        description="Sequential ML decoding complexity: simulation and bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, kind, mode, simulate in (
            ("bound-gda", "gda", "bound", False),
            ("bound-mlsda", "mlsda", "bound", False),
            ("simulate-gda", "gda", "simulate", True),
            ("simulate-mlsda", "mlsda", "simulate", True)):
        p = sub.add_parser(name, help=f"{mode} curve ({kind})")
        _add_curve_flags(p, kind, simulate)
        p.set_defaults(func=lambda a, k=kind, m=mode: _cmd_curve(a, k, m))

    p = sub.add_parser("atilde", help="subexponential prefactor vs sample count")
    p.add_argument("--config")
    p.add_argument("--ratio", type=float, help="d/n")
    p.add_argument("--gamma-db", type=float, help="SNR gamma in dB")
    p.add_argument("--n-grid", help="comma-separated sample counts")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_atilde)

    p = sub.add_parser("dstar", help="dump minimum path weight table as CSV")
    p.add_argument("--config")
    p.add_argument("--octal", help="comma-separated octal generators")
    p.add_argument("--memory", "-m", type=int, help="encoder memory order")
    p.add_argument("--length", "-L", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dstar)

    p = sub.add_parser("validate", help="run the cross-module validation suite")
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InvalidSnr, NonFiniteLLR, DomainError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the Python docs' note on SIGPIPE: point stdout at devnull, so that
        # the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
