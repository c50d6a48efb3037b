"""seqdec benchmark: end-to-end and per-layer metrics with a correctness gate.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record [--workload NAME]

Run it from the root of a source checkout; it imports seqdec from
``src``.  Every sample is taken in a fresh interpreter (``bench/measure.py``),
because the QR-48 build, the extension-probability bound and d* cache
within a process.  Each child runs single-threaded; the harness's pool
never gets more workers than there are CPUs.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones, as the last line of output:
``{"correct": .., "attempted": .., "failed": .., "metrics": {..}}``.
``attempted`` counts simulated trials plus bound evaluations; ``failed``
counts trials that hit the extension limit.  The line before it records
the environment (CPUs, versions, commit, src line count) and the run's
calibration time.

Times are reported in reference seconds.  The speed of the shared host
this was written on drifts by 15-30% over tens of seconds, which no
run length averages away, so each child also times a fixed calibration
loop (``bench/measure.py``) between its stages, and every time it
measured is scaled by ``REF_CAL_S`` over the median of those samples
(rates by the inverse).  A change to seqdec moves the reported times as
it moves the measured ones; a slower or faster host moves the
calibration with them.  ``bound_s_per_point`` is the median over the
run's rounds of the mean time per bound evaluation in each round.

The workload sizes are fixed trial counts (``bench/workloads.py``), so
that a seed always gives the same inputs; ``--seconds`` is the measuring
time they were sized for, and a run that takes more than three times
that warns on stderr.

Correctness: every run compares the bound values and the d* digest of
the measured experiment, and the pinned-seed gate run (curve CSV, exact
decoder totals), with ``bench/reference/<workload>.json``.  A traced run
also checks that the serial replay reproduces the harness's per-point
``sim_mean``/``trials`` exactly, and, for a multi-worker workload, that
one worker and several give the same CSV.  Any mismatch prints
``"correct": false`` and exits 1.  ``--record`` rewrites the reference
files from the current code.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

from workloads import WORKLOADS  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
DEADLINE_S = 175.0
REL_TOL = 1e-12  # bound values may move by float summation order only
# Time of one calibration loop (bench/measure.py) at the reference speed;
# every time the benchmark reports is in seconds at that speed.
REF_CAL_S = 0.017


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def child(args, deadline: float) -> dict:
    """Run bench/measure.py in a fresh interpreter and its own process
    group; return the JSON object on its last output line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("out of time")
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "measure.py"), *args],
                            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # also the harness's pool workers
        proc.communicate()
        raise ChildFailed(f"measure.py {' '.join(args)} timed out") from None
    if proc.returncode != 0:
        raise ChildFailed(f"measure.py {' '.join(args)} exited {proc.returncode}:\n"
                          + err[-3000:])
    return json.loads(out.strip().splitlines()[-1])


def experiment_seed(seed: int) -> int:
    """Map the benchmark seed to a 64-bit experiment seed.  The harness
    seeds trial t with seed ^ t, so nearby seeds would otherwise replay
    largely the same trials."""
    digest = hashlib.sha256(f"seqdec-bench:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def environment() -> dict:
    import numpy
    import scipy
    # the ceiling keeps git from reading a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    lines = 0
    for path in glob.glob(os.path.join(SRC, "seqdec", "*.py")):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": commit,
            "src_lines": lines}


# ---------------------------------------------------------------------------
# correctness

def close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * abs(want)


def bound_key(e: dict) -> str:
    return f"{e['db']!r}/{e['variant']}"


def compare_csv(got: str, want: str) -> list:
    """Bound columns within REL_TOL, every other column byte for byte."""
    g_rows = [r.split(",") for r in got.splitlines()]
    w_rows = [r.split(",") for r in want.splitlines()]
    if len(g_rows) != len(w_rows):
        return [f"CSV has {len(g_rows)} lines, reference {len(w_rows)}"]
    problems = []
    for i, (g, w) in enumerate(zip(g_rows, w_rows)):
        for j, (a, b) in enumerate(zip(g, w)):
            if a == b:
                continue
            if i > 0 and j in (1, 2) and a and b and close(float(a), float(b)):
                continue
            problems.append(f"CSV line {i + 1} column {j + 1}: {a!r} != reference {b!r}")
        if len(g) != len(w):
            problems.append(f"CSV line {i + 1}: {len(g)} columns, reference {len(w)}")
    return problems


def replay_matches(replay_points, points, what: str) -> list:
    """The serial replay must reproduce sim_mean and trials exactly."""
    problems = []
    for r, p in zip(replay_points, points, strict=True):
        if (r["sim_mean"], r["trials"], r["overflow"]) != (p["sim_mean"], p["trials"],
                                                          p["overflow"]):
            problems.append(f"{what} at {p['db']} dB: replay {r} != {p}")
    return problems


def check(rec: dict, ref: dict) -> list:
    """Compare one untraced run with the committed reference."""
    problems = []
    for e in rec["bound_evals"]:
        want = ref["bounds"].get(bound_key(e))
        if want is None or not close(e["value"], want):
            problems.append(f"bound {bound_key(e)}: {e['value']!r} != reference {want!r}")
    if rec["dstar_sha256"] != ref["dstar_sha256"]:
        problems.append("d* table digest differs from reference")
    gate = rec["gate"]
    problems += compare_csv(gate["csv"], ref["gate_csv"])
    if gate["totals"] != ref["gate_totals"]:
        problems.append(f"gate totals {gate['totals']} != reference {ref['gate_totals']}")
    problems += replay_matches(gate["replay_points"], gate["points"], "gate")
    return problems


def reference_of(rec: dict) -> dict:
    return {"bounds": {bound_key(e): e["value"] for e in rec["bound_evals"]},
            "dstar_sha256": rec["dstar_sha256"],
            "gate_csv": rec["gate"]["csv"], "gate_totals": rec["gate"]["totals"]}


# ---------------------------------------------------------------------------
# metrics

def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def host_scale(rec: dict) -> float:
    """Factor from a child's seconds to reference seconds."""
    return REF_CAL_S / rec["cal_s"]


def end_to_end(rec: dict, setups: list) -> dict:
    k = host_scale(rec)
    # the mean time per evaluation in each round, and its median over rounds
    rounds = {}
    for e in rec["bound_evals"]:
        rounds.setdefault(e["round"], []).append(e["s"])
    per_round = [statistics.fmean(s) for s in rounds.values()]
    branch = sum(round(p["sim_mean"] * p["trials"]) for p in rec["points"] if p["trials"])
    sim_s = k * rec["sim_s"]
    return {
        "wall_s": metric(k * rec["wall_s"], "s"),
        "setup_s": metric(statistics.median(host_scale(s) * s["setup_s"] for s in setups),
                          "s"),
        "bound_s_per_point": metric(k * statistics.median(per_round), "s"),
        "sim_trials_per_s": metric(rec["attempted_trials"] / sim_s, "1/s"),
        "sim_branch_metrics_per_s": metric(branch / sim_s, "1/s"),
        "peak_rss_mb": metric(rec["rss_mb"], "MiB"),
    }


def per_layer(rec: dict, tr: dict, workers: int) -> dict:
    lay = tr["layers"]
    k = host_scale(tr)
    eval_s = k * statistics.median(e["s"] for e in tr["bound_evals"])
    # the untraced wall time of the same serial work the traced run did
    untraced = rec["wall_s"]
    if workers > 1:
        untraced += rec["serial"]["sim_s"] - rec["sim_s"]
    untraced *= host_scale(rec)
    overflow = sum(p["overflow"] for p in rec["points"])
    return {
        "codes.build_s": metric(k * tr["code_s"], "s"),
        "codes.encode_us_p50": metric(k * lay["encode_us_p50"], "us"),
        "channel.trial_us_p50": metric(k * lay["channel_us_p50"], "us"),
        "decoders.decode_us_p50": metric(k * lay["decode_us_p50"], "us"),
        "decoders.decode_us_p99": metric(k * lay["decode_us_p99"], "us"),
        "decoders.floor_decode_us": metric(k * lay["floor_decode_us"], "us"),
        "decoders.floor_share": metric(lay["floor_share"], "share"),
        "decoders.branch_metrics_per_s": metric(lay["branch_metrics_per_s"] / k, "1/s"),
        "decoders.extensions": metric(lay["extensions"], "count"),
        "decoders.branch_metrics": metric(lay["branch_metrics"], "count"),
        "trellis.build_s": metric(k * tr["trellis_s"], "s"),
        "trellis.dstar_s": metric(k * tr["dstar_s"], "s"),
        "trellis.nodes": metric(tr["dstar_nodes"], "count"),
        "bounds.eval_s": metric(eval_s, "s"),
        "bounds.terms": metric(tr["bound_terms"], "count"),
        "bounds.terms_per_s": metric(tr["bound_terms"] / eval_s, "1/s"),
        "harness.parallel_efficiency": metric(
            k * lay["trial_s_sum"] / (workers * host_scale(rec) * rec["sim_s"]), "share"),
        "tracing_overhead_share": metric((k * tr["wall_s"] - untraced) / untraced, "share"),
        "overflow_share": metric(overflow / rec["attempted_trials"], "share"),
    }


# ---------------------------------------------------------------------------

def reference_path(ref_dir: str, name: str) -> str:
    return os.path.join(ref_dir, f"{name}.json")


def measure(name: str, seed: int, trace: bool, ref_dir: str, deadline: float) -> tuple:
    work = WORKLOADS[name]
    workers = work["experiment"]["workers"]
    if workers > len(os.sched_getaffinity(0)):
        raise SystemExit(f"{name} needs {workers} CPUs")
    exp_seed = str(experiment_seed(seed))
    with open(reference_path(ref_dir, name), encoding="utf-8") as fh:
        ref = json.load(fh)
    serial = ["--serial"] if trace and workers > 1 else []
    rec = child(["run", name, exp_seed, *serial], deadline)
    problems = check(rec, ref)
    if trace:
        tr = child(["traced", name, exp_seed], deadline)
        problems += replay_matches(tr["points"], rec["points"], "traced replay")
        if workers > 1 and rec["serial"]["csv"] != rec["serial"]["parallel_csv"]:
            problems.append(f"{workers}-worker CSV differs from the one-worker CSV")
        metrics = per_layer(rec, tr, workers)
    else:
        setups = [rec] + [child(["setup", name], deadline)
                          for _ in range(work["setup_samples"] - 1)]
        metrics = end_to_end(rec, setups)
    attempted = rec["attempted_trials"] + len(rec["bound_evals"])
    failed = sum(p["overflow"] for p in rec["points"])
    host = {"ref_cal_s": REF_CAL_S, "run_cal_s": rec["cal_s"]}
    return problems, host, {"correct": not problems, "attempted": attempted,
                            "failed": failed, "metrics": metrics}


def record(names, deadline_s: float) -> int:
    """Rewrite bench/reference from the current code."""
    ref_dir = os.path.join(BENCH, "reference")
    os.makedirs(ref_dir, exist_ok=True)
    for name in names:
        rec = child(["run", name, str(experiment_seed(0))], time.monotonic() + deadline_s)
        gate = rec["gate"]
        problems = replay_matches(gate["replay_points"], gate["points"], "gate")
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        with open(reference_path(ref_dir, name), "w", encoding="utf-8") as fh:
            json.dump(reference_of(rec), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded {name}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference-dir", default=os.path.join(BENCH, "reference"),
                   help="directory of reference outputs (the self-test perturbs a copy)")
    p.add_argument("--record", action="store_true",
                   help="rewrite the reference outputs from the current code")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "seqdec", "__init__.py")):
        print(f"no seqdec sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.record:
        return record(args.workload or sorted(WORKLOADS), 600.0)
    if not args.workload or len(args.workload) != 1:
        p.error("give exactly one --workload")
    name = args.workload[0]
    start = time.monotonic()
    problems, host, result = measure(name, args.seed, bool(args.trace), args.reference_dir,
                               start + DEADLINE_S)
    elapsed = time.monotonic() - start
    if elapsed > 3 * args.seconds:
        print(f"warning: run took {elapsed:.1f} s, more than 3 x --seconds",
              file=sys.stderr)
    for line in problems:
        print(f"MISMATCH {line}", file=sys.stderr)
    print(json.dumps({"env": {**environment(), "workload": name, "seed": args.seed,
                              "trace": args.trace, "elapsed_s": elapsed, **host}}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
