"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/sweep.py --workload NAME [--workload NAME ...]
                           [--seeds 1-10] [--trace 0|1] [--out FILE]

For each workload and metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  The summary
is printed as JSON and written to ``--out`` if given; ``--out`` merges
into an existing file, so traced and untraced sweeps can share one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def one_run(name: str, seed: int, trace: int, seconds: int) -> tuple:
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           "--workload", name, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{name} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    summary = {}
    if args.out and os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            summary = json.load(fh)
    key = "per_layer" if args.trace else "end_to_end"
    for name in args.workload:
        runs = [one_run(name, seed, args.trace, seconds) for seed in seed_list(args.seeds)]
        if not all(r["correct"] for _, r in runs):
            print(f"{name}: a run failed its correctness checks", file=sys.stderr)
            return 1
        metrics = {m: summarise([r["metrics"][m]["value"] for _, r in runs])
                   for m in runs[0][1]["metrics"]}
        for m, s in metrics.items():
            s["unit"] = runs[0][1]["metrics"][m]["unit"]
        entry = summary.setdefault(name, {})
        entry[key] = metrics
        per_run = ("seed", "trace", "elapsed_s", "run_cal_s")
        entry.setdefault("env", {k: v for k, v in runs[0][0].items() if k not in per_run})
        entry[key + "_runs"] = [{"seed": env["seed"], "elapsed_s": env["elapsed_s"],
                                 "run_cal_s": env["run_cal_s"],
                                 "attempted": r["attempted"], "failed": r["failed"]}
                                for env, r in runs]
        for m, s in metrics.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"{name:18s} {m:32s} median {s['median']:.6g} {s['unit']:6s} "
                  f"spread {spread}", file=sys.stderr)
    text = json.dumps(summary, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
