"""Self-test of the benchmark on its two tiny workloads.

    python3 bench/selftest.py

Run from the root of a checkout.  It checks that

* both tiny workloads (the (3,1,2) 6/5/7 code at L=8 on two workers, and
  Golay at one simulated point) pass their gate and print every metric
  BENCHMARK.json names, with its unit, in both trace modes;
* the gate fails, with exit code 1 and ``"correct": false``, against
  perturbed copies of the reference (a decoder total, a bound value
  beyond the tolerance, a CSV simulation field), and still passes when
  a bound value moves by less than the tolerance;
* without the seqdec sources the benchmark exits non-zero and prints no
  result;
* the benchmark imports no underscore name from seqdec and no seqdec
  module other than ``seqdec`` and ``seqdec.harness``.

Scratch files go to ``.bench_selftest`` in the checkout and are removed.
"""

import ast
import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SCRATCH = os.path.join(ROOT, ".bench_selftest")
TINY = ("selftest-conv", "selftest-golay")
ALLOWED_MODULES = {"seqdec", "seqdec.harness"}


def run_bench(name: str, trace: int, cwd: str = ROOT, ref_dir: str | None = None):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", name,
           "--seed", "7", "--seconds", "5", "--trace", str(trace)]
    if ref_dir:
        cmd += ["--reference-dir", ref_dir]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result


def check_metrics(failures: list) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for name in TINY:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run_bench(name, trace)
            if code != 0 or not result or result["correct"] is not True:
                failures.append(f"{name} trace {trace}: exit {code}, result {result}")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{name} trace {trace}: metrics {got} != {want}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{name} trace {trace}: result keys {sorted(result)}")


def perturbations():
    """(description, edit of the reference dict, should the gate pass)."""
    def total(ref):
        ref["gate_totals"]["extensions"] += 1

    def bound(factor):
        def edit(ref):
            key = sorted(ref["bounds"])[0]
            ref["bounds"][key] *= factor
        return edit

    def csv(ref):
        lines = ref["gate_csv"].splitlines()
        fields = lines[1].split(",")
        fields[5] = str(int(fields[5]) + 1)  # trials
        lines[1] = ",".join(fields)
        ref["gate_csv"] = "\n".join(lines) + "\n"

    return [("decoder total", total, False), ("bound beyond tolerance", bound(1 + 1e-9), False),
            ("bound within tolerance", bound(1 + 1e-14), True), ("CSV trials", csv, False)]


def check_gate(failures: list) -> None:
    ref_dir = os.path.join(SCRATCH, "reference")
    for what, edit, passes in perturbations():
        shutil.rmtree(ref_dir, ignore_errors=True)
        shutil.copytree(os.path.join(BENCH, "reference"), ref_dir)
        path = os.path.join(ref_dir, "selftest-golay.json")
        with open(path, encoding="utf-8") as fh:
            ref = json.load(fh)
        edit(ref)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ref, fh)
        code, result = run_bench("selftest-golay", 0, ref_dir=ref_dir)
        ok = result is not None and result["correct"] is passes and (code == 0) is passes
        if not ok:
            failures.append(f"gate with perturbed {what}: exit {code}, result {result}")


def check_bare(failures: list) -> None:
    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(BENCH, os.path.join(bare, "bench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, result = run_bench("selftest-conv", 0, cwd=bare)
    if code == 0 or result is not None:
        failures.append(f"without sources: exit {code}, result {result}")


def check_imports(failures: list) -> None:
    for entry in sorted(os.listdir(BENCH)):
        if not entry.endswith(".py"):
            continue
        with open(os.path.join(BENCH, entry), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), entry)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("seqdec"):
                if node.module not in ALLOWED_MODULES:
                    failures.append(f"{entry}: imports from {node.module}")
                names = [a.name for a in node.names if a.name not in ALLOWED_MODULES
                         and f"{node.module}.{a.name}" not in ALLOWED_MODULES]
                if any(n.startswith("_") for n in names):
                    failures.append(f"{entry}: imports {names} from {node.module}")
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.startswith("seqdec") and a.name not in ALLOWED_MODULES:
                        failures.append(f"{entry}: imports {a.name}")
            elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and isinstance(node.value, ast.Name)
                  and node.value.id in ("seqdec", "harness")):
                failures.append(f"{entry}: uses {node.value.id}.{node.attr}")


def main() -> int:
    failures = []
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        check_imports(failures)
        check_metrics(failures)
        check_gate(failures)
        check_bare(failures)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    for f in failures:
        print("FAIL", f)
    print("selftest:", "FAILED" if failures else "OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
