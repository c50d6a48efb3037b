"""The benchmark drives seqdec through `seqdec.X` and `harness.X`
attribute reads in bench/measure.py and builds ExperimentConfig from the
keyword dicts in bench/workloads.py.  Deleting or renaming any of those
names must fail here, not first in a benchmark run."""

import ast
import importlib.util
from pathlib import Path

import seqdec
from seqdec import harness

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_measure_reads_existing_names():
    tree = ast.parse((BENCH / "measure.py").read_text(encoding="utf-8"))
    modules = {"seqdec": seqdec, "harness": harness}
    reads = {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules}
    assert ("harness", "run_simulation_curve") in reads
    missing = sorted(f"{m}.{a}" for m, a in reads if not hasattr(modules[m], a))
    assert missing == []


def test_workload_configs_construct():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for work in workloads.WORKLOADS.values():
        harness.ExperimentConfig(**work["experiment"])
        harness.ExperimentConfig(**work["gate"])
