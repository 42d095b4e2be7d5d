"""The command line: every workload's smoke run, the traced run, and the
refusal to run without the program."""
import inspect
import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
from tracing import Tracer

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "veilbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_checks_and_reports_every_metric(workload):
    result = result_of(run("--workload", workload, "--seed", "5", "--smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer():
    result = result_of(run("--workload", "corpus-dummy", "--seed", "5",
                           "--smoke", "--trace", "1"))
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["parser.parse_s"]["value"] > 0
    spans = os.path.join(BENCH, ".work", "trace-corpus-dummy-seed5.json")
    with open(spans) as f:
        assert {"compile", "setup", "tx"} <= set(json.load(f)["phase_self_s"])


def test_refuses_to_run_without_the_program(scratch):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
    shutil.copytree(BENCH, os.path.join(scratch, "veilbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run("--workload", "corpus-dummy", "--seed", "1", cwd=scratch)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_the_union_of_children():
    t = Tracer()
    t.spans = [["bench.tx", 0.0, 10.0, None, 1], ["a", 1.0, 5.0, 0, 1],
               ["b", 3.0, 6.0, 0, 2], ["c", 2.0, 4.0, 1, 1]]
    assert t.self_times() == [5.0, 2.0, 3.0, 2.0]
    assert t.by_phase() == {"tx": {"bench.unattributed": 5.0, "a": 2.0,
                                   "b": 3.0, "c": 2.0}}


def test_tracer_restores_every_patched_name():
    import veil.chain
    import veil.r1cs
    import veil.runtime

    def names():
        return (veil.chain.verify, veil.chain.copy, veil.runtime.copy,
                inspect.getattr_static(veil.chain.MockChain, "load"),
                veil.r1cs.ConstraintSystem.serialize)

    before = names()
    with Tracer():
        assert veil.chain.verify is not before[0]
        assert veil.chain.copy.deepcopy({"a": 1}) == {"a": 1}
    assert names() == before
