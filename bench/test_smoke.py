"""Smoke test of the benchmark itself, at the shortest run length.

Run from the root of a checkout (about two minutes on two cores):

    python3 -m pytest -q bench/test_smoke.py

It checks that every workload emits every metric BENCHMARK.json names,
with its unit, in both the untraced and the traced run; that the traced
runs show the layer contrasts the workloads were chosen for; and that the
benchmark refuses to run where the program is missing.
"""

import json
import math
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, workload, trace, seed=7):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_emitted_with_unit(results, trace):
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for workload in WORKLOADS:
        res = results[workload, trace]
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
        assert set(res["metrics"]) == {m["name"] for m in named}
        for m in named:
            got = res["metrics"][m["name"]]
            assert got["unit"] == m["unit"], (workload, m["name"])
            assert math.isfinite(got["value"]), (workload, m["name"])
            if not trace:
                assert got["value"] != 0, (workload, m["name"])


def test_traced_layer_contrasts(results):
    layer = {w: {k: v["value"] for k, v in results[w, 1]["metrics"].items()} for w in WORKLOADS}
    attention = {w: layer[w]["ops.attention_share"] for w in WORKLOADS}
    conv_norm = {w: layer[w]["ops.conv_norm_share"] for w in WORKLOADS}
    assert max(attention, key=attention.get) == "infer_long"
    assert max(conv_norm, key=conv_norm.get) == "infer_paper"
    train_only = [k for k in layer["train_overfit"]
                  if k.endswith(".bwd_s") or k.startswith(("optim.", "data.batch_wait"))]
    for workload in WORKLOADS:
        nonzero = [k for k in train_only if layer[workload][k] > 0]
        if workload == "train_overfit":
            assert {k for k in train_only if k.startswith("optim.")} <= set(nonzero)
            assert layer[workload]["data.batch_wait.s"] > 0
            assert any(k.endswith(".bwd_s") for k in nonzero)
        else:
            assert nonzero == [], workload
            assert layer[workload]["tensor.graph_nodes"] == 0


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
