"""The package still runs under the benchmark's span tracer and probes.

``bench/tracing.py`` wraps speechsr from outside: it rebinds module and
class attributes by name and reads fields of the objects they return. The
probes of ``bench/workloads.py`` (``InferCalls``, ``StepClock`` and
``GraphCounter``) do the same to ``train.reverse_infer``,
``networks.Arcn.forward``, ``diffusion.repaint`` and ``ops.make_result``.
A change in ``src/`` that removes or bypasses one of those names breaks
only a benchmark run, which the tier-1 suite does not otherwise execute.
These tests run a one-epoch ``fit`` and an ``evaluate`` under the tracer,
and an ``evaluate_model`` under the probes, each in a fresh interpreter so
its rebinding cannot leak into other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
from pathlib import Path

from conftest import micro_arch, micro_train_config
from speechsr import train
from speechsr.data import synth_corpus
from speechsr.diffusion import NoiseSchedule
from speechsr.resample import UpsamplingRatio
from tracing import Tracer

tracer = Tracer()
tracer.install()
tracer.active = True
work = Path(sys.argv[1])
corpus = synth_corpus(work / "corpus", n_utts=2, duration_s=0.5, seed=3)
arcn, dparn = micro_arch()
result = train.fit(micro_train_config(), arcn, dparn, NoiseSchedule(), corpus, corpus,
                   work / "run")
train.evaluate(result.last_path, corpus, UpsamplingRatio(2), "chebyshev")
print(json.dumps({"metrics": tracer.metrics([], []), "batch_samples": tracer.batch_samples}))
"""


PROBES = """
import json, sys
from pathlib import Path

import workloads
from speechsr import train
from speechsr.data import synth_corpus
from speechsr.diffusion import NoiseSchedule
from speechsr.networks import TwoStageModel, tiny_arcn_config, tiny_dparn_config

ref = workloads.Reference()
infer, clock, graph = workloads.InferCalls(ref), workloads.StepClock(ref), workloads.GraphCounter()
corpus = synth_corpus(Path(sys.argv[1]) / "corpus", n_utts=2, duration_s=0.5, seed=3)
model = TwoStageModel(tiny_arcn_config(), tiny_dparn_config(), seed=1)
rows = train.evaluate_model(model, corpus, workloads.RATIO, workloads.KIND, workloads.KIND,
                            NoiseSchedule(inference_steps=3), workloads.RATE, seed=0)
print(json.dumps({
    "rows": len(rows), "infer_calls": len(infer.calls), "step_samples": len(clock.samples),
    "graph_nodes": graph.nodes,
    "problems": [workloads.output_problems(s_lr, out) for _, s_lr, out in infer.calls],
}))
"""


def _run_fresh(script: str, work: Path) -> dict:
    """Run ``script`` with ``src``, ``bench`` and ``tests`` importable; return its last line."""
    paths = [str(ROOT / d) for d in ("src", "bench", "tests")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run([sys.executable, "-c", script, str(work)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_fit_and_evaluate_run_under_the_bench_tracer(tmp_path):
    out = _run_fresh(SCRIPT, tmp_path)
    assert out["batch_samples"] > 0
    assert out["metrics"]["data.pad_share"] == 0.0
    assert out["metrics"]["optim.adam_step.s"] > 0.0
    for name in ("ops.stft_pair.calls", "ops.istft_pair.calls", "objectives.loss_pred.s",
                 "objectives.loss_tf.s"):
        assert out["metrics"][name] > 0, name


def test_evaluate_model_runs_under_the_bench_probes(tmp_path):
    """Every reverse step is one ARCN forward paired with its repaint, with no
    graph recorded, and every output passes the benchmark's checks."""
    out = _run_fresh(PROBES, tmp_path)
    assert out["rows"] == 2 and out["infer_calls"] == 2
    assert out["step_samples"] == 2 * 3
    assert out["graph_nodes"] == 0
    assert out["problems"] == [[], []]
