"""The package still runs under the benchmark's span tracer.

``bench/tracing.py`` wraps speechsr from outside: it rebinds module and
class attributes by name and reads fields of the objects they return. A
change in ``src/`` that removes one of those names breaks only the traced
benchmark run, which the tier-1 suite does not otherwise execute. This
test runs a one-epoch ``fit`` and an ``evaluate`` under the tracer, in a
fresh interpreter so its rebinding cannot leak into other tests.
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


def test_fit_and_evaluate_run_under_the_bench_tracer(tmp_path):
    paths = [str(ROOT / d) for d in ("src", "bench", "tests")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["batch_samples"] > 0
    assert out["metrics"]["data.pad_share"] == 0.0
    assert out["metrics"]["optim.adam_step.s"] > 0.0
