"""speechsr benchmark launcher.

Usage, from the root of a checkout:

    python3 bench/run.py --workload train_overfit --seed 1 --seconds 25 --trace 0

Runs one workload in this process with one BLAS thread and prints, as its
last stdout line, ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Lines before it give the environment block, every metric
with its unit, the context figures and the determinism digest. The full
record is also written to ``bench/out/results/``, and the spans of a traced
run to ``bench/out/traces/``.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# Pin BLAS before numpy is imported: the variables are read once, at load.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SRC = ROOT / "src"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time as JSON and exit (used for "
                        "the repeated set-up samples)")
    return p.parse_args(argv)


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    # The ceiling stops git from reporting a repository that encloses the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _blas_threads():
    """Thread count OpenBLAS reports, or None where its library is not found."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    for lib in libs:
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        fn.argtypes = []
        return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload_seed": seed,
    }


def _setup_samples(args, own_setup_s: float, repeats: int) -> list[float]:
    """Set-up time of this process plus ``repeats`` fresh processes.

    Set-up is repeated in new processes so that imports and first-use
    caches are paid every time, as they are by a user starting the program.
    """
    samples = [own_setup_s]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    for _ in range(repeats):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def _check_digest(workload: str, seed: int, n_ops: int, source: str, digest: str) -> bool:
    """Record the digest; False when an earlier run of the same code and seed differs."""
    path = OUT_DIR / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{source}/{workload}/seed{seed}/ops{n_ops}"
    previous = known.setdefault(key, digest)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return previous == digest


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "speechsr" / "__init__.py").is_file():
        print(f"error: no speechsr package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads
    from tracing import LAYER_METRICS, Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 1
    spec = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"

    tracer = None
    if args.trace and not args.setup_only:
        tracer = Tracer()
        tracer.install()
    try:
        run = spec.run(args.seed, spec.n_ops(args.seconds), work_dir, T_START, tracer,
                       setup_only=args.setup_only)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if args.setup_only:
        print(json.dumps({"setup_s": run.setup_s}))
        return 0

    env = environment(args.seed)
    # Set-up is an end-to-end metric only; the traced run does not repeat it.
    setups = _setup_samples(args, run.setup_s, 0 if tracer else workloads.SETUP_REPEATS)
    e2e = run.end_to_end(setups)
    digest_ok = _check_digest(args.workload, args.seed, run.attempted,
                              env["source_sha256"], run.digest)
    if not digest_ok:
        run.errors.append("determinism digest differs from an earlier run of this code and seed")
    correct = not run.errors  # every failed check records an error

    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in workloads.END_TO_END}
    else:
        layer = tracer.metrics(run.step_rel(), run.rtf)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in LAYER_METRICS}
        OUT_DIR.joinpath("traces").mkdir(exist_ok=True)
        tracer.write(OUT_DIR / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup_samples_s": setups,
        "end_to_end": e2e, "context": run.context, "step_s": run.step_s,
        "ref_s": run.ref_s, "step_rel": run.step_rel(), "rtf": run.rtf,
        "digest": run.digest, "errors": run.errors, "metrics": metrics,
    }
    OUT_DIR.joinpath("results").mkdir(exist_ok=True)
    (OUT_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1))

    print("environment " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for name, value in run.context.items():
        print(f"context {name:32s} {value}")
    print(f"digest {run.digest}")
    for err in run.errors:
        print(f"error {err}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
