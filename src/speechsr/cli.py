"""Command-line interface for the batch pipeline.

Subcommands: synth-corpus, simulate, train, enhance, evaluate,
dump-schedule, spectrogram. Exit codes: 0 success, 1 usage error,
2 data/format error, 3 numeric abort.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import load_run_spec
from .data import read_manifest, read_wav, synth_corpus, write_wav
from .diffusion import GAMMA, reverse_infer, sigma
from .dsp import FrameConfig, Waveform, normalize, stft
from .errors import ConfigError, DegenerateInputError, NumericsError, WavFormatError
from .resample import FILTER_KINDS, UpsamplingRatio, simulate_lr
from .train import evaluate, fit, load_model, write_report


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="speechsr", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-corpus", help="generate a synthetic corpus + manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dur", type=float, required=True, help="seconds per utterance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rate", type=int, default=16000)

    p = sub.add_parser("simulate", help="write LR and interpolated wavs for a manifest")
    p.add_argument("--in", dest="manifest", required=True)
    p.add_argument("--ratio", type=int, required=True)
    p.add_argument("--filter", choices=FILTER_KINDS, default="chebyshev")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="run the training loop from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")

    p = sub.add_parser("enhance", help="super-resolve one WAV file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="wav_in", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="metric table over a manifest")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--ratio", type=int, required=True)
    p.add_argument("--filter", choices=FILTER_KINDS, default="chebyshev")
    p.add_argument("--report", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("dump-schedule", help="CSV of (t, sigma, exp(-gamma t))")
    p.add_argument("--out", required=True)
    p.add_argument("--points", type=int, default=1001)

    p = sub.add_parser("spectrogram", help="CSV magnitude matrix of a WAV")
    p.add_argument("--in", dest="wav_in", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--frame-ms", type=float, default=32.0, help="hopped by a quarter")

    return parser


def _cmd_synth_corpus(args) -> int:
    manifest = synth_corpus(args.out, args.n, args.dur, args.seed, args.rate)
    meta = {"n": args.n, "dur": args.dur, "seed": args.seed, "rate": args.rate,
            "version": __version__}
    (Path(args.out) / "corpus_meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True))
    print(f"wrote {len(manifest)} utterances under {args.out}")
    print(f"manifest: {Path(args.out) / 'manifest.tsv'}")
    return 0


def _cmd_simulate(args) -> int:
    manifest = read_manifest(args.manifest)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ratio = UpsamplingRatio(args.ratio)
    for entry in manifest.entries:
        hr = read_wav(entry.path)
        s_lr, s_inp = simulate_lr(hr, ratio, args.filter)
        write_wav(out / f"{entry.utt_id}_lr.wav", s_lr)
        write_wav(out / f"{entry.utt_id}_inp.wav", s_inp)
    meta = {"ratio": args.ratio, "filter": args.filter, "n": len(manifest)}
    (out / "simulate_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    print(f"simulated {len(manifest)} utterances -> {out}")
    return 0


def _cmd_train(args) -> int:
    spec = load_run_spec(args.config)
    result = fit(
        spec.train, spec.arcn, spec.dparn, spec.schedule,
        read_manifest(spec.train_manifest), read_manifest(spec.valid_manifest),
        spec.out_dir, resume_from=args.resume,
    )
    print(f"steps: {result.total_steps}")
    print(f"best checkpoint: {result.best_path}")
    print(f"last checkpoint: {result.last_path}")
    return 0


def _cmd_enhance(args) -> int:
    model, meta = load_model(args.ckpt)
    w = read_wav(args.wav_in)
    rate = meta.train_config.sample_rate
    factor, rest = divmod(rate, w.sample_rate)
    if rest or not factor:
        raise ValueError(f"input is {w.sample_rate} Hz; this checkpoint, trained at {rate} Hz,"
                         f" needs a rate that divides {rate} Hz")
    ratio = UpsamplingRatio(factor)
    normalized, mean, std = normalize(w)
    rng = np.random.default_rng(args.seed)
    out = reverse_infer(normalized, model, meta.schedule, ratio,
                        meta.train_config.filter_kind, rng)
    restored = Waveform(out.samples * std + mean, out.sample_rate)
    write_wav(args.out, restored)
    print(f"{args.wav_in} ({w.sample_rate} Hz) -> {args.out} ({restored.sample_rate} Hz)")
    return 0


def _cmd_evaluate(args) -> int:
    rows = evaluate(args.ckpt, read_manifest(args.manifest),
                    UpsamplingRatio(args.ratio), args.filter, seed=args.seed)
    write_report(args.report, rows)
    mean_sisnr = float(np.mean([r.metrics.sisnr_db for r in rows]))
    mean_lsd = float(np.mean([r.metrics.lsd_db for r in rows]))
    mean_band = float(np.mean([r.metrics.band_error_db for r in rows]))
    print(f"evaluated {len(rows)} utterances ({args.filter} simulation)")
    print(f"mean SISNR {mean_sisnr:.2f} dB | mean LSD {mean_lsd:.3f} | mean band energy"
          f" error {mean_band:.2f} dB | report {args.report}")
    return 0


def _cmd_dump_schedule(args) -> int:
    grid = np.linspace(0.0, 1.0, args.points)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "sigma", "exp_neg_gamma_t"])
        for t in grid:
            writer.writerow([t, sigma(float(t)), np.exp(-GAMMA * t)])
    print(f"wrote {args.points} schedule rows to {args.out}")
    return 0


def _cmd_spectrogram(args) -> int:
    w = read_wav(args.wav_in)
    spec = stft(w, FrameConfig(frame_ms=args.frame_ms))
    mags = spec.magnitude()
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"bin{f}" for f in range(mags.shape[1])])
        writer.writerows(mags.tolist())
    print(f"{mags.shape[0]} frames x {mags.shape[1]} bins -> {args.out}")
    return 0


_COMMANDS = {
    "synth-corpus": _cmd_synth_corpus,
    "simulate": _cmd_simulate,
    "train": _cmd_train,
    "enhance": _cmd_enhance,
    "evaluate": _cmd_evaluate,
    "dump-schedule": _cmd_dump_schedule,
    "spectrogram": _cmd_spectrogram,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (WavFormatError, ConfigError, DegenerateInputError, FileNotFoundError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
