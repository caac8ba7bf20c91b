"""Command-line interface.

Subcommands: synth, prepare, train, eval, robust, sweep, ablate. Settings
resolve in order: built-in defaults, then a flat key=value config file, then
CROSSDIFF_<KEY> environment variables, then --set overrides, then dedicated
flags; an unknown key is an error in each. Every command writes a run
manifest next to its outputs; report files contain no timestamps so
identical runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import os
import sys

from . import __version__
from .data import (filter_and_split_with_stats, generate_synthetic, ingest_log,
                   load_split, save_events, save_ground_truth, save_split,
                   SyntheticConfig)
from .diffusion import build_schedule
from .evaluation import (ablation_study, auto_negatives, evaluate,
                         noise_robustness, step_sweep)
from .network import VARIANTS, ModelConfig
from .objectives import LOSS_TERMS
from .trainer import TrainConfig, fit, init_state, load_checkpoint

ENV_PREFIX = "CROSSDIFF_"

# key -> (default, type tag); "opt*" types accept none/auto for None. Every
# TrainConfig field is a key of its own name, with the default it has there.
CONFIG_SCHEMA = {
    "d": (256, "int"),
    "n_heads": (1, "int"),
    "enc_layers": (2, "int"),
    "dec_layers": (1, "int"),
    "max_seq_len": (15, "int"),
    "diffusion_steps": (50, "int"),
    "beta_start": (1e-4, "float"),
    "beta_end": (0.02, "float"),
    **{f.name: (f.default, {"float | None": "optfloat"}.get(f.type, f.type))
       for f in dataclasses.fields(TrainConfig)},
    "min_interactions": (10, "int"),
    "min_per_domain": (3, "int"),
    "eval_seed": (101, "int"),
    "eval_every": (1, "int"),
    "checkpoint_every": (0, "int"),
    "n_negatives": (None, "optint"),
    "eval_batch_size": (64, "int"),
    "n_steps": (None, "optint"),
    "n_users": (200, "int"),
    "n_items_x": (100, "int"),
    "n_items_y": (100, "int"),
    "n_shared": (4, "int"),
    "n_specific": (2, "int"),
    "noise_rate": (0.1, "float"),
    "seq_min": (10, "int"),
    "seq_max": (15, "int"),
}


def _coerce(key: str, raw: str):
    if key not in CONFIG_SCHEMA:
        raise ValueError("unknown config key %r" % key)
    _, kind = CONFIG_SCHEMA[key]
    raw = raw.strip()
    if kind.startswith("opt") and raw.lower() in ("none", "auto", ""):
        return None
    base = {"int": int, "optint": int, "float": float, "optfloat": float}[kind]
    try:
        return base(raw)
    except ValueError:
        raise ValueError("config key %r expects %s, got %r" % (key, kind, raw))


def _load_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("%s line %d: expected key=value" % (path, line_no))
            key, raw = (s.strip() for s in line.split("=", 1))
            out[key] = _coerce(key, raw)
    return out


def _given_settings(args) -> dict:
    """The settings a run names itself, from every source but the defaults."""
    given = {}
    if getattr(args, "config", None):
        given.update(_load_config_file(args.config))
    known = {ENV_PREFIX + key.upper() for key in CONFIG_SCHEMA}
    for name in sorted(os.environ):
        if name.startswith(ENV_PREFIX) and name not in known:
            raise ValueError("environment variable %s names no config key" % name)
    for key in CONFIG_SCHEMA:
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            given[key] = _coerce(key, env)
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ValueError("--set expects key=value, got %r" % item)
        key, raw = (s.strip() for s in item.split("=", 1))
        given[key] = _coerce(key, raw)
    for key in CONFIG_SCHEMA:   # a flag named after a key (--seed, ...) wins
        flag = getattr(args, key, None)
        if flag is not None:
            given[key] = flag
    return given


def resolve_config(args) -> dict:
    cfg = {k: d for k, (d, _) in CONFIG_SCHEMA.items()}
    cfg.update(_given_settings(args))
    return cfg


# config key -> ModelConfig field; the vocabulary sizes come from the split
MODEL_KEYS = {"d": "d", "n_heads": "n_heads", "enc_layers": "enc_layers",
              "dec_layers": "dec_layers", "max_seq_len": "max_seq_len",
              "diffusion_steps": "T"}
# TrainConfig fields are named after their config keys
TRAIN_KEYS = tuple(f.name for f in dataclasses.fields(TrainConfig))


def _model_cfg(cfg: dict, vocab_x_size: int, vocab_y_size: int) -> ModelConfig:
    return ModelConfig(**{f: cfg[k] for k, f in MODEL_KEYS.items()},
                       vocab_x_size=vocab_x_size, vocab_y_size=vocab_y_size)


def _train_cfg(cfg: dict) -> TrainConfig:
    return TrainConfig(**{k: cfg[k] for k in TRAIN_KEYS})


def _schedule(cfg: dict):
    return build_schedule(cfg["diffusion_steps"], cfg["beta_start"], cfg["beta_end"])


def _checkpoint_settings(state) -> dict:
    """The settings a checkpoint fixes, under their config keys."""
    fixed = {k: getattr(state.model_cfg, f) for k, f in MODEL_KEYS.items()}
    fixed.update({k: getattr(state.train_cfg, k) for k in TRAIN_KEYS})
    fixed.update(beta_start=state.sched.beta_start, beta_end=state.sched.beta_end)
    return fixed


# ---------------------------------------------------------------------------
# manifests and reports

def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: str, command: str, cfg: dict, inputs: list,
                    outputs: list, started: str) -> None:
    manifest = {
        "command": command,
        "package_version": __version__,
        "config": {k: cfg[k] for k in sorted(cfg)},
        "inputs": {p: _sha256(p) for p in inputs if os.path.isfile(p)},
        "outputs": sorted(outputs),
        "started_at": started,
        "finished_at": _now(),
    }
    with open(os.path.join(out_dir, "run_manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _fmt(x: float) -> str:
    return "%.10g" % x


def _write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w") as fh:
        for cells in [header] + rows:
            fh.write(",".join(cells) + "\n")


def _report_rows(report) -> list:
    """[domain, users, mrr, hit5, hit10, ndcg5, ndcg10] per domain, then overall."""
    rows = []
    tot = [0.0] * 5
    for dom in sorted(report.per_domain):
        mv = report.per_domain[dom]
        vals = [mv.mrr, mv.hit[5], mv.hit[10], mv.ndcg[5], mv.ndcg[10]]
        rows.append([dom, mv.n_users] + vals)
        tot = [acc + v * mv.n_users for acc, v in zip(tot, vals)]
    n = sum(row[1] for row in rows)
    rows.append(["overall", n] + [acc / n for acc in tot])
    return rows


METRICS_HEADER = ["part", "domain", "n_users", "mrr", "hit5", "hit10", "ndcg5",
                  "ndcg10", "mrr_x100", "hit5_x100", "hit10_x100", "ndcg5_x100",
                  "ndcg10_x100"]


def _metrics_csv_rows(part_name: str, report) -> list:
    """One row per domain plus overall; raw and x100 columns."""
    return [[part_name, dom, str(n)] + [_fmt(v) for v in vals]
            + [_fmt(100.0 * v) for v in vals]
            for dom, n, *vals in _report_rows(report)]


def _report_lines(title: str, report) -> list:
    return [title, "  %-8s %8s %10s %10s %10s %10s %10s"
            % ("domain", "users", "MRR", "H@5", "H@10", "N@5", "N@10")] + \
        ["  %-8s %8d %10.4f %10.4f %10.4f %10.4f %10.4f" % tuple(row)
         for row in _report_rows(report)]


# ---------------------------------------------------------------------------
# commands: each takes (args, cfg) and returns the (inputs, outputs) paths
# that main records in the run manifest, together with cfg; a command that
# takes settings from a checkpoint writes them into cfg

def cmd_synth(args, cfg):
    os.makedirs(args.out, exist_ok=True)
    scfg = SyntheticConfig(n_users=cfg["n_users"], n_items_x=cfg["n_items_x"],
                           n_items_y=cfg["n_items_y"],
                           n_shared_interests=cfg["n_shared"],
                           n_specific_interests=cfg["n_specific"],
                           noise_rate=cfg["noise_rate"],
                           seq_len_range=(cfg["seq_min"], cfg["seq_max"]),
                           rng_seed=cfg["seed"])
    events, truth = generate_synthetic(scfg)
    events_path = os.path.join(args.out, "events.tsv")
    truth_path = os.path.join(args.out, "ground_truth.json")
    save_events(events, events_path)
    save_ground_truth(truth, truth_path)
    print("wrote %d events for %d users to %s" % (len(events), cfg["n_users"], args.out))
    return [], [events_path, truth_path]


def cmd_prepare(args, cfg):
    events, row_errors = ingest_log(args.input, fmt=args.format)
    if row_errors:
        print("skipped %d malformed rows (first: line %d: %s)"
              % (len(row_errors), row_errors[0][0], row_errors[0][1]),
              file=sys.stderr)
    split, stats = filter_and_split_with_stats(events, cfg["min_interactions"],
                                               cfg["min_per_domain"], cfg["max_seq_len"])
    os.makedirs(args.out, exist_ok=True)
    save_split(split, args.out)
    stats.update({"n_items_x": split.vocab_x.n_items,
                  "n_items_y": split.vocab_y.n_items,
                  "n_row_errors": len(row_errors)})
    stats_path = os.path.join(args.out, "stats.json")
    with open(stats_path, "w") as fh:
        json.dump(stats, fh, indent=1, sort_keys=True)
    outputs = [os.path.join(args.out, p) for p in
               ("vocab.json", "train.jsonl", "valid.jsonl", "test.jsonl")]
    print("survival:")
    for key in sorted(stats):
        print("  %-28s %d" % (key, stats[key]))
    return [args.input], outputs + [stats_path]


def cmd_train(args, cfg):
    split = load_split(args.data)
    os.makedirs(args.out, exist_ok=True)
    if args.resume:
        state = load_checkpoint(os.path.join(args.out, "latest"))
        fixed = _checkpoint_settings(state)
        for key, value in _given_settings(args).items():
            if key in fixed and value != fixed[key]:
                raise ValueError("--resume: %s=%r was given, but the checkpoint has %s=%r"
                                 % (key, value, key, fixed[key]))
        if args.variant not in (None, state.variant_name):
            raise ValueError("--resume: variant %r was given, but the checkpoint has %r"
                             % (args.variant, state.variant_name))
        cfg.update(fixed)
    else:
        model_cfg = _model_cfg(cfg, split.vocab_x.size, split.vocab_y.size)
        state = init_state(model_cfg, _train_cfg(cfg), _schedule(cfg),
                           variant=args.variant or "full")
    fit(state, split, out_dir=args.out, eval_every=cfg["eval_every"],
        checkpoint_every=cfg["checkpoint_every"], eval_negatives=cfg["n_negatives"],
        eval_seed=cfg["eval_seed"], eval_steps=cfg["n_steps"], verbose=True)
    hist_path = os.path.join(args.out, "history.csv")
    _write_csv(hist_path, ["epoch", "stage", *LOSS_TERMS, "val_ndcg10"],
               [[str(rec["epoch"]), rec["stage"]] + [_fmt(rec[k]) for k in LOSS_TERMS]
                + [_fmt(rec["val_ndcg10"]) if "val_ndcg10" in rec else ""]
                for rec in state.history])
    return ([os.path.join(args.data, "vocab.json")],
            [hist_path, os.path.join(args.out, "latest", "params.bin")])


# Eval-like commands score a trained checkpoint. Each entry below takes
# (args, split, model, n_steps, kw), where model is the positional model
# arguments of evaluation.evaluate and kw its shared keyword arguments, and
# returns the CSV header, the CSV rows and the lines to print.

def _eval_part(args, split, model, n_steps, kw):
    part = split.test if args.part == "test" else split.validation
    report = evaluate(part, *model, n_steps=n_steps, **kw)
    title = ("%s metrics (%d negatives, %d steps):"
             % (args.part, kw["n_negatives"], report.fingerprint["n_steps"]))
    return (METRICS_HEADER, _metrics_csv_rows(args.part, report),
            _report_lines(title, report))


def _robust(args, split, model, n_steps, kw):
    rates = [float(r) for r in args.rates.split(",")]
    rows = noise_robustness(split.test, *model, rates, n_steps=n_steps, **kw)
    return (["noise_rate", "ndcg10", "ndcg10_x100", "retained"],
            [[_fmt(r["noise_rate"]), _fmt(r["ndcg10"]), _fmt(100 * r["ndcg10"]),
              _fmt(r["retained"])] for r in rows],
            ["noise_rate  ndcg@10  retained"]
            + ["  %8.2f  %7.4f  %8.4f" % (r["noise_rate"], r["ndcg10"], r["retained"])
               for r in rows])


def _sweep(args, split, model, n_steps, kw):
    counts = [int(s) for s in args.steps.split(",")]
    rows = step_sweep(split.test, *model, counts, **kw)
    return (["n_steps", "ndcg10", "ndcg10_x100"],
            [[str(r["n_steps"]), _fmt(r["ndcg10"]), _fmt(100 * r["ndcg10"])]
             for r in rows],
            ["n_steps  ndcg@10"]
            + ["  %5d  %7.4f" % (r["n_steps"], r["ndcg10"]) for r in rows])


# command -> (report file, run)
EVAL_COMMANDS = {
    "eval": ("metrics.csv", _eval_part),
    "robust": ("robustness.csv", _robust),
    "sweep": ("sweep.csv", _sweep),
}


def cmd_eval_like(args, cfg):
    split = load_split(args.data)
    state = load_checkpoint(args.checkpoint)
    if args.use_best:
        if state.best_params is None:
            raise ValueError("checkpoint has no best-parameter snapshot")
        state.params.from_vector(state.best_params)
    n_neg = cfg["n_negatives"]
    if n_neg is None:
        n_neg = auto_negatives(split)
    report_name, run = EVAL_COMMANDS[args.command]
    model = (state.params, state.model_cfg, state.sched, state.variant_name,
             split.vocab_x, split.vocab_y)
    kw = dict(seed=cfg["eval_seed"], n_negatives=n_neg,
              batch_size=cfg["eval_batch_size"], trained_steps=state.global_step)
    header, rows, lines = run(args, split, model, cfg["n_steps"], kw)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, report_name)
    _write_csv(path, header, rows)
    print("\n".join(lines))
    return [os.path.join(args.checkpoint, "params.bin")], [path]


def cmd_ablate(args, cfg):
    split = load_split(args.data)
    variants = (list(VARIANTS) if args.variants == "all"
                else [v.strip() for v in args.variants.split(",")])
    for v in variants:
        if v not in VARIANTS:
            raise ValueError("unknown variant %r (known: %s)" % (v, sorted(VARIANTS)))
    seeds = [int(s) for s in args.seeds.split(",")]
    model_cfg = _model_cfg(cfg, split.vocab_x.size, split.vocab_y.size)
    rows = ablation_study(split, variants, model_cfg, _train_cfg(cfg),
                          _schedule(cfg), seeds=seeds, eval_seed=cfg["eval_seed"],
                          n_negatives=cfg["n_negatives"], eval_steps=cfg["n_steps"])
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "ablation.csv")
    _write_csv(path, ["variant", "n_seeds", "ndcg10_mean", "ndcg10_mean_x100", "per_seed"],
               [[row["variant"], str(len(seeds)), _fmt(row["ndcg10_mean"]),
                 _fmt(100 * row["ndcg10_mean"]),
                 ";".join(_fmt(v) for v in row["per_seed"])] for row in rows])
    print("variant          ndcg@10 (mean over %d seeds)" % len(seeds))
    for row in rows:
        print("  %-14s %8.4f" % (row["variant"], row["ndcg10_mean"]))
    return [os.path.join(args.data, "vocab.json")], [path]


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value settings file")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one setting (repeatable)")
    common.add_argument("--seed", type=int, help="root RNG seed")

    p = argparse.ArgumentParser(prog="crossdiff",
                                description="cross-domain recommendation via "
                                            "guided diffusion")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("synth", parents=[common],
                        help="generate a synthetic two-domain interaction log")
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_synth)

    pp = sub.add_parser("prepare", parents=[common],
                        help="ingest, filter, and split an interaction log")
    pp.add_argument("--input", required=True)
    pp.add_argument("--format", choices=("tsv", "csv"), default="tsv")
    pp.add_argument("--out", required=True)
    pp.add_argument("--min-interactions", type=int, default=None,
                    help="drop users with fewer total interactions")
    pp.add_argument("--min-per-domain", type=int, default=None,
                    help="drop users below this count in either domain")
    pp.add_argument("--max-seq-len", type=int, default=None,
                    help="keep only the most recent items per user")
    pp.set_defaults(func=cmd_prepare)

    pt = sub.add_parser("train", parents=[common], help="train a model")
    pt.add_argument("--data", required=True, help="prepared split directory")
    pt.add_argument("--out", required=True, help="run directory for checkpoints")
    pt.add_argument("--variant", choices=sorted(VARIANTS),
                    help="model variant (default: full; --resume: the checkpoint's)")
    pt.add_argument("--resume", action="store_true",
                    help="continue from <out>/latest")
    pt.set_defaults(func=cmd_train)

    def eval_like(name, help_text):
        q = sub.add_parser(name, parents=[common], help=help_text)
        q.add_argument("--checkpoint", required=True)
        q.add_argument("--data", required=True)
        q.add_argument("--out", required=True)
        q.add_argument("--use-best", action="store_true",
                       help="evaluate the best-validation snapshot")
        return q

    pe = eval_like("eval", "ranking metrics on a held-out part")
    pe.add_argument("--part", choices=("test", "valid"), default="test")
    pe.set_defaults(func=cmd_eval_like)

    pr = eval_like("robust", "metric decay under history corruption")
    pr.add_argument("--rates", default="0,0.1,0.2,0.3")
    pr.set_defaults(func=cmd_eval_like)

    pw = eval_like("sweep", "metrics versus reverse-chain length")
    pw.add_argument("--steps", default="1,2,5,10,25,50")
    pw.set_defaults(func=cmd_eval_like)

    pa = sub.add_parser("ablate", parents=[common],
                        help="train and evaluate model variants")
    pa.add_argument("--data", required=True)
    pa.add_argument("--out", required=True)
    pa.add_argument("--variants", default="all")
    pa.add_argument("--seeds", default="0,1,2")
    pa.set_defaults(func=cmd_ablate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        started = _now()
        inputs, outputs = args.func(args, cfg)
        _write_manifest(args.out, args.command, cfg, inputs, outputs, started)
    except (ValueError, OSError, RuntimeError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
