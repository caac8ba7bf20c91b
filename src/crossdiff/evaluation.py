"""Ranking evaluation.

Protocol: for each held-out user the guided sampler reconstructs a target
vector, the logits of the true next item and k sampled negatives are
compared, and the 1-based rank of the true item (pessimistic under ties)
feeds hit rate, NDCG, and reciprocal-rank metrics per domain. Robustness,
step-count sweeps, and the ablation grid reuse the same pipeline.

On a machine with two usable CPUs, `evaluate` forks one child per call.
Both processes build every batch; the caller ranks the first half of each
and the child the second, neither waiting for the other, and the child sends
all its ranks back in one message. A user's bits do not depend on who shares
the batch, so every report is the one a single process gives.
"""

from __future__ import annotations

import contextlib
import multiprocessing
from dataclasses import dataclass, replace

import numpy as np

from .autograd import Tensor, no_grad
from .data import (DOMAIN_X, DOMAIN_Y, DOMAINS, AugmentationSpec, DatasetSplit,
                   N_RESERVED, Vocab, augment)
from .diffusion import DiffusionSchedule, reverse_step, strided_steps
from .network import (VARIANTS, ModelConfig, ParameterSet, check_seq_lens,
                      check_vocab_sizes, denoise, guide_memory, guidance_forward,
                      make_eval_batch, pad_batch)
from .trainer import _second_core


@dataclass(frozen=True)
class MetricValues:
    mrr: float
    hit: dict
    ndcg: dict
    n_users: int


@dataclass(frozen=True)
class MetricReport:
    per_domain: dict
    n_users: int
    fingerprint: dict


def rank_of_positive(scores: np.ndarray) -> int:
    """1-based rank of scores[0] among all entries, ties resolved pessimistically."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size < 1:
        raise ValueError("empty candidate list")
    if not np.all(np.isfinite(scores)):
        raise ValueError("non-finite candidate scores")
    return int(1 + np.sum(scores[1:] >= scores[0]))


def compute_metrics(ranks) -> MetricValues:
    """Aggregate 1-based ranks into hit rate and NDCG at 5 and 10, and MRR@10."""
    ranks = np.asarray(list(ranks), dtype=np.int64)
    if ranks.size == 0:
        raise ValueError("no ranks to aggregate")
    if np.any(ranks < 1):
        raise ValueError("ranks must be 1-based")
    hit = {k: float(np.mean(ranks <= k)) for k in (5, 10)}
    ndcg = {k: float(np.mean(np.where(ranks <= k, 1.0 / np.log2(ranks + 1.0), 0.0)))
            for k in (5, 10)}
    mrr = float(np.mean(np.where(ranks <= 10, 1.0 / ranks, 0.0)))
    return MetricValues(mrr=mrr, hit=hit, ndcg=ndcg, n_users=int(ranks.size))


def overall_ndcg(report: MetricReport, k: int = 10) -> float:
    """User-weighted NDCG@k across domains."""
    num = den = 0.0
    for mv in report.per_domain.values():
        num += mv.ndcg[k] * mv.n_users
        den += mv.n_users
    if den == 0:
        raise ValueError("report contains no users")
    return num / den


def sample_negatives(rng: np.random.Generator, vocab: Vocab, exclude,
                     k: int) -> np.ndarray:
    """k distinct real items of the domain outside the excluded set."""
    real = vocab.real_indices()   # one contiguous range
    local = np.fromiter(exclude, dtype=np.int64) - (vocab.base + N_RESERVED)
    keep = np.ones(real.size, dtype=bool)
    keep[local[(local >= 0) & (local < real.size)]] = False
    cand = real[keep]
    if cand.size < k:
        raise ValueError("domain %s has %d eligible negatives, need %d"
                         % (vocab.domain, cand.size, k))
    return rng.choice(cand, size=k, replace=False)


def check_negatives(n_negatives: int) -> None:
    """Reject negative counts below one, which would rank every user first."""
    if n_negatives < 1:
        raise ValueError("n_negatives must be >= 1, got %d" % n_negatives)


AUTO_NEGATIVES_CAP = 999


def auto_negatives(split: DatasetSplit) -> int:
    """Largest negative count every held-out user can support, capped at AUTO_NEGATIVES_CAP."""
    worst = None
    for part in (split.validation, split.test):
        for seq, (tg, td) in part:
            vocab = split.vocab_of(td)
            used = {g for g in seq.indices if vocab.contains(g)}
            used.add(tg)
            avail = vocab.n_items - len(used)
            worst = avail if worst is None else min(worst, avail)
    if worst is None:
        raise ValueError("split has no held-out users")
    return max(1, min(AUTO_NEGATIVES_CAP, worst))


def score_items(x0_hat: np.ndarray, g_hat: np.ndarray | None,
                emb: np.ndarray) -> np.ndarray:
    """Logits over one domain's full table; reserved rows get -inf.

    Ranks come from the logits themselves: a softmax keeps their order but
    can underflow distinct logits into false ties.
    """
    vec = x0_hat if g_hat is None else x0_hat + g_hat
    logits = emb @ vec
    logits[:N_RESERVED] = -np.inf
    return logits


def sample_batch(params: ParameterSet, cfg: ModelConfig, sched: DiffusionSchedule,
                 guide, guide_valid: np.ndarray, user_indices, seed: int,
                 n_steps: int) -> np.ndarray:
    """Guided reverse chains for a batch of users, one RNG stream per user.

    Each user's stream yields one (n steps, d) block: row 0 starts the
    chain and row i is the noise of the transition into step i. It equals
    the same draws made one row at a time, and results do not depend on
    batch composition. The guide's decoder keys and values are projected
    once, before the chain. The sample is the last step's denoised vector,
    and a non-finite one raises ValueError.
    """
    B, d = len(user_indices), cfg.d
    steps = strided_steps(sched.T, n_steps)
    draws = np.stack([np.random.default_rng([seed, 0, int(u)]).standard_normal((len(steps), d))
                      for u in user_indices], axis=1)
    x = draws[0]
    with no_grad():
        memory = guide_memory(params, cfg, guide, guide_valid)
        for i, t in enumerate(steps):
            if i:
                x = reverse_step(x, steps[i - 1], x0_hat, sched, draws[i], t_prev=t)
            x0_hat = denoise(params, cfg, Tensor(x), np.full(B, t, dtype=np.int64),
                             memory).data
    if not np.all(np.isfinite(x0_hat)):
        raise ValueError("non-finite sample at the end of the reverse chain")
    return x0_hat


def _rows(batch, rows: slice):
    """The evaluation batch's rows in the slice."""
    return replace(batch, user_index=batch.user_index[rows], idx=batch.idx[rows],
                   valid=batch.valid[rows])


@contextlib.contextmanager
def _forked(fn):
    """Fork one child that runs fn() while the block runs, and yield take(),
    which returns fn()'s result or raises the exception fn() raised.

    A child that exits without sending is a RuntimeError naming its exit
    code. If the block raises, the child is killed, not waited for; either
    way it is joined before the block is left. It is forked, not spawned,
    because fn needs the caller's memory and a spawned child would spend
    longer starting than an evaluation pass takes. `evaluate`'s fn runs
    forward numpy code only, never the worker thread that training's
    forward, backward and Adam share.
    """
    fork = multiprocessing.get_context("fork")
    ours, theirs = fork.Pipe(duplex=False)

    def child():
        try:
            reply = (fn(), None)
        except Exception as exc:   # the caller raises it
            reply = (None, exc)
        theirs.send(reply)

    proc = fork.Process(target=child, daemon=True)
    proc.start()
    theirs.close()

    def take():
        try:
            result, exc = ours.recv()
        except EOFError:
            proc.join()
            raise RuntimeError("the evaluation worker exited with code %s"
                               % proc.exitcode) from None
        if exc is not None:
            raise exc
        return result

    try:
        yield take
    except BaseException:
        proc.kill()
        raise
    finally:
        ours.close()
        proc.join()


def evaluate(part, params: ParameterSet, model_cfg: ModelConfig,
             sched: DiffusionSchedule, variant_name: str, vocab_x: Vocab,
             vocab_y: Vocab, *, seed: int = 0, n_steps: int | None = None,
             n_negatives: int = 999, batch_size: int = 64,
             trained_steps: int | None = None,
             exclude_seqs=None) -> MetricReport:
    """Negative-sampled ranking metrics over (sequence, target) pairs.

    Negatives exclude the positive and the user's history. exclude_seqs, when
    given, supplies the history for exclusion instead of the scored sequences
    themselves; the robustness sweep uses it to keep candidate sets identical
    across corruption rates.
    """
    if not part:
        raise ValueError("nothing to evaluate")
    if exclude_seqs is not None and len(exclude_seqs) != len(part):
        raise ValueError("exclude_seqs must align with part")
    check_negatives(n_negatives)
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1, got %d" % batch_size)
    check_vocab_sizes(model_cfg, vocab_x, vocab_y)
    check_seq_lens(model_cfg, [s for s, _ in part])
    variant = VARIANTS[variant_name]
    steps = sched.T if n_steps is None else n_steps
    strided_steps(sched.T, steps)

    def rank(lo, hi, batch):
        """1-based ranks of the users part[lo:hi], whose padded rows batch holds."""
        with no_grad():
            gb = guidance_forward(params, model_cfg, batch, variant)
        x0_hat = sample_batch(params, model_cfg, sched, gb.guide, gb.guide_valid,
                              batch.user_index, seed, steps)
        # domain -> (vocab, embedding table, pooled encodings or None)
        heads = {DOMAIN_X: (vocab_x, params["emb_x"].data, gb.gx_hat),
                 DOMAIN_Y: (vocab_y, params["emb_y"].data, gb.gy_hat)}
        out = []
        for b, (seq, (tg, td)) in enumerate(part[lo:hi]):
            vocab, emb, g = heads[td]
            logits = score_items(x0_hat[b], None if g is None else g.data[b], emb)
            history = (exclude_seqs[lo + b] if exclude_seqs is not None else seq).indices
            rng_neg = np.random.default_rng([seed, 1, int(seq.user_index)])
            negs = sample_negatives(rng_neg, vocab, set(history) | {tg},
                                    n_negatives)
            cand = np.concatenate([[tg], negs]) - vocab.base
            out.append(rank_of_positive(logits[cand]))
        return out

    def walk(rows):
        """The ranks of the rows rows(n), a slice, of each batch of n users,
        one list per batch. Every batch is built whole, whichever rows are
        ranked: perfbench counts the users of each batch the caller builds."""
        out = []
        for lo in range(0, len(part), batch_size):
            chunk = part[lo:lo + batch_size]
            batch = pad_batch(make_eval_batch([s for s, _ in chunk], vocab_x, vocab_y),
                              model_cfg.max_seq_len, vocab_x.pad_index)
            r = rows(len(chunk))
            out.append(rank(lo + r.start, lo + r.stop, _rows(batch, r))
                       if r.start < r.stop else [])
        return out

    # the child ranks the second half of every batch when `_second_core` allows
    # it (two CPUs, one BLAS thread), `fork` exists, a batch can hold two users
    # and the caller is not a daemonic process (which may start no children)
    if (min(batch_size, len(part)) >= 2 and _second_core()
            and "fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon):
        with _forked(lambda: walk(lambda n: slice(n // 2, n))) as take:
            firsts = walk(lambda n: slice(0, n // 2))
            batches = [a + b for a, b in zip(firsts, take())]
    else:
        batches = walk(lambda n: slice(0, n))
    ranks = {d: [] for d in DOMAINS}
    for (_, (_, td)), r in zip(part, (r for rs in batches for r in rs)):
        ranks[td].append(r)
    per_domain = {d: compute_metrics(rs) for d, rs in ranks.items() if rs}
    n_users = sum(mv.n_users for mv in per_domain.values())
    fingerprint = {"seed": seed, "n_steps": steps, "n_negatives": n_negatives,
                   "n_users": n_users, "variant": variant_name,
                   "trained_steps": ("untrained" if trained_steps is None
                                     else trained_steps),
                   "model": {"d": model_cfg.d, "T": model_cfg.T,
                             "enc_layers": model_cfg.enc_layers,
                             "dec_layers": model_cfg.dec_layers},
                   "schedule": sched.spec()}
    return MetricReport(per_domain=per_domain, n_users=n_users,
                        fingerprint=fingerprint)


def noise_robustness(part, params: ParameterSet, model_cfg: ModelConfig,
                     sched: DiffusionSchedule, variant_name: str, vocab_x: Vocab,
                     vocab_y: Vocab, noise_rates, *, seed: int = 0,
                     n_steps: int | None = None, n_negatives: int = 999,
                     batch_size: int = 64, trained_steps: int | None = None):
    """Metric decay under history corruption.

    Each user's held-out sequence is perturbed by inserting or substituting
    same-domain random items at the given rate (op chosen 50/50 per user);
    targets stay clean, and negatives are drawn against the clean history so
    every rate ranks the identical candidate set. Returns one row per rate
    with the report and the NDCG@10 fraction retained relative to the clean
    run.
    """
    noise_rates = list(noise_rates)
    for rate in noise_rates:
        if not (0.0 <= rate < 1.0):
            raise ValueError("noise rate %r outside [0, 1)" % rate)
    kw = dict(seed=seed, n_steps=n_steps, n_negatives=n_negatives,
              batch_size=batch_size, trained_steps=trained_steps,
              exclude_seqs=[s for s, _ in part])
    clean = evaluate(part, params, model_cfg, sched, variant_name,
                     vocab_x, vocab_y, **kw)
    base = overall_ndcg(clean, 10)
    if base <= 0:
        raise ValueError("clean-run NDCG@10 is zero; retained fractions undefined")
    rows = []
    for rate in noise_rates:
        if rate == 0:
            rep = clean
        else:
            pert = []
            for seq, target in part:
                r = np.random.default_rng([seed, 2, int(seq.user_index),
                                           int(round(rate * 1000))])
                op = "insert" if r.random() < 0.5 else "substitute"
                aseq = augment(seq, AugmentationSpec(op, rate, int(r.integers(2 ** 63))),
                               vocab_x, vocab_y, max_seq_len=model_cfg.max_seq_len)
                pert.append((aseq, target))
            rep = evaluate(pert, params, model_cfg, sched, variant_name,
                           vocab_x, vocab_y, **kw)
        nd = overall_ndcg(rep, 10)
        rows.append({"noise_rate": float(rate), "report": rep,
                     "ndcg10": nd, "retained": nd / base})
    return rows


def step_sweep(part, params: ParameterSet, model_cfg: ModelConfig,
               sched: DiffusionSchedule, variant_name: str, vocab_x: Vocab,
               vocab_y: Vocab, step_counts, *, seed: int = 0,
               n_negatives: int = 999, batch_size: int = 64,
               trained_steps: int | None = None):
    """Evaluate under different reverse-chain lengths, everything else fixed."""
    check_negatives(n_negatives)
    step_counts = list(step_counts)
    for n in step_counts:
        strided_steps(sched.T, n)
    rows = []
    for n in step_counts:
        rep = evaluate(part, params, model_cfg, sched, variant_name, vocab_x,
                       vocab_y, seed=seed, n_steps=int(n),
                       n_negatives=n_negatives, batch_size=batch_size,
                       trained_steps=trained_steps)
        rows.append({"n_steps": int(n), "report": rep,
                     "ndcg10": overall_ndcg(rep, 10)})
    return rows


def run_ablation(split: DatasetSplit, variant_name: str, model_cfg: ModelConfig,
                 train_cfg, sched: DiffusionSchedule, *, eval_seed: int = 0,
                 n_negatives: int | None = None, eval_steps: int | None = None) -> dict:
    """Train one variant from scratch and evaluate it on the test part."""
    from .trainer import fit, init_state

    if n_negatives is None:
        n_negatives = auto_negatives(split)
    check_negatives(n_negatives)
    if eval_steps is not None:
        strided_steps(sched.T, eval_steps)
    state = init_state(model_cfg, train_cfg, sched, variant=variant_name)
    fit(state, split, eval_every=0)
    rep = evaluate(split.test, state.params, model_cfg, sched, variant_name,
                   split.vocab_x, split.vocab_y, seed=eval_seed,
                   n_steps=eval_steps, n_negatives=n_negatives,
                   trained_steps=state.global_step)
    return {"variant": variant_name, "seed": train_cfg.seed, "report": rep,
            "ndcg10": overall_ndcg(rep, 10)}


def ablation_study(split: DatasetSplit, variants, model_cfg: ModelConfig,
                   train_cfg, sched: DiffusionSchedule, seeds=(0, 1, 2),
                   **kwargs) -> list[dict]:
    """The full grid: every variant trained with every seed, means reported."""
    rows = []
    for variant in variants:
        runs = [run_ablation(split, variant, model_cfg,
                             replace(train_cfg, seed=seed), sched, **kwargs)
                for seed in seeds]
        rows.append({"variant": variant,
                     "per_seed": [r["ndcg10"] for r in runs],
                     "ndcg10_mean": float(np.mean([r["ndcg10"] for r in runs])),
                     "reports": [r["report"] for r in runs]})
    return rows
