"""Shared fixtures and helpers for the test suite."""

import json

import numpy as np
import pytest

from crossdiff.data import (DOMAIN_X, DOMAIN_Y, SyntheticConfig, Vocab,
                            filter_and_split, generate_synthetic)
from crossdiff.diffusion import build_schedule
from crossdiff.network import ModelConfig, TrainingExample, make_train_batch


def make_split(n_users=12, n_items=40, noise=0.1, seed=7, n_shared=3, n_specific=1):
    """Small filtered split backed by the synthetic generator."""
    events, truth = generate_synthetic(SyntheticConfig(
        n_users=n_users, n_items_x=n_items, n_items_y=n_items,
        n_shared_interests=n_shared, n_specific_interests=n_specific,
        noise_rate=noise, seq_len_range=(10, 15), rng_seed=seed))
    return filter_and_split(events), truth


def tiny_model_cfg(split, d=8, n_heads=2, enc_layers=1, dec_layers=1, T=6):
    return ModelConfig(d=d, n_heads=n_heads, enc_layers=enc_layers,
                       dec_layers=dec_layers, max_seq_len=15, T=T,
                       vocab_x_size=split.vocab_x.size,
                       vocab_y_size=split.vocab_y.size)


def grad_fixture():
    """Four training examples over five items per domain, with augmented views;
    small enough for a finite-difference check of every parameter."""
    vx = Vocab(DOMAIN_X, 0, ["a", "b", "c", "d", "e"])
    vy = Vocab(DOMAIN_Y, vx.size, ["p", "q", "r", "s", "u"])
    cfg = ModelConfig(d=4, n_heads=2, enc_layers=1, dec_layers=1, max_seq_len=3,
                      T=5, vocab_x_size=vx.size, vocab_y_size=vy.size)
    X = [vx.index_of(s) for s in "abcde"]
    Y = [vy.index_of(s) for s in "pqrsu"]
    examples = [
        TrainingExample(0, ((X[0], "x"), (Y[0], "y"), (X[1], "x")),
                        (Y[1], "y"), (X[2], "x")),
        TrainingExample(1, ((Y[2], "y"), (X[2], "x")), (X[3], "x"), (Y[3], "y")),
        TrainingExample(2, ((X[4], "x"),), (Y[4], "y"), None),
        TrainingExample(3, ((Y[4], "y"), (X[3], "x"), (Y[3], "y")),
                        (X[0], "x"), None),
    ]
    aug = [((X[1], "x"), (X[0], "x")), ((Y[2], "y"),),
           ((X[4], "x"), (Y[0], "y"), (X[2], "x")), ((Y[3], "y"), (Y[4], "y"))]
    batch = make_train_batch(examples, vx, vy, augmented=aug)
    return cfg, batch


@pytest.fixture(scope="session")
def small_split():
    split, _ = make_split()
    return split


@pytest.fixture(scope="session")
def small_sched():
    return build_schedule(6)


def edit_json_line(path, line_no, edit):
    """Replace JSON line line_no (1-based) of path by edit(record)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines[line_no - 1] = json.dumps(edit(json.loads(lines[line_no - 1])))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def rel_err(a, b):
    a, b = float(a), float(b)
    scale = max(abs(a), abs(b))
    if scale < 1e-8:
        return abs(a - b)
    return abs(a - b) / scale


@pytest.fixture(name="rel_err", scope="session")
def rel_err_fixture():
    return rel_err


def assert_allclose(a, b, tol, msg=""):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    err = np.max(np.abs(a - b)) if a.size else 0.0
    assert err <= tol, "%smax abs err %.3e > %.3e" % (msg and msg + ": ", err, tol)
