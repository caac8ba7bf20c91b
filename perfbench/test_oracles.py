"""Tests of the benchmark's own oracles and wiring: python3 -m pytest perfbench -q"""

import json
import math
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from crossdiff import data, diffusion, evaluation, network, trainer  # noqa: E402


def test_random_ndcg_matches_enumeration_and_simulation():
    for k in (5, 9, 50, 934):
        # every rank 1..k+1 equally likely: the exact mean by enumeration
        exact = evaluation.compute_metrics(range(1, k + 2)).ndcg[10]
        assert abs(oracles.random_ndcg(k)[0] - exact) < 1e-12

    k, n_users = 50, 20000
    ranks = [evaluation.rank_of_positive(np.random.default_rng([5, u]).standard_normal(k + 1))
             for u in range(n_users)]
    simulated = evaluation.compute_metrics(ranks).ndcg[10]
    mean, sd = oracles.random_ndcg(k)
    assert abs(simulated - mean) <= 4 * sd / math.sqrt(n_users)
    assert abs(oracles.ndcg_margin_z(mean, k, n_users)) < 1e-12


def _tiny_model():
    events, _ = data.generate_synthetic(data.SyntheticConfig(n_users=24, n_items_x=30,
                                                             n_items_y=30, rng_seed=4))
    split = data.filter_and_split(events)
    cfg = network.ModelConfig(d=8, n_heads=2, enc_layers=1, dec_layers=1, T=5,
                              vocab_x_size=split.vocab_x.size,
                              vocab_y_size=split.vocab_y.size)
    params = network.init_parameters(cfg, rng_seed=3)
    sched = diffusion.build_schedule(cfg.T)
    probe = oracles.probe_batch(split, cfg)
    return params, (lambda p: oracles.probe_loss(p, cfg, sched, probe))


def test_probe_batch_is_fixed():
    params, loss_fn = _tiny_model()
    _, again = _tiny_model()
    assert float(loss_fn(params).data) == float(again(params).data)


def test_grad_check_passes_and_fails_when_a_block_is_halved():
    params, loss_fn = _tiny_model()
    before = params.to_vector().tobytes()
    _, grads = oracles.analytic_grads(params, loss_fn)
    u = oracles.unit_direction(params)
    fd = oracles.fd_directional(params, loss_fn, u)
    assert params.to_vector().tobytes() == before
    assert oracles.directional_error(params, grads, u, fd) <= oracles.GRAD_CHECK_TOL

    # halving a block moves grads . u by half that block's share of it; every
    # block whose share is above four times the tolerance must then fail the check
    g_dot_u = sum(float(grads[n].ravel() @ part) for n, part in _blocks(params, u))
    failing = 0
    for name, part in _blocks(params, u):
        share = abs(float(grads[name].ravel() @ part) / g_dot_u)
        if share <= 4 * oracles.GRAD_CHECK_TOL:
            continue
        bad = dict(grads)
        bad[name] = grads[name] * 0.5
        assert oracles.directional_error(params, bad, u, fd) > oracles.GRAD_CHECK_TOL, name
        failing += 1
    assert failing >= len(grads) // 2


def _blocks(params, u):
    off = 0
    for name in params.names():
        n = params[name].data.size
        yield name, u[off:off + n]
        off += n


def test_checkpoint_roundtrip_is_bit_identical(tmp_path):
    events, _ = data.generate_synthetic(data.SyntheticConfig(n_users=12, rng_seed=1))
    split = data.filter_and_split(events)
    cfg = network.ModelConfig(d=8, n_heads=2, enc_layers=1, dec_layers=1, T=5,
                              vocab_x_size=split.vocab_x.size,
                              vocab_y_size=split.vocab_y.size)
    state = trainer.init_state(cfg, trainer.TrainConfig(batch_size=16, epochs=1,
                                                        warmup_epochs=0),
                               diffusion.build_schedule(5))
    trainer.fit(state, split, eval_every=0)
    same, n_bytes = oracles.checkpoint_roundtrip(state, str(tmp_path / "ckpt"))
    assert same and n_bytes > 8 * state.params.n_params
    assert not (tmp_path / "ckpt").exists()


def test_tracer_restores_every_binding():
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "crossdiff"]
    before = [dict(vars(m)) for m in modules]
    matmul, backward, adam_step = network.matmul, network.Tensor.backward, trainer.Adam.step
    with tracer.Tracer().install():
        assert network.matmul is not matmul and trainer.Adam.step is not adam_step
    for m, was in zip(modules, before):
        assert all(vars(m)[k] is v for k, v in was.items())
    assert network.Tensor.backward is backward and trainer.Adam.step is adam_step


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.per_layer_units()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
