"""The benchmark's tracer still finds every span it reports on a small pipeline.

perfbench/tracer.py rebinds crossdiff functions by name and wraps each
primitive's backward closure. A renamed function or a primitive that is no
longer called would otherwise surface only in a traced benchmark run.
"""

import importlib.util
import os

from crossdiff import data, diffusion, evaluation, network, trainer

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_reported_span_is_recorded(tmp_path):
    tracer = load_tracer()
    rec = tracer.Tracer()
    with rec.install():
        events, _ = data.generate_synthetic(data.SyntheticConfig(
            n_users=16, n_items_x=24, n_items_y=24, rng_seed=1))
        split = data.filter_and_split(events)
        cfg = network.ModelConfig(d=8, n_heads=2, enc_layers=1, dec_layers=1, T=4,
                                  vocab_x_size=split.vocab_x.size,
                                  vocab_y_size=split.vocab_y.size)
        state = trainer.init_state(cfg, trainer.TrainConfig(batch_size=64, epochs=1,
                                                            warmup_epochs=0),
                                   diffusion.build_schedule(4))
        trainer.fit(state, split, eval_every=0, eval_negatives=5)
        trainer.save_checkpoint(str(tmp_path / "ckpt"), state)
        state = trainer.load_checkpoint(str(tmp_path / "ckpt"))
        evaluation.evaluate(split.test, state.params, cfg, state.sched, "full",
                            split.vocab_x, split.vocab_y, n_negatives=5)
    _, calls = rec.self_times()
    recorded = {name for _, name in calls}
    missing = sorted(set(tracer.SELF_TIME_METRICS.values()) - recorded)
    assert missing == []
