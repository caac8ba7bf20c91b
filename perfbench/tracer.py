"""Spans around calls into crossdiff, recorded from outside the package.

`Tracer.install()` rebinds each traced function in every crossdiff module that
imported it (the modules use `from .x import name`, so patching the defining
module alone would miss most calls), wraps the backward closure each autograd
primitive attaches to its output, and restores every binding on exit. Spans
stay in memory as [name, phase, start_ns, end_ns, parent] and are written out
once the run ends. A layer's self time is its spans' duration minus the part
covered by their child spans.
"""

from __future__ import annotations

import contextlib
import gzip
import sys
import time
from collections import defaultdict

import numpy as np

from crossdiff import (autograd, data, diffusion, evaluation, network, objectives,
                       trainer)

AUTOGRAD_OPS = ("matmul", "add", "mul", "div", "exp", "log", "sqrt", "gelu", "sum_",
                "reshape", "swapaxes", "concat", "slice_rows", "gather_rows",
                "gather_concat", "take_rows", "take_last_axis", "masked_softmax",
                "layer_norm")

# (module, function name, span name) for plain function spans
FUNCTION_SPANS = (
    (network, "make_train_batch", "network.make_train_batch"),
    (network, "make_eval_batch", "network.make_eval_batch"),
    (network, "embed_sequence", "network.embed"),
    (network, "fuse_guidance", "network.fuse"),
    (network, "guidance_forward", "network.guidance_forward"),
    (network, "training_forward", "network.training_forward"),
    (network, "denoise", "network.denoise"),
    (objectives, "diffusion_loss", "objectives.diffusion_loss"),
    (objectives, "rec_loss", "objectives.rec_loss"),
    (objectives, "tri_view_cl_loss", "objectives.tri_view_cl_loss"),
    (trainer, "train_step", "trainer.train_step"),
    (trainer, "save_checkpoint", "trainer.save_checkpoint"),
    (trainer, "load_checkpoint", "trainer.load_checkpoint"),
    (data, "augment", "data.augment"),
    (data, "generate_synthetic", "data.generate_synthetic"),
    (data, "filter_and_split", "data.filter_and_split"),
    (diffusion, "reverse_step", "diffusion.reverse_step"),
    (evaluation, "evaluate", "evaluation.evaluate"),
    (evaluation, "sample_batch", "evaluation.sample_batch"),
    (evaluation, "score_items", "evaluation.score_items"),
    (evaluation, "sample_negatives", "evaluation.sample_negatives"),
)

# per-layer metric -> span whose self time it reports
SELF_TIME_METRICS = {
    **{"autograd.%s.%s_ms" % (op, d): "autograd.%s.%s" % (op, d)
       for op in AUTOGRAD_OPS for d in ("fwd", "bwd")},
    "autograd.graph_ms": "autograd.backward",
    "network.make_train_batch_ms": "network.make_train_batch",
    "network.make_eval_batch_ms": "network.make_eval_batch",
    "network.embed_ms": "network.embed",
    "network.enc_x_ms": "network.enc_x",
    "network.enc_y_ms": "network.enc_y",
    "network.enc_c_ms": "network.enc_c",
    "network.fuse_ms": "network.fuse",
    "network.guidance_forward_ms": "network.guidance_forward",
    "network.training_forward_ms": "network.training_forward",
    "network.denoise_ms": "network.denoise",
    "objectives.diffusion_loss_ms": "objectives.diffusion_loss",
    "objectives.rec_loss_ms": "objectives.rec_loss",
    "objectives.tri_view_cl_loss_ms": "objectives.tri_view_cl_loss",
    "trainer.adam_ms": "trainer.adam",
    "trainer.save_checkpoint_ms": "trainer.save_checkpoint",
    "trainer.load_checkpoint_ms": "trainer.load_checkpoint",
    "data.augment_ms": "data.augment",
    "data.generate_synthetic_ms": "data.generate_synthetic",
    "data.filter_and_split_ms": "data.filter_and_split",
    "diffusion.reverse_step_ms": "diffusion.reverse_step",
    "evaluation.sample_batch_self_ms": "evaluation.sample_batch",
    "evaluation.score_items_ms": "evaluation.score_items",
    "evaluation.sample_negatives_ms": "evaluation.sample_negatives",
    "evaluation.rank_ms": "evaluation.rank",
}


def per_layer_units() -> dict:
    units = {name: "ms" for name in SELF_TIME_METRICS}
    units.update({"autograd.calls": "count", "evaluation.tied_scores": "count",
                  "trainer.checkpoint_bytes": "bytes"})
    return units


class Tracer:
    """In-memory span recorder. `phase` labels the spans of each part of a run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.phase = "setup"
        self.counts: dict = defaultdict(int)      # (phase, name) -> total

    def timed(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [name, self.phase, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
        return wrapper

    def _timed_op(self, op: str, fn):
        return self.timed("autograd.%s.fwd" % op,
                          lambda *a, **k: self._wrap_bwd(op, fn(*a, **k)))

    def _wrap_bwd(self, op: str, out):
        if out._backward is not None:
            out._backward = self.timed("autograd.%s.bwd" % op, out._backward)
        return out

    def _encode_domain(self, fn):
        named = {bank: self.timed("network." + bank, fn) for bank in ("enc_x", "enc_y", "enc_c")}

        def wrapper(params, cfg, bank, *args, **kwargs):
            return named[bank](params, cfg, bank, *args, **kwargs)
        return wrapper

    def _rank(self, fn):
        timed = self.timed("evaluation.rank", fn)

        def wrapper(scores):
            s = np.asarray(scores)
            self.counts[(self.phase, "evaluation.tied_scores")] += int(np.sum(s[1:] == s[0]))
            return timed(scores)
        return wrapper

    @contextlib.contextmanager
    def install(self):
        """Trace every layer inside the block; all bindings are restored after."""
        undo = []

        def rebind(original, replacement):
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "crossdiff":
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, attr, replacement)
                        undo.append((mod, attr, original))

        def replace_method(cls, attr, span):
            original = cls.__dict__[attr]
            setattr(cls, attr, self.timed(span, original))
            undo.append((cls, attr, original))

        try:
            for op in AUTOGRAD_OPS:
                fn = getattr(autograd, op)
                rebind(fn, self._timed_op(op, fn))
            for mod, attr, span in FUNCTION_SPANS:
                fn = getattr(mod, attr)
                rebind(fn, self.timed(span, fn))
            rebind(network.encode_domain, self._encode_domain(network.encode_domain))
            rebind(evaluation.rank_of_positive, self._rank(evaluation.rank_of_positive))
            replace_method(autograd.Tensor, "backward", "autograd.backward")
            replace_method(trainer.Adam, "step", "trainer.adam")
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def extend(self, spans: list) -> None:
        """Append spans recorded by another process (parent indices are per list)."""
        off = len(self.spans)
        self.spans.extend([name, phase, start, end, parent + off if parent >= 0 else -1]
                          for name, phase, start, end, parent in spans)

    def self_times(self) -> tuple[dict, dict]:
        """(phase, span) -> summed self time in ns, and -> number of spans."""
        child = [0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict = defaultdict(int)
        calls: dict = defaultdict(int)
        for i, (name, phase, start, end, _) in enumerate(self.spans):
            total[(phase, name)] += end - start - child[i]
            calls[(phase, name)] += 1
        return total, calls

    def per_layer(self, phase_order, units: dict, checkpoint_bytes: int) -> dict:
        """Per-layer metrics, each per unit of the first phase in phase_order that ran it.

        units maps a phase to how many operations it holds (timed steps, evaluate
        passes, set-ups). A layer that the workload's timed phase never calls
        (the sampler on a training workload, backward on the evaluation one) is
        reported from the next phase in phase_order that does call it.
        """
        total, calls = self.self_times()
        present = defaultdict(set)
        for phase, name in calls:
            present[name].add(phase)

        def first_phase(name):
            for phase in phase_order:
                if phase in present[name]:
                    return phase
            raise KeyError("no span named %s was recorded" % name)

        out = {}
        for metric, span in SELF_TIME_METRICS.items():
            phase = first_phase(span)
            out[metric] = total[(phase, span)] / 1e6 / units[phase]
        fwd = ["autograd.%s.fwd" % op for op in AUTOGRAD_OPS]
        phase = next(p for p in phase_order if any(p in present[n] for n in fwd))
        out["autograd.calls"] = sum(calls[(phase, n)] for n in fwd) / units[phase]
        phase = next(p for p in phase_order
                     if (p, "evaluation.rank") in calls)
        out["evaluation.tied_scores"] = (self.counts[(phase, "evaluation.tied_scores")]
                                         / units[phase])
        out["trainer.checkpoint_bytes"] = checkpoint_bytes
        return out

    def write(self, path: str) -> None:
        """Gzipped TSV of every span: name, phase, start_ns, end_ns, parent index."""
        t0 = min((rec[2] for rec in self.spans), default=0)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tphase\tstart_ns\tend_ns\tparent\n")
            for name, phase, start, end, parent in self.spans:
                fh.write("%s\t%s\t%d\t%d\t%d\n" % (name, phase, start - t0, end - t0, parent))
