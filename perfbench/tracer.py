"""Per-layer timing of emdet, taken from outside the package.

A Tracer swaps a timing wrapper in for every ``emdet.*`` module attribute bound
to one of the traced public functions.  Rebinding every attribute matters:
``engine`` imports ``select_k``, ``iou_matrix`` and friends by value, so
patching only their home module would miss those calls.  The wrapper keeps a
span stack, so each span knows its parent and its self time (its duration
minus the time covered by traced children).  Spans are aggregated in memory by
(function, parent, outermost span) and the originals are put back on exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

# Public functions timed per layer.  ``oracle`` is audit-only brute force and
# ``cli`` only parses JSON around these same calls, so neither is traced.
TRACED = {
    "data": ("generate", "make_init_scores", "split_semi"),
    "geometry": ("iou_matrix", "nms"),
    "latent": ("select_k", "score_config_set", "expand",
               "exact_log_likelihood_grid", "enumerate_exact"),
    "scorer": ("log_prob_matrix", "weighted_ce_gradient", "sgd_step"),
    "engine": ("run_em", "e_step", "e_step_from_scores", "soft_labels",
               "m_step", "objective"),
    "metrics": ("detect", "evaluate_detections", "corloc"),
}

# Span names that differ from the function name.
ALIASES = {"latent.exact_log_likelihood_grid": "latent.exact_grid"}


def _integer_root(k: int, m: int) -> int:
    """Largest r >= 1 with r ** m <= k: select_k's per-category candidate count."""
    r = 1
    while (r + 1) ** m <= k:
        r += 1
    return r


def _count_select_k(args, out):
    candidates = min(len(args["proposals"]), _integer_root(args["k"], len(out.categories)))
    return {"latent.select_k.kept": len(out),
            "latent.select_k.candidates": candidates ** len(out.categories)}


# Work counts taken at the same boundaries as the spans: (arguments, result) -> increments.
COUNTERS = {
    "latent.select_k": _count_select_k,
    "latent.score_config_set": lambda args, out: {"latent.configs_scored": len(args["config_set"])},
    "latent.exact_grid": lambda args, out: {"latent.exact_grid.entries": int(out.size)},
    "geometry.nms": lambda args, out: {"geometry.nms.in": len(args["dets"]),
                                       "geometry.nms.kept": len(out)},
    "metrics.detect": lambda args, out: {"metrics.detections": len(out)},
}


class Tracer:
    """Context manager that times the traced emdet functions while active."""

    def __init__(self):
        self.absent: list[str] = []
        # (name, parent, root) -> [calls, total seconds, self seconds]
        self.spans: dict[tuple[str, str | None, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, seconds covered by children]
        self._patched: list[tuple[object, str, object]] = []
        self._originals: list[tuple[str, object]] = []
        for layer, names in TRACED.items():
            module = importlib.import_module(f"emdet.{layer}")
            for func in names:
                span = ALIASES.get(f"{layer}.{func}", f"{layer}.{func}")
                original = getattr(module, func, None)
                if original is None:
                    self.absent.append(span)
                else:
                    self._originals.append((span, original))

    def __enter__(self) -> "Tracer":
        wrappers = {id(original): (original, self._wrap(span, original))
                    for span, original in self._originals}
        for module_name, module in list(sys.modules.items()):
            if module_name != "emdet" and not module_name.startswith("emdet."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, span: str, original):
        counter = COUNTERS.get(span)
        signature = inspect.signature(original) if counter else None
        stack, spans, counts = self._stack, self.spans, self.counts
        clock = time.perf_counter

        @functools.wraps(original)
        def timed(*args, **kwargs):
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                key = (span, stack[-1][0] if stack else None, stack[0][0] if stack else span)
                entry = spans[key]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for name, value in counter(bound.arguments, out).items():
                    counts[name] += value
            return out

        return timed

    # -- aggregates ---------------------------------------------------------

    def calls(self, span: str, root: str | None = None) -> int:
        return sum(v[0] for (name, _, r), v in self.spans.items()
                   if name == span and (root is None or r == root))

    def total(self, span: str) -> float:
        return sum(v[1] for (name, _, _), v in self.spans.items() if name == span)

    def self_time(self, span: str) -> float:
        return sum(v[2] for (name, _, _), v in self.spans.items() if name == span)

    def layer_self_time(self, layer: str) -> float:
        return sum(v[2] for (name, _, _), v in self.spans.items()
                   if name.split(".")[0] == layer)

    def table(self) -> list[dict]:
        """One row per traced function: calls, total and self seconds, callers."""
        names = sorted({name for name, _, _ in self.spans})
        rows = []
        for name in names:
            parents = defaultdict(int)
            for (n, parent, _), v in self.spans.items():
                if n == name:
                    parents[parent or "-"] += v[0]
            rows.append({"span": name, "calls": self.calls(name),
                         "total_s": self.total(name), "self_s": self.self_time(name),
                         "parents": dict(parents)})
        return rows


def _ratio(num: float, den: float) -> float:
    """num / den, reported as 0 when nothing was attempted (den is its base)."""
    return num / den if den else 0.0


# Per-layer metric -> (spans it needs, how to compute it from a Tracer).  A
# metric whose span no longer exists in emdet is reported as absent.
LAYER_METRICS = {
    **{f"{layer}.self_s": ((), functools.partial(Tracer.layer_self_time, layer=layer))
       for layer in TRACED},
    "engine.e_step_s": (("engine.e_step",), lambda t: t.total("engine.e_step")),
    "engine.e_step.calls": (("engine.e_step",), lambda t: t.calls("engine.e_step")),
    "engine.e_step_from_scores_s": (("engine.e_step_from_scores",),
                                    lambda t: t.total("engine.e_step_from_scores")),
    "engine.soft_labels_s": (("engine.soft_labels",), lambda t: t.total("engine.soft_labels")),
    "engine.m_step_s": (("engine.m_step",), lambda t: t.total("engine.m_step")),
    "engine.m_step.self_s": (("engine.m_step",), lambda t: t.self_time("engine.m_step")),
    "engine.m_step_s_per_1k_steps": (
        ("engine.m_step", "scorer.sgd_step"),
        lambda t: _ratio(t.total("engine.m_step"), t.calls("scorer.sgd_step") / 1000)),
    "engine.objective.calls": (("engine.objective",), lambda t: t.calls("engine.objective")),
    "latent.select_k.calls": (("latent.select_k",), lambda t: t.calls("latent.select_k")),
    "latent.select_k.keep_ratio": (
        ("latent.select_k",),
        lambda t: _ratio(t.counts["latent.select_k.kept"], t.counts["latent.select_k.candidates"])),
    "latent.configs_scored": (("latent.score_config_set",),
                              lambda t: t.counts["latent.configs_scored"]),
    "latent.expand.calls": (("latent.expand",), lambda t: t.calls("latent.expand")),
    "latent.exact_grid.calls": (("latent.exact_grid",), lambda t: t.calls("latent.exact_grid")),
    "latent.exact_grid.entries": (("latent.exact_grid",),
                                  lambda t: t.counts["latent.exact_grid.entries"]),
    "latent.enumerate_exact.calls": (("latent.enumerate_exact",),
                                     lambda t: t.calls("latent.enumerate_exact")),
    "geometry.iou_matrix_s": (("geometry.iou_matrix",), lambda t: t.total("geometry.iou_matrix")),
    "geometry.iou_matrix.calls": (("geometry.iou_matrix",),
                                  lambda t: t.calls("geometry.iou_matrix")),
    # IoU matrices built during training per (weak image x E-step); 1 would
    # mean each image's overlaps are computed once per E-step.
    "geometry.iou_matrix.per_image_estep": (
        ("geometry.iou_matrix", "engine.run_em", "engine.e_step", "engine.e_step_from_scores"),
        lambda t: _ratio(t.calls("geometry.iou_matrix", root="engine.run_em"),
                         t.calls("engine.e_step") + t.calls("engine.e_step_from_scores"))),
    "geometry.nms_s": (("geometry.nms",), lambda t: t.total("geometry.nms")),
    "geometry.nms.calls": (("geometry.nms",), lambda t: t.calls("geometry.nms")),
    "geometry.nms.kept_ratio": (
        ("geometry.nms",),
        lambda t: _ratio(t.counts["geometry.nms.kept"], t.counts["geometry.nms.in"])),
    "scorer.weighted_ce_gradient_s": (("scorer.weighted_ce_gradient",),
                                      lambda t: t.total("scorer.weighted_ce_gradient")),
    "scorer.sgd_step_s": (("scorer.sgd_step",), lambda t: t.total("scorer.sgd_step")),
    "scorer.sgd_steps": (("scorer.sgd_step",), lambda t: t.calls("scorer.sgd_step")),
    "scorer.log_prob_matrix_s": (("scorer.log_prob_matrix",),
                                 lambda t: t.total("scorer.log_prob_matrix")),
    "scorer.log_prob_matrix.calls": (("scorer.log_prob_matrix",),
                                     lambda t: t.calls("scorer.log_prob_matrix")),
    "metrics.detect_s": (("metrics.detect",), lambda t: t.total("metrics.detect")),
    "metrics.detections": (("metrics.detect",), lambda t: t.counts["metrics.detections"]),
    "metrics.evaluate_detections_s": (("metrics.evaluate_detections",),
                                      lambda t: t.total("metrics.evaluate_detections")),
    "metrics.corloc_s": (("metrics.corloc",), lambda t: t.total("metrics.corloc")),
    "data.generate_s": (("data.generate",), lambda t: t.total("data.generate")),
    "data.make_init_scores_s": (("data.make_init_scores",),
                                lambda t: t.total("data.make_init_scores")),
    "data.split_semi_s": (("data.split_semi",), lambda t: t.total("data.split_semi")),
}


def is_time(metric: str) -> bool:
    """Times vary run to run; every other per-layer metric must repeat exactly."""
    return metric.endswith("_s") or "_s_per_" in metric


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric whose spans exist, computed from one traced run."""
    return {name: fn(tracer) for name, (needs, fn) in LAYER_METRICS.items()
            if not any(span in tracer.absent for span in needs)}
