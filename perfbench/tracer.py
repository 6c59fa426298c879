"""Outside-in tracer for the koszul_rank layers.

The tracer edits no program source.  It replaces, for the duration of a traced
pass, every binding that a calling module looks up at call time: a module
global such as ``koszul_rank.bounds.rank_exact`` or ``koszul_rank.keylemma.
det_exact``, and the class attribute ``ExactMatrix.__mul__``.  Every binding of
one function gets the same wrapper, so the calls of all importers add up under
one layer name.  ``uninstall`` puts the original objects back.

Each wrapped call is a span (layer, start, end, parent span, job id) kept in
memory; a layer's self time is its span time minus the time of the spans
nested directly inside it.  Counts are taken from arguments and results at
the same boundary, so they are exact and repeat for a given seed.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable

PACKAGE = "koszul_rank"

# Layer name -> statistics reported besides ``calls`` and ``self_s``; the
# per-layer metric names are "<layer>.<stat>".
LAYER_STATS = {
    "exact_linalg.rank_exact": ("cells",),
    "exact_linalg.det_exact": ("cells", "max_side"),
    "exact_linalg.matmul": ("scalar_mults",),
    "exact_linalg.invert": (),
    "exact_linalg.commutator": (),
    "tensor_core.slice_family": (),
    "tensor_core.contract_a": (),
    "wedge": (),
    "flattening.flattening_pattern": (),
    "flattening.commutator_pattern": (),
    "flattening.assemble": ("blocks_nonzero", "commutator_cells", "commutator_pairs_distinct"),
    "flattening.check_structure": (),
    "bounds.certify_border_rank": ("trials_attempted", "trials_usable", "trials_at_max"),
    "keylemma.key_lemma_search": (),
    "keylemma.support_restriction_search": ("failures",),
    "keylemma.shrink_witness": (),
    "keylemma.validate_witness": (),
    "keylemma.evaluate": ("evaluations", "zero_evaluations", "evals_per_s"),
    "suites": ("checks", "checks_failed"),
    "cli.main": (),
}

# (layer, defining module, function name): the original object is looked up
# in its defining module and every koszul_rank module binding it is wrapped.
FUNCTION_LAYERS = (
    ("exact_linalg.rank_exact", "exact_linalg", "rank_exact"),
    ("exact_linalg.det_exact", "exact_linalg", "det_exact"),
    ("exact_linalg.invert", "exact_linalg", "invert"),
    ("exact_linalg.commutator", "exact_linalg", "commutator"),
    ("tensor_core.slice_family", "tensor_core", "slice_family"),
    ("tensor_core.contract_a", "tensor_core", "contract_a"),
    ("wedge", "wedge", "differ_by_one"),
    ("wedge", "wedge", "insert_sign"),
    ("flattening.flattening_pattern", "flattening", "flattening_pattern"),
    ("flattening.commutator_pattern", "flattening", "commutator_pattern"),
    ("flattening.assemble", "flattening", "assemble"),
    ("flattening.check_structure", "flattening", "check_structure"),
    ("bounds.certify_border_rank", "bounds", "certify_border_rank"),
    ("keylemma.key_lemma_search", "keylemma", "key_lemma_search"),
    ("keylemma.support_restriction_search", "keylemma", "support_restriction_search"),
    ("keylemma.shrink_witness", "keylemma", "shrink_witness"),
    ("keylemma.validate_witness", "keylemma", "validate_witness"),
    ("suites", "suites", "suite_strassen"),
    ("suites", "suites", "suite_p2"),
    ("suites", "suites", "suite_p3"),
    ("suites", "suites", "suite_remark"),
    ("suites", "suites", "suite_detlemmas"),
)


def per_layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    units = {"self_s": "s", "evals_per_s": "1/s", "max_side": "rows"}
    out = []
    for layer, stats in LAYER_STATS.items():
        for stat in ("calls", "self_s") + stats:
            out.append((f"{layer}.{stat}", units.get(stat, "count")))
    return out


class Tracer:
    """Spans and counts for one traced pass; spans stay in memory until ``write``."""

    def __init__(self) -> None:
        self.layers: list[str] = list(LAYER_STATS)
        self._layer_id = {name: i for i, name in enumerate(self.layers)}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []
        self._child_s: list[float] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.job = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def open(self, layer: str) -> int:
        index = len(self.span_start)
        self.span_layer.append(self._layer_id[layer])
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_job.append(self.job)
        self.span_end.append(0.0)
        self._open.append(index)
        self._child_s.append(0.0)
        self.span_start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        self._open.pop()
        nested = self._child_s.pop()
        layer = self.layers[self.span_layer[index]]
        self.calls[layer] += 1
        self.self_s[layer] += duration - nested
        self.total_s[layer] += duration
        if self._child_s:
            self._child_s[-1] += duration

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        index = self.open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    # -- installation ----------------------------------------------------

    def _wrap(self, layer: str, fn: Callable, before=None, after=None, failure=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            index = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(index)
                if failure is not None and isinstance(exc, failure):
                    tracer.counts[f"{layer}.failures"] += 1
                raise
            tracer.close(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every koszul_rank binding of each layer function."""
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        hooks = self._hooks()
        for layer, module_name, attr in FUNCTION_LAYERS:
            original = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), attr)
            before, after, failure = hooks.get(attr, (None, None, None))
            wrapper = self._wrap(layer, original, before, after, failure)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, wrapper)
        self._install_matmul()

    def _install_matmul(self) -> None:
        matrix_type = importlib.import_module(f"{PACKAGE}.exact_linalg").ExactMatrix
        original = matrix_type.__mul__
        tracer = self

        @functools.wraps(original)
        def mul(left, right):
            if not isinstance(right, matrix_type):
                return original(left, right)  # scalar products are not matmul
            tracer.counts["exact_linalg.matmul.scalar_mults"] += left.rows * left.cols * right.cols
            return tracer.call("exact_linalg.matmul", original, left, right)

        self._patch(matrix_type, "__mul__", mul)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> int:
        return len(self._patched)

    # -- counting hooks --------------------------------------------------

    def _hooks(self) -> dict:
        counts = self.counts
        stage_error = importlib.import_module(f"{PACKAGE}.keylemma").KeyLemmaStageError

        def count_cells(layer: str):
            def before(args, kwargs):
                matrix = args[0] if args else kwargs["m"]
                counts[f"{layer}.cells"] += matrix.rows * matrix.cols
                if layer == "exact_linalg.det_exact":
                    key = f"{layer}.max_side"
                    counts[key] = max(counts[key], matrix.rows)
                return args, kwargs

            return before

        def count_blocks(args, kwargs):
            sym = args[0] if args else kwargs["sym"]
            pairs = set()
            for row in sym.labels:
                for label in row:
                    if label.is_zero:
                        continue
                    counts["flattening.assemble.blocks_nonzero"] += 1
                    if label.pair is not None:
                        counts["flattening.assemble.commutator_cells"] += 1
                        pairs.add(label.pair)
            counts["flattening.assemble.commutator_pairs_distinct"] += len(pairs)
            return args, kwargs

        def count_trials(args, kwargs, certificate):
            layer = "bounds.certify_border_rank"
            counts[f"{layer}.trials_attempted"] += certificate.trials
            counts[f"{layer}.trials_usable"] += len(certificate.trial_ranks)
            counts[f"{layer}.trials_at_max"] += sum(
                1 for rank in certificate.trial_ranks if rank == certificate.flattening_rank
            )

        def count_checks(args, kwargs, checks):
            counts["suites.checks"] += len(checks)
            counts["suites.checks_failed"] += sum(1 for check in checks if not check.passed)

        def counted_poly(args, kwargs):
            if args:
                return (self._counted_evaluator(args[0]),) + tuple(args[1:]), kwargs
            kwargs = dict(kwargs, poly=self._counted_evaluator(kwargs["poly"]))
            return args, kwargs

        return {
            "rank_exact": (count_cells("exact_linalg.rank_exact"), None, None),
            "det_exact": (count_cells("exact_linalg.det_exact"), None, None),
            "assemble": (count_blocks, None, None),
            "certify_border_rank": (None, count_trials, None),
            "support_restriction_search": (counted_poly, None, stage_error),
            "shrink_witness": (counted_poly, None, None),
            **{
                name: (None, count_checks, None)
                for name in ("suite_strassen", "suite_p2", "suite_p3", "suite_remark", "suite_detlemmas")
            },
        }

    def _counted_evaluator(self, poly):
        evaluate = poly.evaluate
        counts = self.counts

        def counted(point):
            value = self.call("keylemma.evaluate", evaluate, point)
            counts["keylemma.evaluate.evaluations"] += 1
            if value == 0:
                counts["keylemma.evaluate.zero_evaluations"] += 1
            return value

        return dataclasses.replace(poly, evaluate=counted)

    # -- reporting -------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric; layers a workload never calls read 0."""
        out: dict[str, float] = {}
        for name, _unit in per_layer_metric_names():
            layer, stat = name.rsplit(".", 1)
            if stat == "calls":
                out[name] = self.calls.get(layer, 0)
            elif stat == "self_s":
                out[name] = self.self_s.get(layer, 0.0)
            elif stat == "evals_per_s":
                busy = self.total_s.get(layer, 0.0)
                out[name] = self.counts.get(f"{layer}.evaluations", 0) / busy if busy else 0.0
            else:
                out[name] = self.counts.get(name, 0)
        return out

    def write(self, path, header: dict) -> int:
        """Write the spans as gzip'd JSON lines: one header, then one line per span."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"layers": self.layers, **header}) + "\n")
            for i in range(len(self.span_start)):
                handle.write(
                    f"[{self.span_layer[i]},{self.span_parent[i]},{self.span_job[i]},"
                    f"{self.span_start[i]:.9f},{self.span_end[i]:.9f}]\n"
                )
        return len(self.span_start)
