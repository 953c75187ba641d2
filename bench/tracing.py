"""Spans around the package's public functions, for the traced run only.

Wrappers are installed at every place a caller looks a traced name up (a
module global that sibling functions call, or an attribute imported by name
into another module), and removed afterwards. Nothing under src/ changes.

A span is (name, start, end, parent index, op id); its layer is the module,
the name's first component. Self time is a span's duration minus its child
spans' durations. `<layer>.errors` counts exceptions that leave a span whose
parent is in another layer (or that has no parent).
"""
from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

from newform_dedekind import characters, cli, contfrac, dedekind, stats

LAYERS = ("characters", "contfrac", "dedekind", "stats", "cli")

# (owner, attribute, span name)
SITES = (
    (cli, "main", "cli.main"),
    (characters, "character_from_index", "characters.character_from_index"),
    (stats, "character_from_index", "characters.character_from_index"),
    (characters.DirichletCharacter, "conjugate", "characters.conjugate"),
    (dedekind, "gauss_sum", "characters.gauss_sum"),
    (dedekind, "is_primitive", "characters.is_primitive"),
    (contfrac, "expand", "contfrac.expand"),
    (stats, "expand", "contfrac.expand"),
    (contfrac, "max_partial_quotient", "contfrac.max_partial_quotient"),
    (dedekind, "max_partial_quotient", "contfrac.max_partial_quotient"),
    (contfrac, "_max_quotient_table", "contfrac.max_quotient_table"),
    (contfrac, "to_parity_form", "contfrac.to_parity_form"),
    (contfrac, "matrix_factorization", "contfrac.matrix_factorization"),
    (contfrac, "reverse_denominator_expansion", "contfrac.reverse_denominator_expansion"),
    (contfrac, "digit_symmetry_delta", "contfrac.digit_symmetry_delta"),
    (contfrac, "phi_count", "contfrac.phi_count"),
    (contfrac, "g_count", "contfrac.g_count"),
    (contfrac, "hensley_prediction", "contfrac.hensley_prediction"),
    (dedekind, "s_double_sum", "dedekind.s_double_sum"),
    (dedekind, "s_double_sum_exact", "dedekind.s_double_sum_exact"),
    (dedekind, "s_analytic", "dedekind.s_analytic"),
    (dedekind, "complete_matrix", "dedekind.complete_matrix"),
    (dedekind, "phi_eval", "dedekind.phi_eval"),
    (dedekind, "f_eval", "dedekind.f_eval"),
    (dedekind, "dw_exact", "dedekind.dw_exact"),
    (dedekind, "korobov_sum_1", "dedekind.korobov_sum_1"),
    (dedekind, "korobov_sum_2", "dedekind.korobov_sum_2"),
    (dedekind, "_korobov_table", "dedekind.korobov_table"),
    (stats, "scan_F", "stats.scan_F"),
    (stats, "emit", "stats.emit"),
    (stats, "summarize", "stats.summarize"),
    (stats, "second_moment", "stats.second_moment"),
    (stats, "largeval_sweep", "stats.largeval_sweep"),
)

# per-layer metrics in the order BENCHMARK.json lists them: (name, unit)
PER_LAYER = (
    [(f"dedekind.{f}.{m}", u) for f in ("f_eval", "s_analytic", "s_double_sum")
     for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("dedekind.korobov_table.self_s", "s"), ("dedekind.errors", "count")]
    + [(f"characters.{f}.{m}", u) for f in ("conjugate", "gauss_sum", "is_primitive")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("characters.character_from_index.calls", "count"),
       ("characters.tables_per_op", "ratio"), ("characters.errors", "count")]
    + [(f"contfrac.{f}.{m}", u) for f in ("expand", "max_partial_quotient",
                                         "max_quotient_table",
                                         "reverse_denominator_expansion",
                                         "digit_symmetry_delta")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("contfrac.expand_per_record", "ratio"), ("contfrac.phi_count.self_s", "s"),
       ("contfrac.g_count.self_s", "s"), ("contfrac.errors", "count")]
    + [("stats.scan_F.self_s", "s"), ("stats.emit.self_s", "s"), ("stats.emit.bytes", "bytes"),
       ("stats.summarize.self_s", "s"), ("stats.errors", "count")]
    + [("cli.main.self_s", "s")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.overhead_frac", "ratio")]
)


class Tracer:
    """Records spans in memory; `installed()` puts the wrappers in place."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.errors = Counter()
        self.op = -1  # id shared by every span of the current request
        self._stack = []

    def next_request(self):
        self.op += 1

    def wrap(self, name, fn):
        layer = name.split(".")[0]
        spans, stack, errors = self.spans, self._stack, self.errors

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                if parent < 0 or not spans[parent][0].startswith(layer + "."):
                    errors[layer] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in SITES]
        try:
            for owner, attr, name in SITES:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def metrics(self, first, errors, rep):
        """Per-layer metrics of one repetition whose spans start at index `first`."""
        return layer_metrics(self.spans, first, errors, rep.ops, rep.emit_bytes)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{op}\n")


def layer_metrics(spans, first, errors, ops, emit_bytes):
    """Per-layer metrics of the spans from index `first` on (one repetition)."""
    calls = Counter()
    self_s = defaultdict(float)
    child = defaultdict(float)
    for i in range(len(spans) - 1, first - 1, -1):  # children come after parents
        name, start, end, parent, _ = spans[i]
        dur = end - start
        calls[name] += 1
        self_s[name] += dur - child.pop(i, 0.0)
        if parent >= first:
            child[parent] += dur
    out = {}
    for name, unit in PER_LAYER:
        layer, _, rest = name.partition(".")
        if rest == "errors":
            out[name] = errors[layer]
        elif rest == "self_s":
            out[name] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        elif rest.endswith(".calls"):
            out[name] = calls[name[:-len(".calls")]]
        elif rest.endswith(".self_s"):
            out[name] = self_s[name[:-len(".self_s")]]
    out["characters.tables_per_op"] = calls["characters.character_from_index"] / ops
    out["contfrac.expand_per_record"] = calls["contfrac.expand"] / ops
    out["stats.emit.bytes"] = emit_bytes if calls["stats.emit"] else 0
    return out
