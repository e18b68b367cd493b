"""Spans around the public functions of each oredim layer.

``Tracer.install`` wraps each function named in ``TARGETS`` wherever an
oredim module binds it (``dimensions.rank_plain``, ``chains.rank_plain``,
``linalg.rank_dense`` as looked up inside ``rank_sparse``, ...), and the
``quotient``/``folner_set`` methods of every group model.
``Tracer.uninstall`` puts the originals back, so traced and untraced
rounds can alternate in one process.  Spans (name, start, end, parent,
job, count) stay in memory until the run writes them out.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict


# (module, function, span name, count of the call or None)
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("cli", "render", "cli.render", None),
    ("jsonio", "decode_module", "jsonio.decode", None),
    ("jsonio", "decode_complex", "jsonio.decode", None),
    ("jsonio", "decode_betti_request", "jsonio.decode", None),
    ("groupring", "induce_to_quotient", "groupring.induce", lambda a, r: r.nnz),
    ("groupring", "compress_to_folner", "groupring.compress", lambda a, r: r.nnz),
    ("groupring", "restrict_scalars", "groupring.restrict", None),
    ("groupring", "to_laurent", "groupring.to_laurent", None),
    ("linalg", "rank_plain", "linalg.plain", None),
    ("linalg", "rank_sparse", "linalg.sparse", None),
    ("linalg", "rank_dense", "linalg.dense", lambda a, r: a[0].nrows * a[0].ncols),
    ("linalg", "rank_laurent", "linalg.laurent", lambda a, r: int(r.certified)),
    ("linalg", "rank_laurent_probabilistic", "linalg.prob", None),
    ("linalg", "rank_laurent_bareiss", "linalg.bareiss", None),
    ("dimensions", "ore_dim", "dimensions", None),
    ("dimensions", "virtual_ore_dim", "dimensions", None),
    ("dimensions", "elek_truncation_dim", "dimensions", None),
    ("dimensions", "quotient_betti_dim", "dimensions", None),
    ("dimensions", "approx_report", "dimensions", None),
    ("chains", "homology_report", "chains", None),
    ("chains", "quotient_homology", "chains", None),
    ("chains", "ore_homology", "chains", None),
    ("chains", "finite_group_betti", "chains", None),
]
GROUP_METHODS = [("quotient", "groups.quotient", lambda a, r: r.index),
                 ("folner_set", "groups.folner", lambda a, r: len(r))]

# Layers whose self time counts as covered by the trace.
COVERED = ("jsonio.", "groups.", "groupring.", "linalg.", "cli.render")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, job, count]
        self.stack = []
        self.job = None
        self._patched = []       # (owner, attribute, original)

    def wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result
        return traced

    def install(self):
        mods = [m for name, m in sys.modules.items()
                if name == "oredim" or name.startswith("oredim.")]
        for module, attr, name, count in TARGETS:
            original = getattr(importlib.import_module(f"oredim.{module}"), attr)
            wrapped = self.wrap(name, original, count)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapped)
        groups = importlib.import_module("oredim.groups")
        for cls in _subclasses(groups.Group):
            for attr, name, count in GROUP_METHODS:
                if attr in vars(cls):
                    original = vars(cls)[attr]
                    self._patched.append((cls, attr, original))
                    setattr(cls, attr, self.wrap(name, original, count))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def layer_metrics(self, first, wall):
        """Per-layer self times and counts of spans[first:], plus the share
        of ``wall`` that the covered layers account for."""
        spans = self.spans
        child_time = defaultdict(float)
        for span in spans[first:]:
            if span[3] >= first:
                child_time[span[3]] += span[2] - span[1]
        self_s = defaultdict(float)
        calls = defaultdict(int)
        counts = defaultdict(int)
        fallbacks = 0
        for k in range(first, len(spans)):
            name, start, end, parent, _, count = spans[k]
            self_s[name] += end - start - child_time[k]
            calls[name] += 1
            counts[name] += count
            if name == "linalg.dense" and parent >= first \
                    and spans[parent][0] == "linalg.sparse":
                fallbacks += 1
        elements = sum(spans[k][5] for k in range(first, len(spans))
                       if spans[k][0].startswith("groups.")
                       and not (spans[k][3] >= first
                                and spans[spans[k][3]][0].startswith("groups.")))
        covered = sum(v for name, v in self_s.items() if name.startswith(COVERED))
        return {
            "cli.self_s": self_s["cli.main"],
            "cli.render_s": self_s["cli.render"],
            "jsonio.decode_s": self_s["jsonio.decode"],
            "groups.quotient_s": self_s["groups.quotient"],
            "groups.folner_s": self_s["groups.folner"],
            "groups.elements": elements,
            "groupring.induce_s": self_s["groupring.induce"],
            "groupring.compress_s": self_s["groupring.compress"],
            "groupring.out_nnz": counts["groupring.induce"] + counts["groupring.compress"],
            "groupring.restrict_s": self_s["groupring.restrict"],
            "groupring.to_laurent_s": self_s["groupring.to_laurent"],
            "linalg.sparse_s": self_s["linalg.sparse"],
            "linalg.sparse_calls": calls["linalg.sparse"],
            "linalg.dense_fallbacks": fallbacks,
            "linalg.dense_s": self_s["linalg.dense"],
            "linalg.dense_calls": calls["linalg.dense"],
            "linalg.plain_cells": counts["linalg.dense"],
            "linalg.prob_s": self_s["linalg.prob"],
            "linalg.bareiss_s": self_s["linalg.bareiss"],
            "linalg.laurent_calls": calls["linalg.laurent"],
            "linalg.laurent_certified": counts["linalg.laurent"],
            "dimensions.self_s": self_s["dimensions"],
            "chains.self_s": self_s["chains"],
            "trace.coverage": covered / wall if wall else 0.0,
        }

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "count"],
                       "spans": self.spans}, fh)


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
