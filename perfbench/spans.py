"""Spans around the public functions at globop's module boundaries.

``install`` replaces each traced function, in the namespace of every globop
module that holds it, by a wrapper that records a span: name, start, end,
parent span, op id, plus a few counts read from the returned value.  The
program's own source is not changed.  Spans stay in memory; ``dump`` hands
them to the caller, which writes them out when the operation ends.

``layer_metrics`` turns the spans of one operation into the per-layer
metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import sys
import time

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "interleave.M0_s": "s",
    "interleave.H1_s": "s",
    "interleave.M1_s": "s",
    "interleave.H2_s": "s",
    "interleave.M2_s": "s",
    "interleave.H3_s": "s",
    "interleave.M3_s": "s",
    "interleave.H_self_s": "s",
    "interleave.M_self_s": "s",
    "operad.free_step_s": "s",
    "operad.cells_kept": "count",
    "operad.rejected.term": "count",
    "operad.rejected.arity": "count",
    "operad.rejected.boundary": "count",
    "operad.keep_ratio": "ratio",
    "operad.stabilization_depth": "count",
    "operad.mult_table_entries": "count",
    "operad.mult_table_s.assert": "s",
    "operad.mult_table_s.serialize": "s",
    "operad.mult_table_s.verify": "s",
    "operad.laws_s": "s",
    "collection.labellings_s": "s",
    "collection.labellings_calls": "count",
    "collection.labellings_out": "count",
    "contraction.step_s": "s",
    "contraction.cells_added": "count",
    "contraction.admissible_s": "s",
    "contraction.admissible_calls": "count",
    "globset.parallel_calls": "count",
    "pasting.subst.calls": "count",
    "pasting.subst.misses": "count",
    "pasting.emb_map.calls": "count",
    "pasting.emb_map.misses": "count",
    "pasting.all_cells.calls": "count",
    "pasting.boundary_inclusion.calls": "count",
    "pasting.trees_with_boundary.calls": "count",
    "pasting.trees_with_boundary.misses": "count",
    "pasting.size.calls": "count",
    "serialize.encode_s": "s",
    "serialize.dump_s": "s",
    "serialize.decode_s": "s",
    "serialize.bytes": "bytes",
    "serialize.mult_entries": "count",
    "serialize.gamma_entries": "count",
    "verify.monoid-laws_ms": "ms",
    "verify.operad-laws.input_ms": "ms",
    "verify.stability-contraction.input_ms": "ms",
    "verify.contraction-laws.input_ms": "ms",
    "trace.op_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}

# metrics that count work: they must repeat exactly from run to run
COUNTS = tuple(name for name, unit in PER_LAYER.items() if unit in ("count", "bytes"))

# lru_caches whose cache_info() deltas give the pasting counts
PASTING_CACHES = {
    "subst": "_substitute_cached",
    "emb_map": "emb_map",
    "all_cells": "all_cells",
    "boundary_inclusion": "boundary_inclusion",
    "trees_with_boundary": "trees_with_boundary",
    "size": "size",
}

# which caller a mult_table span is charged to
_MULT_TABLE_CALLER = {
    "globop.interleave": "assert",
    "globop.serialize": "serialize",
    "globop.verify": "verify",
}


def pasting_cache_info() -> dict:
    from globop import pasting

    out = {}
    for key, fname in PASTING_CACHES.items():
        info = getattr(pasting, fname).cache_info()
        out[key] = [info.hits + info.misses, info.misses]
    return out


class Tracer:
    """In-memory spans of one operation.

    A span is ``[name, start, end, parent, op_id, info]``; ``parent`` is the
    index of the enclosing span or -1, ``info`` holds counts read from the
    traced call's result.
    """

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, fn, name, info=None):
        """``name`` is a string or a function of the call's arguments;
        ``info`` maps (args, result) to a dict of counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [
                name if isinstance(name, str) else name(*args, **kwargs),
                time.perf_counter(),
                None,
                self._stack[-1] if self._stack else -1,
                self.op_id,
                None,
            ]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span[5] = info(args, result)
            return result

        return traced

    def count(self, fn, counter: str):
        self.counters[counter] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


def _patch(home: str, fname: str, make_wrapper) -> None:
    """Replace ``home.fname`` in every loaded globop module that refers to
    it; ``make_wrapper(original, caller_module_name)`` builds the wrapper."""
    original = getattr(sys.modules[home], fname)
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("globop") and getattr(mod, fname, None) is original:
            setattr(mod, fname, make_wrapper(original, modname))


def _free_step_info(args, res) -> dict:
    rejected = {"term": 0, "arity": 0, "boundary": 0}
    for o in res.overflows:
        rejected[o.reason] += o.count
    return {
        "kept": len(res.operad.over.cells_at(res.new_dim)),
        "depth": res.stabilization_depth,
        **rejected,
    }


def _suite_span(name, bounds=None, fixture=None):
    return f"verify.{name}" + (".input" if fixture is not None else "")


def install(tracer: Tracer) -> None:
    """Wrap the traced functions; call after ``import globop``."""
    import globop  # noqa: F401  (loads every module that may hold a reference)

    def simple(name, info=None):
        return lambda fn, caller: tracer.wrap(fn, name, info)

    _patch("globop.interleave", "start_state", simple("interleave.M0"))
    _patch(
        "globop.interleave",
        "step_contraction",
        simple(lambda s: f"interleave.H{s.stage[0] + 1}"),
    )
    _patch(
        "globop.interleave",
        "step_operad",
        simple(lambda s: f"interleave.M{s.stage[1] + 1}"),
    )
    for fname in ("free_operad_dim0", "free_operad_step"):
        _patch("globop.operad", fname, simple("operad.free_step", _free_step_info))
    _patch(
        "globop.operad",
        "mult_table",
        lambda fn, caller: tracer.wrap(
            fn,
            "operad.mult_table." + _MULT_TABLE_CALLER.get(caller, caller),
            lambda args, table: {"n": len(table)},
        ),
    )
    _patch("globop.operad", "check_operad_laws", simple("operad.laws"))
    for fname in ("enumerate_labellings", "collection_labellings"):
        _patch(
            "globop.collection",
            fname,
            simple("collection.labellings", lambda args, out: {"n": len(out)}),
        )
    _patch(
        "globop.contraction",
        "free_contraction_step",
        simple("contraction.step", lambda args, res: {"n": len(res.new_cells)}),
    )
    _patch(
        "globop.contraction",
        "admissible_triples",
        simple("contraction.admissible", lambda args, out: {"n": len(out)}),
    )
    _patch(
        "globop.globset",
        "parallel",
        lambda fn, caller: tracer.count(fn, "globset.parallel_calls"),
    )
    _patch(
        "globop.serialize",
        "state_to_json",
        simple(
            "serialize.encode",
            lambda args, data: {"mult": len(data["mult"]), "gamma": len(data["gamma"])},
        ),
    )
    _patch(
        "globop.serialize",
        "state_from_json",
        simple(
            "serialize.decode",
            lambda args, dec: {
                "mult": len(dec.mult_entries),
                "gamma": len(dec.state.contraction.gamma),
            },
        ),
    )
    # canonical_json is a util helper used everywhere; only the serializer's
    # calls are the state dump
    sermod = sys.modules["globop.serialize"]
    sermod.canonical_json = tracer.wrap(
        sermod.canonical_json, "serialize.dump", lambda args, text: {"n": len(text)}
    )
    _patch(
        "globop.verify",
        "run_suite",
        simple(_suite_span, lambda args, rep: {"ms": rep.ms}),
    )


# ---------------------------------------------------------------------------
# aggregation


def _outermost(spans: list, prefix: str) -> list:
    """Spans whose name starts with ``prefix`` and that no other such span
    encloses, so nested calls of one layer are not counted twice."""
    out = []
    for span in spans:
        if not span[0].startswith(prefix):
            continue
        p = span[3]
        while p >= 0 and not spans[p][0].startswith(prefix):
            p = spans[p][3]
        if p < 0:
            out.append(span)
    return out


def _busy(spans: list, prefix: str) -> float:
    return sum(s[2] - s[1] for s in _outermost(spans, prefix))


def _info_sum(spans: list, prefix: str, key: str) -> int:
    return sum((s[5] or {}).get(key, 0) for s in _outermost(spans, prefix))


def _self_time(spans: list, steps: tuple, child_prefix: str) -> float:
    """Time of the named steps minus their free-step children: the in-step
    stability assertions."""
    total = 0.0
    for i, s in enumerate(spans):
        if s[0] in steps:
            child = sum(
                c[2] - c[1] for c in spans if c[3] == i and c[0].startswith(child_prefix)
            )
            total += (s[2] - s[1]) - child
    return total


def top_level_s(spans: list) -> float:
    return sum(s[2] - s[1] for s in spans if s[3] < 0)


def layer_metrics(op: dict) -> dict:
    """Per-layer metrics of one traced operation.

    ``op`` holds the merged ``spans``, ``counters`` and ``pasting`` cache
    deltas of every process of the operation, and its traced ``op_s``.
    """
    spans = op["spans"]
    m: dict[str, float] = {}
    for label in ("M0", "H1", "M1", "H2", "M2", "H3", "M3"):
        m[f"interleave.{label}_s"] = _busy(spans, f"interleave.{label}")
    m["interleave.H_self_s"] = _self_time(
        spans, ("interleave.H1", "interleave.H2", "interleave.H3"), "contraction.step"
    )
    m["interleave.M_self_s"] = _self_time(
        spans, ("interleave.M1", "interleave.M2", "interleave.M3"), "operad.free_step"
    )
    m["operad.free_step_s"] = _busy(spans, "operad.free_step")
    kept = _info_sum(spans, "operad.free_step", "kept")
    rejected = 0
    m["operad.cells_kept"] = kept
    for reason in ("term", "arity", "boundary"):
        n = _info_sum(spans, "operad.free_step", reason)
        m[f"operad.rejected.{reason}"] = n
        rejected += n
    m["operad.keep_ratio"] = kept / (kept + rejected) if kept + rejected else 0.0
    m["operad.stabilization_depth"] = _info_sum(spans, "operad.free_step", "depth")
    m["operad.mult_table_entries"] = _info_sum(spans, "operad.mult_table", "n")
    for caller in ("assert", "serialize", "verify"):
        m[f"operad.mult_table_s.{caller}"] = _busy(spans, f"operad.mult_table.{caller}")
    m["operad.laws_s"] = _busy(spans, "operad.laws")
    m["collection.labellings_s"] = _busy(spans, "collection.labellings")
    m["collection.labellings_calls"] = len(_outermost(spans, "collection.labellings"))
    m["collection.labellings_out"] = _info_sum(spans, "collection.labellings", "n")
    m["contraction.step_s"] = _busy(spans, "contraction.step")
    m["contraction.cells_added"] = _info_sum(spans, "contraction.step", "n")
    m["contraction.admissible_s"] = _busy(spans, "contraction.admissible")
    m["contraction.admissible_calls"] = len(_outermost(spans, "contraction.admissible"))
    m["globset.parallel_calls"] = op["counters"].get("globset.parallel_calls", 0)
    for key in PASTING_CACHES:
        calls, misses = op["pasting"].get(key, (0, 0))
        m[f"pasting.{key}.calls"] = calls
        if f"pasting.{key}.misses" in PER_LAYER:
            m[f"pasting.{key}.misses"] = misses
    m["serialize.encode_s"] = _busy(spans, "serialize.encode")
    m["serialize.dump_s"] = _busy(spans, "serialize.dump")
    m["serialize.decode_s"] = _busy(spans, "serialize.decode")
    m["serialize.bytes"] = _info_sum(spans, "serialize.dump", "n")
    m["serialize.mult_entries"] = _info_sum(spans, "serialize.encode", "mult") + _info_sum(
        spans, "serialize.decode", "mult"
    )
    m["serialize.gamma_entries"] = _info_sum(spans, "serialize.encode", "gamma") + _info_sum(
        spans, "serialize.decode", "gamma"
    )
    for suite in (
        "monoid-laws",
        "operad-laws.input",
        "stability-contraction.input",
        "contraction-laws.input",
    ):
        m[f"verify.{suite}_ms"] = sum(
            (s[5] or {}).get("ms", 0.0) for s in spans if s[0] == f"verify.{suite}"
        )
    m["trace.op_s"] = op["op_s"]
    m["trace.uncovered_s"] = op["op_s"] - top_level_s(spans)
    return m

