"""Traced runs: wrap sp4q's public functions from outside the package.

A :class:`Tracer` replaces each target function with a timing wrapper
under every name that binds it inside ``sp4q`` (module globals, class
attributes and default arguments), so ``q_factorial`` is traced whether
it is reached through ``sp4q.qnum``, ``sp4q.ops`` or ``sp4q.verify``.

Layer-boundary calls (``cli.main``, the ``verify`` entry points,
``build``, ``numeric_context``, ``to_numeric`` ...) become spans: name,
start, end, parent span and run id, kept in memory and written out by
:meth:`Tracer.write`.  The ring-level calls are far too many for spans
(``full_suite(12)`` makes ~404k ``LaurentPoly.__mul__`` calls), so they
are kept as per-parent-span aggregates instead.  Every call of either
kind updates per-name counts and busy time (outermost calls only), and
its layer's busy and self time (duration minus the time covered by
traced callees).
"""

from __future__ import annotations

import json
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

SPAN, AGGREGATE, COUNT = "span", "aggregate", "count"
LAYERS = ("qnum", "fock", "ops", "algebras", "verify", "cli")


def _coeffs(x):
    c = getattr(x, "c", None)
    return c if isinstance(c, dict) else None


def _integral(x) -> bool:
    c = _coeffs(x)
    if c is not None:
        return all(getattr(v, "denominator", 0) == 1 for v in c.values())
    return getattr(x, "denominator", 0) == 1


def _note_mul(tr, args, kwargs, result):
    a, b = args
    ca, cb = _coeffs(a), _coeffs(b)
    if ca is None:
        return
    tr.extra["qnum.mul_term_products"] += len(ca) * (len(cb) if cb is not None else 1)
    if _integral(a) and _integral(b):
        tr.extra["qnum.mul_int_calls"] += 1


def _note_q_factorial(tr, args, kwargs, result):
    tr.distinct["qnum.q_factorial"].add(args[0])


def _note_gram(tr, args, kwargs, result):
    st = args[0]
    tr.distinct["ops.gram"].add((st.n1, st.nm1))


def _note_matmul(tr, args, kwargs, result):
    entries = getattr(result, "entries", None)
    if isinstance(entries, dict):
        tr.extra["ops.matmul_nnz_out"] += len(entries)


def _note_build(tr, args, kwargs, result):
    family, space = args[0], args[1]
    tr.distinct["algebras.build"].add((family, space.cutoff))


def _note_numeric_context(tr, args, kwargs, result):
    gens, q = args[0], args[1]
    tr.distinct["algebras.numeric_context"].add(
        (gens.family, gens.space.cutoff, float(q)))


def _note_report(tr, args, kwargs, result):
    tr.extra["verify.reports"] += 1
    if not args[0].ok:
        tr.extra["verify.unexpected"] += 1


# (key, module, attribute path, kind, note).  The key's first component is
# the layer.  Keys that share a name (the two basis entry points) share
# one busy-time account, counted at the outermost call.
TARGETS = (
    ("qnum.mul", "sp4q.qnum", "LaurentPoly.__mul__", AGGREGATE, _note_mul),
    ("qnum.q_factorial", "sp4q.qnum", "q_factorial", AGGREGATE, _note_q_factorial),
    ("fock.space", "sp4q.fock", "FockSpace.__init__", AGGREGATE, None),
    ("ops.gram", "sp4q.ops", "gram", AGGREGATE, _note_gram),
    ("ops.matmul", "sp4q.ops", "QOperator.__matmul__", AGGREGATE, _note_matmul),
    ("ops.numop_matmul", "sp4q.ops", "NumOp.__matmul__", AGGREGATE, None),
    ("ops.first_witness", "sp4q.ops", "first_witness", AGGREGATE, None),
    ("ops.to_numeric", "sp4q.ops", "to_numeric", SPAN, None),
    ("algebras.build", "sp4q.algebras", "build", SPAN, _note_build),
    ("algebras.exact_context", "sp4q.algebras", "exact_context", SPAN, None),
    ("algebras.numeric_context", "sp4q.algebras", "numeric_context", SPAN,
     _note_numeric_context),
    ("algebras.casimir", "sp4q.algebras", "casimir", SPAN, None),
    ("verify.full_suite", "sp4q.verify", "full_suite", SPAN, None),
    ("verify.check_all", "sp4q.verify", "check_all", SPAN, None),
    ("verify.structural", "sp4q.verify", "structural_checks", SPAN, None),
    ("verify.ladder", "sp4q.verify", "check_ladder_actions", SPAN, None),
    ("verify.casimir_spectrum", "sp4q.verify", "check_casimir_spectrum", SPAN, None),
    ("verify.casimir_table", "sp4q.verify", "casimir_table", SPAN, None),
    ("verify.bases", "sp4q.verify", "check_all_bases", SPAN, None),
    ("verify.bases", "sp4q.verify", "check_basis_construction", SPAN, None),
    ("verify.degeneration", "sp4q.verify", "classical_degeneration", SPAN, None),
    ("verify.degeneracy", "sp4q.verify", "degeneracy_resolution", SPAN, None),
    ("verify.series", "sp4q.verify", "check_series_expansions", SPAN, None),
    ("verify.check_relation", "sp4q.verify", "check_relation", SPAN, None),
    ("verify.report", "sp4q.verify", "Report.__init__", COUNT, _note_report),
    ("cli.main", "sp4q.cli", "main", SPAN, None),
)


def _resolve(module: str, path: str):
    obj = sys.modules[module]
    for part in path.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


class Tracer:
    """:meth:`start` installs the wrappers; :meth:`stop` restores every
    binding it replaced."""

    def __init__(self):
        self.run_id = 0
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.layer_busy: defaultdict = defaultdict(float)
        self.layer_self: defaultdict = defaultdict(float)
        self.extra: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self.spans: list = []
        self.aggregates: dict = {}
        self._restore: list = []
        self._stack: list = []  # open frames: [time covered by callees, span id]
        self._depth: Counter = Counter()  # open frames per key and per layer

    # -- installation ------------------------------------------------------

    def start(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already started")
        # Keyed by id: every original stays bound in sp4q, so ids are unique.
        wrappers = {}
        for key, module, path, kind, note in TARGETS:
            original = _resolve(module, path)
            wrappers[id(original)] = self._wrap(key, original, kind, note)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sp4q" or mod_name.startswith("sp4q.")):
                continue
            self._rebind(vars(mod), mod, wrappers)
            for value in list(vars(mod).values()):
                if isinstance(value, type) and value.__module__ == mod_name:
                    self._rebind(vars(value), value, wrappers)

    def _rebind(self, namespace, owner, wrappers) -> None:
        for name, value in list(namespace.items()):
            if id(value) in wrappers:
                self._restore.append((owner, name, value))
                setattr(owner, name, wrappers[id(value)])
                continue
            func = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
            defaults = func.__defaults__ if isinstance(func, types.FunctionType) else None
            if defaults and any(id(d) in wrappers for d in defaults):
                self._restore.append((func, "__defaults__", defaults))
                func.__defaults__ = tuple(wrappers.get(id(d), d) for d in defaults)

    def stop(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, key, fn, kind, note):
        tracer = self
        if kind == COUNT:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                tracer.calls[key] += 1
                note(tracer, args, kwargs, result)
                return result
            return counted

        layer = key.split(".", 1)[0]
        stack, depth = self._stack, self._depth
        calls, busy = self.calls, self.busy
        layer_busy, layer_self = self.layer_busy, self.layer_self
        spans, aggregates = self.spans, self.aggregates
        spanned = kind == SPAN

        def traced(*args, **kwargs):
            parent_span = stack[-1][1] if stack else 0
            span_id = len(spans) + 1 if spanned else parent_span
            if spanned:
                spans.append(None)  # reserve the id; filled in on exit
            frame = [0.0, span_id]
            stack.append(frame)
            depth[key] += 1
            depth[layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                depth[key] -= 1
                depth[layer] -= 1
                calls[key] += 1
                layer_self[layer] += own
                if not depth[key]:
                    busy[key] += dur
                if not depth[layer]:
                    layer_busy[layer] += dur
                if spanned:
                    spans[span_id - 1] = (tracer.run_id, span_id, parent_span, key, t0, t1)
                else:
                    agg = aggregates.get((parent_span, key))
                    if agg is None:
                        agg = aggregates[(parent_span, key)] = [0, 0.0, 0.0]
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += own
            if note is not None:
                note(tracer, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", key)
        traced.__qualname__ = getattr(fn, "__qualname__", key)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        """Write spans, then per-parent aggregates, as JSON lines."""
        run_of = {span[1]: span[0] for span in self.spans if span is not None}
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is None:
                    continue
                run, sid, parent, name, t0, t1 = span
                fh.write(json.dumps({"run": run, "id": sid, "parent": parent,
                                     "name": name, "start": t0, "end": t1}) + "\n")
            for (parent, name), (n, total, own) in sorted(self.aggregates.items()):
                fh.write(json.dumps({"run": run_of.get(parent, 0), "parent": parent,
                                     "name": name, "calls": n, "total_s": total,
                                     "self_s": own}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer figures the benchmark reports (see BENCHMARK.json)."""
        c, b, x, d = self.calls, self.busy, self.extra, self.distinct
        mul_calls = c["qnum.mul"]
        out = {
            "qnum.mul_calls": mul_calls,
            "qnum.mul_term_products": x["qnum.mul_term_products"],
            "qnum.mul_int_share": x["qnum.mul_int_calls"] / mul_calls if mul_calls else 0.0,
            "qnum.mul_s": b["qnum.mul"],
            "qnum.q_factorial_calls": c["qnum.q_factorial"],
            "qnum.q_factorial_distinct": len(d["qnum.q_factorial"]),
            "qnum.q_factorial_s": b["qnum.q_factorial"],
            "ops.gram_calls": c["ops.gram"],
            "ops.gram_distinct": len(d["ops.gram"]),
            "ops.to_numeric_calls": c["ops.to_numeric"],
            "ops.to_numeric_s": b["ops.to_numeric"],
            "ops.matmul_calls": c["ops.matmul"],
            "ops.matmul_nnz_out": x["ops.matmul_nnz_out"],
            "ops.matmul_s": b["ops.matmul"],
            "ops.numop_matmul_s": b["ops.numop_matmul"],
            "ops.first_witness_s": b["ops.first_witness"],
            "algebras.build_calls": c["algebras.build"],
            "algebras.build_distinct": len(d["algebras.build"]),
            "algebras.numeric_context_calls": c["algebras.numeric_context"],
            "algebras.numeric_context_distinct": len(d["algebras.numeric_context"]),
            "algebras.build_s": b["algebras.build"],
            "algebras.numeric_context_s": b["algebras.numeric_context"],
            "algebras.casimir_s": b["algebras.casimir"],
            "fock.spaces": c["fock.space"],
            "verify.check_all_s": b["verify.check_all"],
            "verify.structural_s": b["verify.structural"],
            "verify.ladder_s": b["verify.ladder"],
            "verify.casimir_spectrum_s": b["verify.casimir_spectrum"],
            "verify.bases_s": b["verify.bases"],
            "verify.degeneration_s": b["verify.degeneration"],
            "verify.series_s": b["verify.series"],
            "verify.check_relation_s": b["verify.check_relation"],
            "verify.reports": x["verify.reports"],
            "verify.unexpected": x["verify.unexpected"],
            "cli.main_calls": c["cli.main"],
            "trace.spans": sum(1 for s in self.spans if s is not None),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self[layer]
            out[f"{layer}.busy_s"] = self.layer_busy[layer]
        return out
