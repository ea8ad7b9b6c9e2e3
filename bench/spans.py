"""Run-time spans around the engine's layer boundaries.

The tracer replaces functions of the fockcalc modules with timing wrappers
from outside; the engine's source is not touched.  Each wrapped call is a
span (name, start, end, parent).  Self time is the span's duration minus the
durations of its child spans, accumulated on the fly so that the hot kernels
(millions of calls) cost no memory; the first `keep` spans are also kept in
memory as records and written out when the round ends.

A hook whose target no longer exists (a private worker renamed or removed by
a later change) is recorded as absent instead of failing the run.
"""

import contextlib
import json
import sys
from time import perf_counter

import expect


class Tracer:
    def __init__(self, keep=100_000):
        self.keep = keep
        self.stack = []          # open spans, as frames made by _open
        self.records = []        # [name, start, end, parent index]
        self.dropped = 0
        self.stats = {}          # name -> [calls, self seconds, total seconds]
        self.counters = {}
        self.absent = set()

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _open(self, name):
        stack, records = self.stack, self.records
        parent = stack[-1][0] if stack else -1
        start = perf_counter()
        if len(records) < self.keep:
            index = len(records)
            records.append([name, start, None, parent])
        else:
            index = -1
            self.dropped += 1
        frame = [index, 0.0, start]  # record index, child seconds, start
        stack.append(frame)
        return frame

    def _close(self, stat, frame):
        end = perf_counter()
        stack = self.stack
        stack.pop()
        duration = end - frame[2]
        if stack:
            stack[-1][1] += duration
        if frame[0] >= 0:
            self.records[frame[0]][2] = end
        stat[0] += 1
        stat[1] += duration - frame[1]
        stat[2] += duration

    def wrap(self, name, fn, pre=None, post=None):
        """A wrapper recording one span per call of fn.

        `pre(args)` runs before the span opens and its result is handed to
        `post(state, args, result)`, which runs after the span closes.
        """
        stat = self.stat(name)
        open_span, close_span = self._open, self._close

        def wrapper(*args, **kwargs):
            state = pre(args) if pre else None
            frame = open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(stat, frame)
            if post:
                post(state, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        stat = self.stat(name)
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(stat, frame)

    def patch_function(self, module, attr, name, pre=None, post=None):
        """Wrap module.attr and rebind every fockcalc module's reference to it.

        Modules that did `from .fock import create_into` hold their own
        binding, so all bindings of the same function object are replaced.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.absent.add(name)
            return
        wrapper = self.wrap(name, original, pre, post)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fockcalc"
                                   or mod_name.startswith("fockcalc.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr, name, pre=None, post=None):
        original = cls.__dict__.get(attr)
        if original is None:
            self.absent.add(name)
            return
        setattr(cls, attr, self.wrap(name, original, pre, post))

    def dump(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "dropped": self.dropped,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": self.records,
                       "stats": {k: {"calls": v[0], "self_s": v[1], "s": v[2]}
                                 for k, v in sorted(self.stats.items())},
                       "counters": self.counters}, fh)


def install(tracer):
    """Hook every layer boundary the per-layer metrics read.

    Called after `import fockcalc` and before any algebra is loaded, so
    that loads and the memo tables of every algebra are seen.
    """
    from fockcalc import _linalg, class_algebra, fock, generators, operators, surface

    algebras = []
    tracer.algebras = algebras

    def terms_in(counter):
        return lambda state, args, result: tracer.count(counter, len(args[3]))

    tracer.patch_function(fock, "prepend_part", "fock.prepend_part")
    tracer.patch_function(fock, "create_into", "fock.create_into",
                          post=terms_in("fock.create_into.terms_in"))
    tracer.patch_function(fock, "contract_into", "fock.contract_into",
                          post=terms_in("fock.contract_into.terms_in"))
    tracer.patch_function(
        fock, "monomial_basis", "fock.monomial_basis",
        post=lambda s, a, r: tracer.count("fock.monomial_basis.monomials", len(r)))
    tracer.patch_function(fock, "canonicalize", "fock.canonicalize")
    tracer.patch_function(fock, "inner_product", "fock.inner_product")

    tracer.patch_function(surface, "load_algebra", "surface.load_algebra",
                          post=lambda s, a, r: algebras.append(r))
    tracer.patch_function(surface, "mul", "surface.mul")

    tracer.patch_function(operators, "_virasoro_mono", "operators.L_mono")
    tracer.patch_function(operators, "_boundary_mono", "operators.d_mono")
    tracer.patch_function(operators, "adjoint_matrix", "operators.adjoint_matrix")

    tracer.patch_function(generators, "commutator_expand",
                          "generators.commutator_expand")
    tracer.patch_function(generators, "nested_bracket_check",
                          "generators.nested_bracket_check")
    tracer.patch_function(generators, "apply_formal_g", "generators.apply_formal_g")
    tracer.patch_function(generators, "_q1k_mono", "generators.q1k_mono")
    tracer.patch_function(generators, "_gk_mono", "generators.gk_mono")

    row_cache = getattr(class_algebra, "_ROW_CACHE", None)
    if row_cache is None:
        tracer.absent.add("class_algebra.product_row")
    else:
        def row_built(before, args, result):
            if len(row_cache) > before:
                lam, n = args
                tracer.count("class_algebra.product_row.builds")
                # one composition g*w per class member and class representative
                tracer.count("class_algebra.product_row.perms_walked",
                             expect.class_size(lam) * expect.partition_number(n))

        tracer.patch_function(class_algebra, "_product_row",
                              "class_algebra.product_row",
                              pre=lambda args: len(row_cache), post=row_built)
    tracer.patch_method(class_algebra.CentralElement, "__mul__",
                        "class_algebra.central_mul")

    tracer.patch_method(
        _linalg.RowSpan, "add", "linalg.rowspan_add",
        post=lambda s, a, grew: grew and tracer.count("linalg.rowspan_add.grew"))
    tracer.patch_function(_linalg, "solve", "linalg.solve")


# -- per-layer metrics -----------------------------------------------------------

SUITES = ("heisenberg", "Lq", "LL", "qprime", "expansion", "nested_bracket", "pairing")
MEMO_TABLES = {"operators.L_mono": "L", "operators.d_mono": "d",
               "generators.q1k_mono": "q1k", "generators.gk_mono": "gk"}

PER_LAYER = (
    ["fock.prepend_part.calls", "fock.prepend_part.self_s",
     "fock.create_into.calls", "fock.create_into.terms_in", "fock.create_into.self_s",
     "fock.contract_into.calls", "fock.contract_into.terms_in",
     "fock.contract_into.self_s",
     "fock.monomial_basis.calls", "fock.monomial_basis.monomials",
     "fock.monomial_basis.self_s",
     "fock.canonicalize.calls", "fock.canonicalize.self_s",
     "fock.inner_product.calls", "fock.inner_product.self_s",
     "surface.load_algebra.self_s", "surface.mul.calls", "surface.mul.self_s"]
    + [f"operators.verify.{s}.{m}" for s in SUITES for m in ("checks", "s")]
    + ["operators.memo.entries"]
    + [f"operators.{op}.{m}" for op in ("L_mono", "d_mono")
       for m in ("calls", "misses", "hit_ratio", "self_s")]
    + ["operators.adjoint_matrix.calls", "operators.adjoint_matrix.self_s",
       "generators.commutator_expand.calls", "generators.commutator_expand.self_s",
       "generators.nested_bracket_check.calls", "generators.nested_bracket_check.s",
       "generators.apply_formal_g.calls", "generators.apply_formal_g.self_s"]
    + [f"generators.{op}.{m}" for op in ("q1k_mono", "gk_mono")
       for m in ("calls", "misses", "hit_ratio")]
    + ["class_algebra.product_row.builds", "class_algebra.product_row.perms_walked",
       "class_algebra.product_row.self_s",
       "class_algebra.central_mul.calls", "class_algebra.central_mul.self_s",
       "linalg.rowspan_add.calls", "linalg.rowspan_add.grew_ratio",
       "linalg.rowspan_add.self_s", "linalg.solve.calls", "linalg.solve.self_s",
       "trace.overhead_s"])

_UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower"), "s": ("s", "lower"),
          "terms_in": ("count", "lower"), "monomials": ("count", "lower"),
          "misses": ("count", "lower"), "hit_ratio": ("ratio", "higher"),
          "grew_ratio": ("ratio", "higher"), "builds": ("count", "lower"),
          "perms_walked": ("count", "lower"), "checks": ("count", "higher"),
          "entries": ("count", "lower"), "overhead_s": ("s", "lower")}


def unit_of(name):
    """(unit, better) of a per-layer metric, from its last name component."""
    return _UNITS[name.rsplit(".", 1)[1]]


def raw_counts(tracer):
    """What one traced worker measured, as plain data that add up across the
    worker processes of a round."""
    tables = {}
    memo_ok = all(hasattr(alg, "_op_caches") for alg in tracer.algebras)
    for alg in tracer.algebras:
        for key, table in getattr(alg, "_op_caches", {}).items():
            tables[key] = tables.get(key, 0) + len(table)
    absent = sorted(tracer.absent | (set() if memo_ok else {"memo tables"}))
    return {"stats": tracer.stats, "counters": tracer.counters,
            "tables": tables, "absent": absent}


def merge_counts(parts):
    """Sum the raw counts of the worker processes of one round."""
    merged = {"stats": {}, "counters": {}, "tables": {}, "absent": set()}
    for part in parts:
        for name, values in part["stats"].items():
            old = merged["stats"].get(name, [0, 0.0, 0.0])
            merged["stats"][name] = [a + b for a, b in zip(old, values)]
        for key in ("counters", "tables"):
            for name, value in part[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        merged["absent"].update(part["absent"])
    return merged


def layer_metrics(counts):
    """Values of every PER_LAYER metric but trace.overhead_s for one traced
    round; None marks a metric whose hook target is absent from the program."""
    stats, counters, tables = counts["stats"], counts["counters"], counts["tables"]

    def ratio(part, whole):
        return part / whole if whole else 0.0

    out = {}
    for name in PER_LAYER:
        hook, field = name.rsplit(".", 1)
        calls, self_s, total_s = stats.get(hook, (0, 0.0, 0.0))
        if hook in counts["absent"]:
            value = None
        elif field == "calls":
            value = calls
        elif field == "self_s":
            value = self_s
        elif field == "s":
            value = total_s
        elif field in ("misses", "hit_ratio", "entries"):
            if "memo tables" in counts["absent"]:
                value = None
            elif field == "entries":
                value = sum(tables.values())
            else:
                misses = tables.get(MEMO_TABLES[hook], 0)
                value = misses if field == "misses" else ratio(calls - misses, calls)
        elif field == "grew_ratio":
            value = ratio(counters.get(hook + ".grew", 0), calls)
        elif field == "overhead_s":
            continue
        else:
            value = counters.get(name, 0)
        out[name] = value
    return out
