"""Traced mode: spans and counters wrapped around nodalcover from outside.

``Tracer.install`` replaces the library's public entry points, in every
module namespace that imported them, with wrappers; ``uninstall`` puts the
originals back.  Nothing under ``src/`` changes.

* A span records (id, parent id, name, start, end, request id).  Its self
  time is its duration minus the durations of its child spans; the
  aggregates are kept per name, and the records themselves stay in memory
  (up to ``SPAN_CAP``) until ``write_spans`` at the end of the run.
* ``iter_words_raw`` is timed across each ``next()``, so the generator's
  work lands in its span even though the consumer runs in between; one
  record covers the generator's lifetime.  ``carry_step`` callbacks run
  inside ``next()`` and are child spans of it.
* The per-element kernels (``_make_rf`` split by denominator shape,
  ``_pgcd``, ``_pdivmod``, ``_pmul``, ``_concat``) and a few hot methods
  only count calls, which keeps the overhead bounded.

The library runs in one thread and never waits on a lock, queue or other
thread, so no layer has a wait metric.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter, defaultdict

GRADES = range(9)  # enumeration grades reported as groups.enum.words.g<n>

# per_layer metrics, in the order BENCHMARK.json lists them
METRICS = (
    ("field.make_rf.calls", "count"), ("field.make_rf.const_den", "count"),
    ("field.make_rf.monomial_den", "count"), ("field.make_rf.general_den", "count"),
    ("field.pgcd.calls", "count"), ("field.pdivmod.calls", "count"),
    ("field.pmul.calls", "count"),
    ("field.matmul.calls", "count"), ("field.matmul.self_s", "s"),
    ("field.matpow.calls", "count"),
    ("field.solve_linear.calls", "count"), ("field.solve_linear.cells", "count"),
    ("field.solve_linear.self_s", "s"), ("field.inverse.calls", "count"),
    ("field.det.calls", "count"), ("field.lattice_hermite.calls", "count"),
    ("field.lattice_hermite.self_s", "s"),
    ("groups.enum.calls", "count"), ("groups.enum.repeat_calls", "count"),
    ("groups.enum.words", "count"),
    *((f"groups.enum.words.g{n}", "count") for n in GRADES),
    ("groups.enum.kernel_share", "ratio"), ("groups.enum.self_s", "s"),
    ("groups.concat.calls", "count"),
    ("covering.certify_free.calls", "count"), ("covering.certify_free.self_s", "s"),
    ("covering.free.checks", "count"), ("covering.free.direct_share", "ratio"),
    ("covering.domain.self_s", "s"), ("covering.cover_witness.calls", "count"),
    ("covering.cover_witness.self_s", "s"), ("covering.component_action.calls", "count"),
    ("descent.check_cocycle.self_s", "s"), ("descent.cocycle.pairs", "count"),
    ("descent.twist_map.calls", "count"), ("descent.twist_map.words", "count"),
    ("descent.twist_map.self_s", "s"),
    ("descent.twist.calls", "count"), ("descent.integralize.self_s", "s"),
    ("descent.lattice_of.calls", "count"), ("descent.lattice_of.distinct", "count"),
    ("descent.descend_inflation.self_s", "s"),
    ("reps.eval_word.calls", "count"), ("reps.eval_word.self_s", "s"),
    ("reps.solve_intertwining.self_s", "s"), ("reps.build.self_s", "s"),
    ("stratified.tensor_fdiv.self_s", "s"), ("stratified.hom_fdiv.self_s", "s"),
    ("specialize.sp_tensor.self_s", "s"), ("specialize.square.self_s", "s"),
    ("specialize.square.words", "count"),
    ("hopf.function_hopf.self_s", "s"), ("hopf.tower_hull.self_s", "s"),
    ("io.load.calls", "count"), ("io.load.self_s", "s"), ("io.dumps.self_s", "s"),
    ("cli.command.self_s", "s"),
    ("curves.pi1_presentation.calls", "count"), ("curves.pi1_presentation.self_s", "s"),
    *((f"{layer}.errors", "count") for layer in (
        "field", "groups", "curves", "reps", "covering", "descent",
        "stratified", "specialize", "hopf", "io", "cli")),
    ("trace.overhead_ratio", "ratio"),
)

# (module, attribute, span name) for module-level functions traced as spans
SPANS = (
    ("field", "solve_linear", "field.solve_linear"),
    ("field", "lattice_hermite", "field.lattice_hermite"),
    ("curves", "pi1_presentation", "curves.pi1_presentation"),
    ("reps", "eval_word", "reps.eval_word"),
    ("reps", "solve_intertwining", "reps.solve_intertwining"),
    ("covering", "certify_free_action", "covering.certify_free"),
    ("covering", "fundamental_domain", "covering.domain"),
    ("covering", "cover_witness", "covering.cover_witness"),
    ("descent", "check_cocycle", "descent.check_cocycle"),
    ("descent", "integralize", "descent.integralize"),
    ("descent", "descend_inflation", "descent.descend_inflation"),
    ("stratified", "tensor_fdiv", "stratified.tensor_fdiv"),
    ("stratified", "hom_fdiv", "stratified.hom_fdiv"),
    ("specialize", "sp_tensor_certificate", "specialize.sp_tensor"),
    ("specialize", "commuting_square_check", "specialize.square"),
    ("hopf", "function_hopf", "hopf.function_hopf"),
    ("hopf", "tower_hull", "hopf.tower_hull"),
    ("io", "load_group", "io.load"),
    ("io", "load_curve", "io.load"),
    ("io", "load_rep", "io.load"),
    ("io", "load_fq", "io.load"),
    ("io", "dumps_report", "io.dumps"),
    ("cli", "main", "cli.command"),
)

# (module, attribute, counter name) for module-level functions only counted
COUNTERS = (
    ("field", "_pgcd", "field.pgcd.calls"),
    ("field", "_pdivmod", "field.pdivmod.calls"),
    ("field", "_pmul", "field.pmul.calls"),
    ("groups", "_concat", "groups.concat.calls"),
    ("covering", "component_action", "covering.component_action.calls"),
)

# (module, class, method, name, kind)
METHODS = (
    ("field", "MatrixK", "__mul__", "field.matmul", "span"),
    ("field", "MatrixK", "__pow__", "field.matpow", "span"),
    ("field", "MatrixK", "det", "field.det", "span"),
    ("field", "MatrixK", "inverse", "field.inverse", "span"),
    ("descent", "MeromorphicCocycle", "twist_map", "descent.twist_map", "span"),
    ("descent", "MeromorphicCocycle", "twist", "descent.twist.calls", "counter"),
)

NOT_ERRORS = (StopIteration, GeneratorExit)
SPAN_CAP = 200_000  # span records kept in memory; aggregates are always complete


class Tracer:
    def __init__(self):
        self.stack: list = []          # open frames: (span id, [child seconds])
        self.spans: list = []          # (id, parent, name, start, end, request)
        self.dropped = 0
        self.next_id = 1
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.request = 0
        self._patches: list = []
        self._enum_seen: set = set()
        self._lattice_seen: set = set()
        self._keep: list = []

    # -- request scope ----------------------------------------------------

    def begin_request(self, request_id: int):
        """Start a request: spans carry its id, and repeat detection resets."""
        self.request = request_id
        self._enum_seen = set()
        self._lattice_seen = set()
        self._keep = []  # holds objects whose id() keys a seen-set entry

    # -- spans ------------------------------------------------------------

    def _close(self, name, sid, parent, start, frame, error):
        end = time.perf_counter()
        self.stack.pop()
        dur = end - start
        self.self_s[name] += dur - frame[0]
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][1][0] += dur
        if error:
            self.errors[name.split(".", 1)[0]] += 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent, name, start, end, self.request))
        else:
            self.dropped += 1

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(args, result) adds result-based counts."""
        stack = self.stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1][0] if stack else 0
            frame = [0.0]
            stack.append((sid, frame))
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(name, sid, parent, start, frame, not isinstance(exc, NOT_ERRORS))
                raise
            self._close(name, sid, parent, start, frame, False)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- special wrappers -------------------------------------------------

    def _make_rf(self, fn):
        counts = self.counts

        def make_rf(F, num, den):
            n = len(den)
            while n and not den[n - 1]:
                n -= 1
            if n == 1:
                counts["field.make_rf.const_den"] += 1
            elif n and not any(den[:n - 1]):
                counts["field.make_rf.monomial_den"] += 1
            else:
                counts["field.make_rf.general_den"] += 1
            return fn(F, num, den)

        make_rf.__wrapped__ = fn
        return make_rf

    def _lattice_of(self, fn):
        counts = self.counts

        def lattice_of(assignment, c):
            counts["descent.lattice_of.calls"] += 1
            key = (id(assignment), c.j, c.rep.letters)
            if key not in self._lattice_seen:
                self._lattice_seen.add(key)
                self._keep.append(assignment)
                counts["descent.lattice_of.distinct"] += 1
            return fn(assignment, c)

        lattice_of.__wrapped__ = fn
        return lattice_of

    def _iter_words_raw(self, fn):
        tracer = self

        def iter_words_raw(sig, max_len, carry_init=None, carry_step=None,
                           sorted_grades=True):
            tracer.counts["groups.enum.calls"] += 1
            key = (sig.r, tuple(G.table for G in sig.factors), max_len)
            if key in tracer._enum_seen:
                tracer.counts["groups.enum.repeat_calls"] += 1
            tracer._enum_seen.add(key)
            if carry_step is not None:
                carry_step = tracer.span("groups.enum.carry", carry_step)
            gen = fn(sig, max_len, carry_init, carry_step, sorted_grades)
            return tracer._traced_generator(gen, sig)

        iter_words_raw.__wrapped__ = fn
        return iter_words_raw

    def _traced_generator(self, gen, sig):
        stack, perf, counts = self.stack, time.perf_counter, self.counts
        sid = self.next_id
        self.next_id = sid + 1
        parent = stack[-1][0] if stack else 0
        request = self.request
        created = perf()
        r = sig.r
        ident = sig.identity_tuple()
        busy = child = 0.0
        grades: Counter = Counter()
        kernel = 0
        try:
            while True:
                frame = [0.0]
                stack.append((sid, frame))
                start = perf()
                try:
                    item = next(gen)
                except StopIteration:
                    item = None
                except BaseException:
                    self.errors["groups"] += 1
                    raise
                finally:
                    dur = perf() - start
                    stack.pop()
                    busy += dur
                    child += frame[0]
                    if stack:
                        stack[-1][1][0] += dur
                if item is None:
                    return
                letters, al, _ = item
                grades[sum(abs(v) if fid < r else 1 for fid, v in letters)] += 1
                if letters and al == ident:
                    kernel += 1
                yield item
        finally:
            gen.close()
            self.self_s["groups.enum"] += busy - child
            counts["groups.enum.words"] += sum(grades.values())
            counts["groups.enum.kernel_words"] += kernel
            for g, n in grades.items():
                counts[f"groups.enum.words.g{g}"] += n
            if len(self.spans) < SPAN_CAP:
                self.spans.append((sid, parent, "groups.enum", created, perf(), request))
            else:
                self.dropped += 1

    # -- install / uninstall ---------------------------------------------

    def _replace(self, original, wrapper):
        """Swap original for wrapper in every nodalcover module namespace."""
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("nodalcover") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def install(self, lib):
        counts = self.counts

        def add(name, amount):
            counts[name] += amount

        after = {
            "field.solve_linear": lambda a, res: add("field.solve_linear.cells",
                                                     a[0].rows * a[0].cols),
            "covering.certify_free": lambda a, res: (
                add("covering.free.checks", res.checks),
                add("covering.free.direct", res.strategy == "direct-pairing")),
            "descent.check_cocycle": lambda a, res: add("descent.cocycle.pairs",
                                                        res.pairs_checked),
            "descent.twist_map": lambda a, res: add("descent.twist_map.words", len(res)),
            "specialize.square": lambda a, res: add("specialize.square.words",
                                                    res.words_checked),
        }
        for mod, attr, name in SPANS:
            fn = getattr(getattr(lib, mod), attr)
            self._replace(fn, self.span(name, fn, after.get(name)))
        for mod, attr, name in COUNTERS:
            fn = getattr(getattr(lib, mod), attr)
            self._replace(fn, self.counter(name, fn))
        self._replace(lib.field._make_rf, self._make_rf(lib.field._make_rf))
        self._replace(lib.groups.iter_words_raw, self._iter_words_raw(lib.groups.iter_words_raw))
        for mod, cls_name, meth, name, kind in METHODS:
            cls = getattr(getattr(lib, mod), cls_name)
            fn = vars(cls)[meth]
            wrapper = self.span(name, fn, after.get(name)) if kind == "span" else self.counter(name, fn)
            setattr(cls, meth, wrapper)
            self._patches.append((cls, meth, fn))
        la = lib.descent.LatticeAssignment
        self._patches.append((la, "lattice_of", vars(la)["lattice_of"]))
        la.lattice_of = self._lattice_of(vars(la)["lattice_of"])
        cr = lib.reps.ContinuousRep
        build = vars(cr)["build"]
        self._patches.append((cr, "build", build))
        cr.build = classmethod(self.span("reps.build", build.__func__))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict:
        c, calls, self_s = self.counts, self.calls, self.self_s
        values = dict(c)
        values["field.make_rf.calls"] = (c["field.make_rf.const_den"] + c["field.make_rf.monomial_den"]
                                         + c["field.make_rf.general_den"])
        for name in ("field.matmul", "field.matpow", "field.solve_linear", "field.inverse",
                     "field.det", "field.lattice_hermite", "covering.certify_free",
                     "covering.cover_witness", "descent.twist_map", "reps.eval_word",
                     "io.load", "curves.pi1_presentation"):
            values[f"{name}.calls"] = calls[name]
        for name in list(self_s):
            values[f"{name}.self_s"] = self_s[name]
        words = c["groups.enum.words"]
        values["groups.enum.kernel_share"] = c["groups.enum.kernel_words"] / words if words else 0.0
        certs = calls["covering.certify_free"]
        values["covering.free.direct_share"] = c["covering.free.direct"] / certs if certs else 0.0
        for layer, n in self.errors.items():
            values[f"{layer}.errors"] = n
        values["trace.overhead_ratio"] = overhead_ratio
        return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in METRICS}

    def write_spans(self, path):
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "request"],
                       "names": names, "dropped": self.dropped,
                       "spans": [(s[0], s[1], index[s[2]], round(s[3], 7), round(s[4], 7), s[5])
                                 for s in self.spans]}, fh)
