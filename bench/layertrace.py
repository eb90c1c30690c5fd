"""Per-layer tracing of groundwork from outside the package.

`Tracer.install` wraps the public functions of each layer module and the
public methods of the classes it defines, and rebinds every wrapped
function in every groundwork module namespace that imported it (so
`from .intmat import solve as int_solve` is traced too).  A call opens a
span only when it crosses from one layer into another; calls inside a
layer are counted by the layer-specific hooks but add no span.  Spans
(id, name, start, end, parent, job) stay in memory and are written out
at the end.  `fractions.Fraction` arithmetic is counted by wrapping its
operators, only while the tracer is installed.
"""
import fractions
import gzip
import math
import os
import time
import types
from array import array
from functools import reduce, wraps

LAYERS = ("intmat", "ratmat", "fpgroup", "latpair", "shcoh", "modres",
          "fincat", "presheaf", "site", "frac", "mttchk", "catalog")

COUNTERS = (
    "intmat.snf_calls", "intmat.snf_distinct", "intmat.snf_cells",
    "intmat.solve_calls", "intmat.hnf_calls",
    "intmat.inverse_unimodular_calls",
    "ratmat.fraction_ops", "ratmat.rref_calls",
    "fpgroup.presentations", "fpgroup.kernel_cokernel_calls",
    "fpgroup.normal_form_calls",
    "latpair.image_calls", "latpair.kernel_image_calls",
    "shcoh.godement_embedding_calls", "shcoh.sections_calls",
    "modres.coinduced_elements", "modres.homs_enumerated",
    "modres.left_ideals_calls", "modres.cap_exits",
    "presheaf.maps_enumerated", "site.sieves_enumerated",
    "site.matching_families_enumerated", "fincat.functors_enumerated",
    "frac.roofs_enumerated", "mttchk.formulas_checked", "catalog.loads",
)

FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                "__rmul__", "__truediv__", "__rtruediv__", "__floordiv__",
                "__rfloordiv__", "__mod__", "__rmod__", "__pow__",
                "__rpow__", "__neg__", "__pos__", "__abs__")

# Private helpers wrapped for a counter only: the discrete Godement step
# of the long exact sequence is counted with the divisible one.
EXTRA = {"shcoh": ("_godement_finite",)}


def _group_order(G):
    return reduce(lambda a, b: a * b, G.invariant_factors, 1)


def _hom_size(A, B):
    """|Hom_Z(A, B)| from invariant factors (0 standing for Z)."""
    n = 1
    for a in A.invariant_factors:
        for b in B.invariant_factors:
            n *= math.gcd(a, b) if (a or b) else 1
    return n


class Tracer:
    """Spans and counts of one imported groundwork, while installed."""

    def __init__(self, modules):
        self.modules = modules          # layer name -> module object
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.snf_seen = set()
        # spans in completion order, one array per field; ids are given
        # at entry, names index self.names, job -1 marks set-up
        self.names, self.name_index = [], {}
        self.span_id, self.span_name = array("q"), array("i")
        self.span_start, self.span_end = array("d"), array("d")
        self.span_parent, self.span_job = array("q"), array("q")
        self.stack = []                 # [layer, span id, child time]
        self.job = -1
        self.next_id = 0
        self.patches = []               # (owner, name, original)
        self.hooks = self._hooks()

    # -- counters computed from arguments and results only ----------------

    def _hooks(self):
        c = self.counts

        def bump(name, n=1):
            def hook(args, result):
                c[name] += n
            return hook

        def snf(args, result):
            A = args[0]
            c["intmat.snf_calls"] += 1
            c["intmat.snf_cells"] += A.rows * A.cols
            self.snf_seen.add((A.rows, A.cols, A.entries))

        def coinduced(args, result):
            c["modres.coinduced_elements"] += _group_order(
                result.module.additive)

        def homs(args, result):
            c["modres.homs_enumerated"] += _hom_size(args[0].additive,
                                                     args[1].additive)

        def presheaf_maps(args, result):
            F, G = args[0], args[1]
            n = 1
            for o in F.cat.objects:
                n *= len(G.fibers.get(o, ())) ** len(F.fibers.get(o, ()))
            c["presheaf.maps_enumerated"] += n

        def sieves(args, result):
            c["site.sieves_enumerated"] += 1 << sum(
                1 for f in args[0].arrows if args[0].cod[f] == args[1])

        def families(args, result):
            F, S = args[0], args[1]
            n = 1
            for f in S.arrows:
                n *= len(F.fibers.get(F.cat.dom[f], ()))
            c["site.matching_families_enumerated"] += n

        def length(name):
            def hook(args, result):
                c[name] += len(result)
            return hook

        return {
            ("intmat", "snf"): snf,
            ("intmat", "solve"): bump("intmat.solve_calls"),
            ("intmat", "hnf"): bump("intmat.hnf_calls"),
            ("intmat", "hnf_with_transform"): bump("intmat.hnf_calls"),
            ("intmat", "inverse_unimodular"):
                bump("intmat.inverse_unimodular_calls"),
            ("ratmat", "rref"): bump("ratmat.rref_calls"),
            ("fpgroup", "fp_from_presentation"):
                bump("fpgroup.presentations"),
            ("fpgroup", "fp_kernel_cokernel"):
                bump("fpgroup.kernel_cokernel_calls"),
            ("fpgroup", "FpAbGroup.normal_form"):
                bump("fpgroup.normal_form_calls"),
            ("latpair", "SpanLattice.image"): bump("latpair.image_calls"),
            ("latpair", "latpair_kernel_image"):
                bump("latpair.kernel_image_calls"),
            ("shcoh", "godement_embedding"):
                bump("shcoh.godement_embedding_calls"),
            ("shcoh", "_godement_finite"):
                bump("shcoh.godement_embedding_calls"),
            ("shcoh", "sections"): bump("shcoh.sections_calls"),
            ("modres", "coinduced"): coinduced,
            ("modres", "r_linear_homs"): homs,
            ("modres", "left_ideals"): bump("modres.left_ideals_calls"),
            ("presheaf", "enumerate_presheaf_maps"): presheaf_maps,
            ("site", "all_sieves"): sieves,
            ("site", "matching_families"): families,
            ("fincat", "enumerate_functors"):
                length("fincat.functors_enumerated"),
            ("frac", "enumerate_roofs"): length("frac.roofs_enumerated"),
            ("mttchk", "is_delta0"): bump("mttchk.formulas_checked"),
            ("mttchk", "is_set_theoretic"): bump("mttchk.formulas_checked"),
            ("mttchk", "abstract_wf"): bump("mttchk.formulas_checked"),
            ("catalog", "load"): bump("catalog.loads"),
        }

    # -- spans -------------------------------------------------------------

    def _wrap(self, layer, qualname, func):
        hook = self.hooks.get((layer, qualname))
        stack = self.stack
        perf = time.perf_counter
        label = self._name("%s.%s" % (layer, qualname))

        @wraps(func)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                result = func(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            self.calls[layer] += 1
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [layer, span_id, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                self.self_s[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                self._record(span_id, label, start, end, parent)
            if hook is not None:
                hook(args, result)
            return result
        return traced

    def _name(self, name):
        if name not in self.name_index:
            self.name_index[name] = len(self.names)
            self.names.append(name)
        return self.name_index[name]

    def _record(self, span_id, name, start, end, parent):
        self.span_id.append(span_id)
        self.span_name.append(name)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent)
        self.span_job.append(self.job)

    def begin_job(self, job, name):
        """Open the root span of job number `job` (-1 for set-up); calls
        from the benchmark into a layer become its children."""
        self.job = job
        self._root = (self.next_id, self._name("job." + name),
                      time.perf_counter())
        self.next_id += 1
        self.stack.append(["bench", self._root[0], 0.0])

    def end_job(self):
        self.stack.pop()
        span_id, name, start = self._root
        self._record(span_id, name, start, time.perf_counter(), -1)
        self.job = -1

    # -- installation --------------------------------------------------------

    def _set(self, owner, name, value):
        self.patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        replaced = {}       # id(original function) -> wrapper
        for layer in LAYERS:
            mod = self.modules[layer]
            for name, obj in sorted(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and \
                        obj.__module__ == mod.__name__ and \
                        (not name.startswith("_") or
                         name in EXTRA.get(layer, ())):
                    replaced[id(obj)] = self._wrap(layer, name, obj)
                elif isinstance(obj, type) and \
                        obj.__module__ == mod.__name__ and \
                        not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        for mod in self.modules.values():
            for name, obj in sorted(vars(mod).items()):
                if id(obj) in replaced and isinstance(obj, types.FunctionType):
                    self._set(mod, name, replaced[id(obj)])
        counts = self.counts
        for op in FRACTION_OPS:
            original = fractions.Fraction.__dict__.get(op)
            if original is None:
                continue

            def counted(*args, _f=original):
                counts["ratmat.fraction_ops"] += 1
                return _f(*args)
            self._set(fractions.Fraction, op, counted)

    def _wrap_class(self, layer, cls):
        for name, attr in sorted(vars(cls).items()):
            if name.startswith("_"):
                continue
            qual = "%s.%s" % (cls.__name__, name)
            if isinstance(attr, staticmethod):
                self._set(cls, name, staticmethod(
                    self._wrap(layer, qual, attr.__func__)))
            elif isinstance(attr, classmethod):
                self._set(cls, name, classmethod(
                    self._wrap(layer, qual, attr.__func__)))
            elif isinstance(attr, types.FunctionType):
                self._set(cls, name, self._wrap(layer, qual, attr))

    def uninstall(self):
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)
        self.patches = []

    # -- results ---------------------------------------------------------------

    def metrics(self, src_dir):
        out = {}
        for layer in LAYERS:
            with open(os.path.join(src_dir, layer + ".py")) as fh:
                lines = sum(1 for _ in fh)
            out[layer + ".calls"] = (self.calls[layer], "count")
            out[layer + ".self_s"] = (self.self_s[layer], "s")
            out[layer + ".lines"] = (lines, "count")
        self.counts["intmat.snf_distinct"] = len(self.snf_seen)
        for name in COUNTERS:
            out[name] = (self.counts[name], "count")
        return out

    def write_spans(self, path):
        """Tab-separated spans: id, name, start, end, parent, job."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\tjob\n")
            for row in zip(self.span_id, self.span_name, self.span_start,
                           self.span_end, self.span_parent, self.span_job):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n"
                         % (row[0], self.names[row[1]], row[2], row[3],
                            row[4], row[5]))
