"""Spans around the public entry points of each twistcert module.

``install(tracer)`` replaces each probed function or method, wherever the
package binds it (the defining module, the modules that import it, and
the package namespace), by a wrapper that records a span: name, start,
end and parent.  Spans are kept in typed arrays in memory, recorded only
while ``tracer.active`` is set (inside an operation's timed span), and
written out by ``dump`` when the run ends.

``laurent`` is the arithmetic leaf: its entry points call each other
(``-`` calls ``+``, ``**`` and ``RingHom.apply`` call ``*``), so a laurent
span is recorded only when its caller is outside laurent.  Spans of the
other modules nest freely (``in_U`` calls ``in_A``; ``act`` calls
``canonical_vertex``).  ``laurent.ring_eq`` is a plain counter of every
``LaurentRing.__eq__`` call, since there are millions of them.

A span's self time is its duration minus the durations of its child
spans.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter


def _products(counts, args, result):
    other = args[1]
    n = len(args[0].terms)
    counts["laurent.mul.term_products"] += \
        n * len(other.terms) if hasattr(other, "terms") else n


def _terms_in(index):
    def count(counts, args, result):
        counts["laurent.hom_apply.terms_in"] += len(args[index].terms)
    return count


def _letters(counts, args, result):
    counts["amalgam.normal_form.letters"] += len(result)


def _json_bytes(counts, args, result):
    counts["amalgam.json_bytes"] += len(result.encode())


# (module, attribute, span name, counter or None)
PROBES = (
    ("laurent", "LaurentPoly.__mul__", "laurent.mul", _products),
    ("laurent", "LaurentPoly.__rmul__", "laurent.mul", _products),
    ("laurent", "LaurentPoly.__add__", "laurent.add", None),
    ("laurent", "LaurentPoly.__sub__", "laurent.add", None),
    ("laurent", "RingHom.apply", "laurent.hom_apply", _terms_in(1)),
    ("laurent", "specialize_phi", "laurent.hom_apply", _terms_in(0)),
    ("laurent", "specialize_single", "laurent.hom_apply", _terms_in(0)),
    ("laurent", "parse_poly", "laurent.parse", None),
    ("laurent", "LaurentPoly.__str__", "laurent.print", None),
    ("homology", "twist_apply", "homology.twist_apply", None),
    ("homology", "pairing_polynomial", "homology.pairing_polynomial", None),
    ("homology", "pushforward_b1_twist", "homology.pushforward", None),
    ("homology", "validate_lift", "homology.validate_lift", None),
    ("rep", "rho", "rep.rho", None),
    ("rep", "Matrix2.__matmul__", "rep.matmul", None),
    ("rep", "Matrix2.inverse", "rep.inverse", None),
    ("rep", "matrix_Mk", "rep.matrix_Mk", None),
    ("tree", "act", "tree.act", None),
    ("tree", "canonical_vertex", "tree.canonical_vertex", None),
    ("tree", "distance", "tree.distance", None),
    ("tree", "RationalFunction.__init__", "tree.rational_reduce", None),
    ("tree", "translation_length", "tree.translation_length", None),
    ("amalgam", "build_certificate", "amalgam.build_certificate", None),
    ("amalgam", "double_cosets_distinct", "amalgam.double_coset", None),
    ("amalgam", "in_A", "amalgam.membership", None),
    ("amalgam", "in_B", "amalgam.membership", None),
    ("amalgam", "in_U", "amalgam.membership", None),
    ("amalgam", "amalgam_normal_form", "amalgam.normal_form", _letters),
    ("amalgam", "Certificate.json_text", "amalgam.json", _json_bytes),
    ("cli", "main", "cli.main", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in PROBES))
MODULES = ("laurent", "homology", "rep", "tree", "amalgam", "cli")


class Tracer:
    def __init__(self):
        self.active = False
        self.names = list(SPAN_NAMES)
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.layers = [""]
        self.counts = Counter()
        self.lifts = {}          # id -> lift validated in the current op
        self.distinct_lifts = 0

    def wrap(self, fn, span: str, count):
        nid = self.names.index(span)
        layer = span.split(".")[0]
        leaf = layer == "laurent"
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, layers, counts = self.stack, self.layers, self.counts
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active or (leaf and layers[-1] == "laurent"):
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            layers.append(layer)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf()
                stack.pop()
                layers.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper

    def end_op(self):
        """Close the bookkeeping of one operation."""
        self.distinct_lifts += len(self.lifts)
        self.lifts.clear()

    def aggregate(self, op_ranges=()):
        """Calls and self time per span name, overall and per op class,
        and inclusive time per op class (a span nested in a span of the
        same name is not counted twice).

        op_ranges lists (first span, end span, class) for each op.
        """
        n = len(self.name)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        cls_of = [""] * n
        for first, stop, cls in op_ranges:
            cls_of[first:stop] = [cls] * (stop - first)
        calls = Counter()
        self_s = Counter()
        by_class = Counter()
        incl_by_class = Counter()
        nf = self.names.index("amalgam.normal_form")
        act = self.names.index("tree.act")
        under_nf = [False] * n
        acts_in_nf = 0
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            calls[name] += 1
            own = dur[i] - child[i]
            self_s[name] += own
            by_class[(cls_of[i], name)] += own
            p = self.parent[i]
            if p < 0 or self.name[p] != nid:
                incl_by_class[(cls_of[i], name)] += dur[i]
            under_nf[i] = nid == nf or (p >= 0 and under_nf[p])
            if nid == act and under_nf[i]:
                acts_in_nf += 1
        return calls, self_s, by_class, incl_by_class, acts_in_nf

    def dump(self, path):
        """Write every span: a JSON header line, then the raw arrays."""
        header = {"names": self.names, "spans": len(self.name),
                  "arrays": ["name:int32", "parent:int32",
                             "start:float64", "end:float64"]}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(out)


def install(tracer: Tracer):
    """Wrap every probe in place, across all twistcert namespaces."""
    import importlib
    package = importlib.import_module("twistcert")
    modules = [importlib.import_module(f"twistcert.{m}") for m in MODULES]
    for module_name, attr, span, count in PROBES:
        home = importlib.import_module(f"twistcert.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, method,
                    tracer.wrap(cls.__dict__[method], span, count))
            continue
        original = getattr(home, attr)
        wrapped = tracer.wrap(original, span, count)
        for namespace in [package] + modules:
            if getattr(namespace, attr, None) is original:
                setattr(namespace, attr, wrapped)

    validate = package.homology.validate_lift

    def validate_lift(lift):
        if tracer.active:
            tracer.lifts[id(lift)] = lift
        return validate(lift)

    for namespace in (package, package.homology, package.rep):
        if getattr(namespace, "validate_lift", None) is validate:
            setattr(namespace, "validate_lift", validate_lift)

    ring_eq = package.laurent.LaurentRing.__eq__

    def counted_eq(self, other):
        if tracer.active:
            tracer.counts["laurent.ring_eq.calls"] += 1
        return ring_eq(self, other)

    package.laurent.LaurentRing.__eq__ = counted_eq
