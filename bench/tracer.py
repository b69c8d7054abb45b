"""Spans around kstab's layer boundaries, recorded from outside kstab.

The tracer replaces a public function on the module through which
kstab calls it (kstab.arrangements.rref, not kstab.linalg.rref), so
the program is unchanged and untraced runs pay nothing.  A span is
(name, start, end, parent, item); spans live in memory and are
written out when the worker ends.  Hot leaf functions get no span of
their own: their calls and time are added to the enclosing span.
"""

import json

from kernel import clock

# (module, attribute, layer name, leaf?)
WRAPPED = (
    ("arrangements", "rref", "linalg.rref", True),
    ("arrangements", "in_rowspace", "linalg.in_rowspace", True),
    ("arrangements", "intersection_lattice", "arrangements.intersection_lattice", False),
    ("arrangements", "lct_braid", "arrangements.lct_braid", False),
    ("monomials", "summation_check", "monomials.summation_check", False),
    ("monomials", "multiplier_ideal", "monomials.multiplier_ideal", False),
    ("monomials", "newton_polyhedron", "monomials.newton_polyhedron", False),
    ("monomials", "hull_inequalities", "monomials.hull_inequalities", False),
    ("verification", "df_with_escalation", "verification.df_with_escalation", False),
    ("verification", "donaldson_futaki", "flags.donaldson_futaki", False),
    ("flags", "weight", "flags.weight", False),
    ("flags", "tilde_divisors", "flags.tilde_divisors", True),
    ("flags", "stabilized_fit", "polynomials.stabilized_fit", False),
    ("flags", "df_coefficient", "polynomials.df_coefficient", False),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "child", "leaf", "size", "error")

    def __init__(self, name, start, parent, item):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.item = item
        self.child = 0.0
        self.leaf = {}
        self.size = None
        self.error = False


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None
        self.products = []  # multiplier_ideal arguments, keyed after the batch

    def begin_item(self, item):
        self.item = item
        self._open("item")

    def end_item(self):
        self._close(self.stack[-1])

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        span = Span(name, clock(), parent, self.item)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span):
        span.end = clock()
        self.stack.pop()
        if span.parent is not None:
            span.parent.child += span.end - span.start

    def wrap(self, module, attr, name, leaf):
        inner = getattr(module, attr)
        tracer = self

        if leaf:
            def traced(*args, **kwargs):
                t0 = clock()
                try:
                    return inner(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    parent = tracer.stack[-1]
                    parent.child += dt
                    calls, total = parent.leaf.get(name, (0, 0.0))
                    parent.leaf[name] = (calls + 1, total + dt)
        else:
            def traced(*args, **kwargs):
                if name == "monomials.multiplier_ideal":
                    tracer.products.append(args[0] if args else kwargs["prod"])
                span = tracer._open(name)
                try:
                    result = inner(*args, **kwargs)
                except BaseException:
                    span.error = True
                    raise
                finally:
                    tracer._close(span)
                if isinstance(result, (list, tuple)):
                    span.size = len(result)
                return result

        setattr(module, attr, traced)

    def install(self, modules):
        for mod, attr, name, leaf in WRAPPED:
            module = modules[mod]
            if hasattr(module, attr):
                self.wrap(module, attr, name, leaf)

    def write(self, path):
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": index.get(id(s.parent)),
                    "item": s.item,
                    "leaf": {k: list(v) for k, v in s.leaf.items()},
                }) + "\n")


def product_key(prod):
    """Canonical key of a weighted product, as kstab's cache should see it."""
    factors = getattr(prod, "factors", prod)
    return tuple(
        sorted(
            (ideal.arity, tuple(sorted(ideal.generators)), c)
            for ideal, c in factors
            if c > 0
        )
    )


LAYER_METRICS = (
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_ref", "ref"),
    ("linalg.in_rowspace.calls", "count"),
    ("linalg.in_rowspace.self_ref", "ref"),
    ("arrangements.intersection_lattice.self_ref", "ref"),
    ("arrangements.intersection_lattice.flats", "count"),
    ("arrangements.intersection_lattice.flats_per_candidate", "ratio"),
    ("arrangements.lct_braid.self_ref", "ref"),
    ("monomials.multiplier_ideal.calls", "count"),
    ("monomials.multiplier_ideal.self_ref", "ref"),
    ("monomials.multiplier_ideal.distinct_products", "count"),
    ("monomials.multiplier_ideal.repeat_share", "ratio"),
    ("monomials.hull_inequalities.calls", "count"),
    ("monomials.hull_inequalities.self_ref", "ref"),
    ("monomials.hull_inequalities.facets", "count"),
    ("monomials.newton_polyhedron.self_ref", "ref"),
    ("monomials.summation_check.self_ref", "ref"),
    ("flags.tilde_divisors.self_ref", "ref"),
    ("flags.weight.calls", "count"),
    ("flags.weight.self_ref", "ref"),
    ("flags.donaldson_futaki.calls", "count"),
    ("flags.donaldson_futaki.rejected", "count"),
    ("verification.df_with_escalation.fits_per_flag", "ratio"),
    ("polynomials.stabilized_fit.self_ref", "ref"),
    ("polynomials.df_coefficient.self_ref", "ref"),
)


def layer_metrics(tracer, ref_unit):
    """Per-layer metrics of one batch; ref_unit maps item -> kernel seconds."""
    calls, self_ref, size, errors = {}, {}, {}, {}

    def add(name, n, seconds, item):
        calls[name] = calls.get(name, 0) + n
        self_ref[name] = self_ref.get(name, 0.0) + seconds / ref_unit[item]

    candidates = 0
    for s in tracer.spans:
        add(s.name, 1, (s.end - s.start) - s.child, s.item)
        for leaf, (n, seconds) in s.leaf.items():
            add(leaf, n, seconds, s.item)
        if s.size is not None:
            size[s.name] = size.get(s.name, 0) + s.size
        if s.error:
            errors[s.name] = errors.get(s.name, 0) + 1
        if s.name == "arrangements.intersection_lattice":
            candidates += s.leaf.get("linalg.rref", (0, 0.0))[0]

    flats = size.get("arrangements.intersection_lattice", 0)
    mi_calls = calls.get("monomials.multiplier_ideal", 0)
    distinct = len({product_key(p) for p in tracer.products})
    escalations = calls.get("verification.df_with_escalation", 0)
    out = {}
    for metric, _ in LAYER_METRICS:
        layer, kind = metric.rsplit(".", 1)
        if kind == "calls":
            value = calls.get(layer, 0)
        elif kind == "self_ref":
            value = self_ref.get(layer, 0.0)
        elif kind == "flats":
            value = flats
        elif kind == "flats_per_candidate":
            value = flats / candidates if candidates else 0.0
        elif kind == "distinct_products":
            value = distinct
        elif kind == "repeat_share":
            value = 1 - distinct / mi_calls if mi_calls else 0.0
        elif kind == "facets":
            value = size.get(layer, 0)
        elif kind == "rejected":
            value = errors.get(layer, 0)
        elif kind == "fits_per_flag":
            value = calls.get("flags.donaldson_futaki", 0) / escalations if escalations else 0.0
        out[metric] = value
    return out
