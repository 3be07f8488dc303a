"""Per-layer spans installed from outside the program.

Each layer of starwick (one module) is measured by wrapping its public
functions and methods.  A wrapper replaces the name where callers look
it up: every ``starwick`` module attribute bound to the original function
(``graphs`` imports ``apply_bivector`` by name, ``cli`` imports most
entry points by name) and every class attribute bound to it (``__rmul__``
is the same function as ``__mul__``).  Nothing is patched until
:meth:`Tracer.install`, and :meth:`Tracer.uninstall` restores the
originals, so untraced work runs the program unchanged.

A span is (name, start, end, parent).  Spans are kept in memory, up to
``SPAN_CAP``, and written out when the run ends.  Self time is the span's
duration minus the durations of its direct children; it is accumulated
as each span closes, for every call, including those past the cap.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# Spans kept in memory for writing; later calls still count in the totals.
SPAN_CAP = 100_000

def _terms_rendered(result, args, kwargs) -> int:
    value = args[0]
    if hasattr(value, "dim"):  # Poly: one rendered term per coefficient monomial
        return sum(sum(1 for _ in ce.items()) for _, ce in value.items())
    return sum(1 for _ in value.items())


def _nonzero(result, args, kwargs) -> int:
    return 0 if result.is_zero() else 1


def _length(result, args, kwargs) -> int:
    return len(result)


def _node_pairs(result, args, kwargs) -> int:
    rule = args[2] if len(args) > 2 else kwargs["rule"]
    return len(rule.nodes) ** 2


# (metric prefix, module, attribute path, extra counter or None).  The
# extra counter turns (result, args, kwargs) into a count added to the
# layer's ``extra`` total.
LAYERS = (
    ("cli.main", "starwick.cli", "main", None),
    ("exprparse.parse", "starwick.exprparse", "parse", None),
    ("algebra.coeff_mul", "starwick.algebra", "CoeffElement.__mul__", None),
    ("algebra.coeff_add", "starwick.algebra", "CoeffElement.__add__", None),
    ("algebra.coeff_pow", "starwick.algebra", "CoeffElement.__pow__", None),
    ("algebra.coeff_evaluate", "starwick.algebra", "CoeffElement.evaluate", None),
    ("algebra.coeff_render", "starwick.algebra", "CoeffElement.__str__", _terms_rendered),
    ("algebra.poly_mul", "starwick.algebra", "Poly.__mul__", None),
    ("algebra.poly_add", "starwick.algebra", "Poly.__add__", None),
    ("algebra.poly_derivative", "starwick.algebra", "Poly.derivative", None),
    ("algebra.poly_evaluate", "starwick.algebra", "Poly.evaluate", None),
    ("algebra.poly_render", "starwick.algebra", "Poly.__str__", _terms_rendered),
    ("star.apply_bivector", "starwick.star", "apply_bivector", _nonzero),
    ("star.star_tensor", "starwick.star", "star_tensor", None),
    ("star.star_multi", "starwick.star", "star_multi", None),
    ("graphs.kontsevich_apply", "starwick.graphs", "kontsevich_apply", None),
    ("graphs.star_via_graphs", "starwick.graphs", "star_via_graphs", None),
    ("combinat.enum_by_degree", "starwick.combinat", "enumerate_adjacency_by_degree", _length),
    ("combinat.enum_by_rowsums", "starwick.combinat", "enumerate_adjacency_by_rowsums", _length),
    ("wick.expectation_formula", "starwick.wick", "expectation_formula", None),
    ("fields.grid_load", "starwick.fields", "KernelGrid.from_json", None),
    ("fields.specialize", "starwick.fields", "specialize", None),
    ("fields.field_star", "starwick.fields", "field_star", None),
    ("fields.field_expectation", "starwick.fields", "field_expectation", None),
    ("fields.functional_star", "starwick.fields", "functional_star", _node_pairs),
)

# Name of the extra count of a layer, reported per operation.
EXTRA_NAMES = {
    "algebra.coeff_render": "algebra.result_terms",
    "algebra.poly_render": "algebra.result_terms",
    "combinat.enum_by_degree": "combinat.enum_by_degree.matrices",
    "combinat.enum_by_rowsums": "combinat.enum_by_rowsums.matrices",
    "fields.functional_star": "fields.functional_star.node_pairs",
}


class Tracer:
    """Records spans and per-layer call counts, self times and extra counts."""

    def __init__(self) -> None:
        self.names = [name for name, *_ in LAYERS]
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.extra = [0] * n
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_depth = array("i")
        self.spans_dropped = 0
        # open spans: [layer id, start, summed child duration]
        self.stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer: int, fn, extra):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            frame = [layer, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._close(frame, end)
            if extra is not None:
                tracer.extra[layer] += extra(result, args, kwargs)
            return result

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__wrapped__ = fn
        return traced

    def _close(self, frame: list, end: float) -> None:
        layer, start, child = frame
        duration = end - start
        self.calls[layer] += 1
        self.self_s[layer] += duration - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        if len(self.span_name) < SPAN_CAP:
            # parents close after children, so a parent's span index is not
            # known yet; store the stack depth and resolve on write
            self.span_name.append(layer)
            self.span_start.append(start)
            self.span_end.append(end)
            self.span_depth.append(len(self.stack))
        else:
            self.spans_dropped += 1

    def install(self) -> None:
        if self._undo:
            return
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "starwick"]
        for layer, (name, module, path, extra) in enumerate(LAYERS):
            owner = sys.modules.get(module)
            cls_name, _, attr = path.rpartition(".")
            holder = getattr(owner, cls_name, None) if cls_name else owner
            found = holder is not None and (
                attr in vars(holder) if cls_name else hasattr(holder, attr)
            )
            if not found:
                # a renamed or removed layer must not read as a layer at zero
                self.uninstall()
                raise LookupError(f"layer {name}: {module}.{path} not found")
            if cls_name:
                cls = holder
                raw = cls.__dict__[attr]
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                wrapped = self._wrap(layer, fn, extra)
                replacement = classmethod(wrapped) if is_classmethod else wrapped
                for name, value in list(cls.__dict__.items()):
                    if value is raw:
                        self._undo.append((cls, name, raw))
                        setattr(cls, name, replacement)
            else:
                fn = getattr(owner, path)
                wrapped = self._wrap(layer, fn, extra)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._undo.append((mod, name, fn))
                            setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def metrics(self, ops: int, scale: float) -> dict[str, tuple[float, str]]:
        """Per-operation calls, self seconds and extra counts of every layer.

        Self seconds are multiplied by ``scale``, the run's factor from
        wall time to time at the reference speed."""
        out: dict[str, tuple[float, str]] = {}
        per_op = 1.0 / max(ops, 1)
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[k] * per_op, "calls/op")
            out[f"{name}.self_s"] = (self.self_s[k] * per_op * scale, "s/op")
        for k, name in enumerate(self.names):
            extra = EXTRA_NAMES.get(name)
            if extra is None:
                continue
            prev = out.get(extra, (0.0, "count/op"))[0]
            out[extra] = (prev + self.extra[k] * per_op, "count/op")
        k = self.names.index("star.apply_bivector")
        useful = self.extra[k] / self.calls[k] if self.calls[k] else 0.0
        out["star.apply_bivector.nonzero_frac"] = (useful, "fraction")
        return out

    def write_spans(self, path) -> None:
        """Write every kept span as [name, start, end, parent index]."""
        n = len(self.span_name)
        # A span closes after all its children; walking spans in closing
        # order, the parent of a span at depth d is the next span to close
        # at depth d - 1.
        parent = [-1] * n
        waiting: dict[int, list[int]] = {}
        for i in range(n):
            depth = self.span_depth[i]
            for child in waiting.pop(depth + 1, []):
                parent[child] = i
            waiting.setdefault(depth, []).append(i)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name", "start", "end", "parent"],
                    "dropped": self.spans_dropped,
                    "spans": [
                        [self.span_name[i], self.span_start[i], self.span_end[i], parent[i]]
                        for i in range(n)
                    ],
                },
                handle,
                separators=(",", ":"),
            )
