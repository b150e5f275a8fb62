"""Layer spans and exact kernel counters, recorded from outside the program.

``LayerTracer`` installs a ``sys.settrace`` hook that reacts only to the code
objects of the layers' public functions.  Line events are switched off for
those frames, so the hook sees one call and one return per traced span and
nothing else; every other Python frame costs one early-returning hook call.
No module global of valex is touched: the hook reads arguments and return
values from the frames it is shown.

Spans are kept in memory, aggregated by (name, parent name): call count,
total time and self time (total minus the time of traced child spans).
"""

from __future__ import annotations

import sys
import time


def layer_targets() -> dict:
    """Code object -> span name for the public functions of each layer.

    The kernel entries are whatever ``valex._backend`` selected; a compiled
    kernel has no Python code object, so its spans and counters stay empty.
    """
    from valex import _backend, alexander, diagram, laurent, twist, verify

    poly = laurent.LaurentPoly
    named = {
        "diagram.parse_gauss": [diagram.parse_gauss],
        "diagram.derive_incidence": [diagram.derive_incidence],
        "diagram.odd_writhe": [diagram.odd_writhe],
        "alexander.invariant_report": [alexander.invariant_report],
        "alexander.delta0_diagram": [alexander.delta0_diagram],
        "alexander.build_matrix": [alexander.build_matrix],
        "alexander.determinant": [alexander.determinant],
        "alexander.delta_bar": [alexander.delta_bar],
        "pykernel.mul_terms": [_backend.mul_terms],
        "pykernel.fma_terms": [_backend.fma_terms],
        "pykernel.divexact_terms": [_backend.divexact_terms],
        "laurent.normalize": [laurent.normalize],
        "laurent.poly_ops": [poly.__add__, poly.__sub__, poly.__rsub__,
                             poly.__mul__, poly.__neg__, poly.__pow__],
        "twist.parse_spec": [twist.parse_spec],
        "twist.generate_twist": [twist.generate_twist],
        "twist.evaluate_recursive": [twist.evaluate_recursive],
        "twist.ow_closed_form": [twist.ow_closed_form],
        "verify.run_grid": [verify.run_grid],
    }
    return {f.__code__: name for name, fns in named.items() for f in fns
            if hasattr(f, "__code__")}


class LayerTracer:
    """Context manager that records spans and counters while active."""

    def __init__(self, targets: dict):
        self._names = targets
        self._stack = []          # [name, start, child_seconds]
        self.spans = {}           # (name, parent) -> [calls, total_s, self_s]
        self.counts = {
            "divexact_empty_num": 0,
            "divexact_monomial_div": 0,
            "divexact_general_div": 0,
            "term_products": 0,
            "determinant_order_max": 0,
            "determinant_peak_entry_terms": 0,
            "determinant_peak_coef_bits": 0,
        }

    def __enter__(self):
        sys.settrace(self._on_call)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)
        return False

    def _on_call(self, frame, event, arg):
        name = self._names.get(frame.f_code)
        if name is None:
            return None
        frame.f_trace_lines = False
        counts = self.counts
        if name == "pykernel.divexact_terms":
            args = frame.f_locals
            if not args["a"]:
                counts["divexact_empty_num"] += 1
            elif len(args["b"]) == 1:
                counts["divexact_monomial_div"] += 1
            else:
                counts["divexact_general_div"] += 1
        elif name == "pykernel.mul_terms":
            args = frame.f_locals
            counts["term_products"] += len(args["a"]) * len(args["b"])
        elif name == "pykernel.fma_terms":
            # a*b goes through a nested mul_terms call, which counts itself
            args = frame.f_locals
            counts["term_products"] += len(args["c"]) * len(args["d"])
        elif name == "alexander.determinant":
            m = frame.f_locals["m"]
            order = len(m.entries) if hasattr(m, "entries") else len(m)
            if order > counts["determinant_order_max"]:
                counts["determinant_order_max"] = order
        self._stack.append([name, time.perf_counter(), 0.0])
        return self._on_event

    def _on_event(self, frame, event, arg):
        if event != "return":
            return self._on_event
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        parent = None
        if self._stack:
            top = self._stack[-1]
            top[2] += dur
            parent = top[0]
        key = (name, parent)
        rec = self.spans.get(key)
        if rec is None:
            rec = self.spans[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child
        # Bareiss stores each quotient as the new matrix entry.
        if (name == "pykernel.divexact_terms" and parent == "alexander.determinant"
                and arg):
            counts = self.counts
            if len(arg) > counts["determinant_peak_entry_terms"]:
                counts["determinant_peak_entry_terms"] = len(arg)
            bits = max(abs(c).bit_length() for c in arg.values())
            if bits > counts["determinant_peak_coef_bits"]:
                counts["determinant_peak_coef_bits"] = bits
        return None

    def by_name(self) -> dict:
        """name -> {"calls", "total_s", "self_s"} summed over parents."""
        out: dict = {}
        for (name, _), (calls, total, self_s) in self.spans.items():
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += calls
            agg["total_s"] += total
            agg["self_s"] += self_s
        return out

    def edges(self) -> list:
        """Every (name, parent) aggregate, for the run record."""
        return [{"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                for (n, p), (c, t, s) in sorted(self.spans.items(), key=str)]
