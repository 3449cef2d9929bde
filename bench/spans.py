"""In-memory spans and counters for the traced run.

The tracer wraps the program's public functions where their callers look
them up (module attributes and two class methods) and restores them
afterwards; the program's source is not touched.  A span records its name,
start, end and parent; a layer's self time is its span's duration minus
the time of the child spans it covers.  Work the tracer itself does after
a call (measuring the size of a result) is charged to no layer.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span index, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(result)`` runs untimed."""
        stack, spans, self_s = self._stack, self.spans, self.self_s
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append((name, 0.0, 0.0, parent))
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]] = (name, start, end, parent)
                self_s[name] += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += end - start
            if after is not None:
                after(result)
                if stack:
                    stack[-1][1] += clock() - end
            return result

        return spanned

    def patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def span(self, owner, attr: str, name: str, after=None) -> None:
        self.patch(owner, attr, self.wrap(name, getattr(owner, attr), after))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def maximum(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value


# Span name of each traced entry point, keyed by the name it is bound to in
# repcount.invariants and repcount.cli.
SPAN_NAMES = {
    "lambda_invariant": "invariants.self",
    "lambda_polynomial_cylinder": "invariants.self",
    "vanishing_check": "invariants.vanishing",
    "validate": "splitting.validate",
    "validation_warnings": "splitting.validate",
    "glue_matrix": "splitting.assembly",
    "mayer_vietoris_matrix": "splitting.assembly",
    "assembled_word_map": "splitting.assembly",
    "pair_cohomology": "splitting.pair_cohomology",
    "parse_splitting_document": "splitting.parse",
    "det": "intlinalg.det",
    "degree_of_word_map": "exterior.degree",
    "numeric_degree_u1": "oracle.torus",
    "generic_target": "oracle.torus",
    "cokernel_enumeration": "oracle.coker_enum",
}

# Span names of the benchmark's own calls into the program (``api``).
API_SPAN_NAMES = {
    "lambda_invariant": "invariants.self",
    "parse": "splitting.parse",
    "validate": "splitting.validate",
    "pair_cohomology": "splitting.pair_cohomology",
    "main": "cli.self",
}


def install(tracer: Tracer, rc, api) -> None:
    """Wrap the program's entry points and the benchmark's calls."""
    modules = [importlib.import_module(rc.__name__ + ".invariants")]
    if hasattr(api, "main"):
        modules.append(importlib.import_module(rc.__name__ + ".cli"))
    for module in modules:
        for attr, name in SPAN_NAMES.items():
            if hasattr(module, attr):
                tracer.span(module, attr, name)
    for attr in vars(api):
        tracer.span(api, attr, API_SPAN_NAMES[attr])

    intlinalg = importlib.import_module(rc.__name__ + ".intlinalg")

    def snf_done(result) -> None:
        tracer.counts["intlinalg.snf_calls"] += 1
        bits = max((abs(x).bit_length() for m in (result.U, result.D, result.V)
                    for row in m.data for x in row), default=0)
        tracer.maximum("intlinalg.snf_max_bits", bits)

    tracer.span(intlinalg, "smith_normal_form", "intlinalg.snf", after=snf_done)

    intmat_init = rc.IntMat.__init__

    def counted_init(self, *args, **kwargs):
        tracer.counts["intlinalg.intmat_inits"] += 1
        intmat_init(self, *args, **kwargs)

    tracer.patch(rc.IntMat, "__init__", counted_init)

    wedge = rc.ExtElement.wedge

    def counted_wedge(self, other):
        result = wedge(self, other)
        tracer.counts["exterior.wedge_calls"] += 1
        tracer.maximum("exterior.peak_terms", len(result.terms))
        return result

    tracer.patch(rc.ExtElement, "wedge", counted_wedge)
