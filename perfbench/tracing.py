"""In-memory spans around the layer functions the vdmuml CLI calls.

The tracer replaces the names that `vdmuml.cli` and `vdmuml.transform`
bind with timing wrappers for the duration of one in-process command,
then puts the originals back. No program file is edited. Each span is
(name, start, end, parent index); self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# module attribute -> span name, for the names vdmuml.cli binds
CLI_BINDINGS = {
    "cmd_vdm2uml": "cli.cmd_vdm2uml",
    "cmd_uml2vdm": "cli.cmd_uml2vdm",
    "cmd_roundtrip": "cli.cmd_roundtrip",
    "parse_vdm": "vdm_frontend.parse_vdm",
    "validate_model": "model.validate_model",
    "vdm_to_uml": "transform.vdm_to_uml",
    "print_puml": "puml_frontend.print_puml",
    "lossy_members": "transform.lossy_members",
    "parse_puml": "puml_frontend.parse_puml",
    "validate_uml": "model.validate_uml",
    "uml_to_vdm": "transform.uml_to_vdm",
    "canonicalize_model": "transform.canonicalize_model",
    "print_vdm": "vdm_frontend.print_vdm",
}
# ... and for the names vdmuml.transform binds
TRANSFORM_BINDINGS = {
    "parse_vdm_type": "vdm_frontend.parse_vdm_type",
    "classify_instance_variable": "transform.classify_instance_variable",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self.results: dict[str, object] = {}  # last return value per span name
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, results = self.spans, self._open, self.results
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            results[name] = result
            return result

        return traced

    @contextmanager
    def installed(self, cli_module, transform_module):
        """Swap every bound name for its wrapper; restore them on exit."""
        swapped = []
        try:
            for module, table in ((cli_module, CLI_BINDINGS), (transform_module, TRANSFORM_BINDINGS)):
                for attr, name in table.items():
                    original = getattr(module, attr)  # a missing binding is an error
                    swapped.append((module, attr, original))
                    setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(swapped):
                setattr(module, attr, original)

    def summary(self):
        """(total seconds, self seconds, calls) per span name."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), below in zip(self.spans, child_time):
            total[name] += end - start
            own[name] += end - start - below
            calls[name] += 1
        return total, own, calls
