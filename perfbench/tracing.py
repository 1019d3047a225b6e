"""Outside-in spans for the traced benchmark run.

The tracer wraps, from outside the library, every library function that
`cavityfeedback.cli` imports, tagging each with the module that defines it,
plus three inner entry points: `DensityMatrix.__post_init__` (one call per
validation), `cavityfeedback.continuous.expm` and
`cavityfeedback.strobo.strobo_step`.  Wrappers are installed only around a
traced op and removed after it, so untraced ops run the library untouched.

A span is [name, layer, start, end, parent index, op id]; an outermost
continuous span also carries the states it returned and the nonzero bands of
its input state.  Spans stay in memory and are written once when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "fock", "continuous", "strobo", "wigner", "adiabatic", "qubits")

# (span name, module, class or None, attribute)
_INNER_HOOKS = (
    ("fock.validate", "cavityfeedback.fock", "DensityMatrix", "__post_init__"),
    ("continuous.expm", "cavityfeedback.continuous", None, "expm"),
    ("strobo.strobo_step", "cavityfeedback.strobo", None, "strobo_step"),
)


class Tracer:
    def __init__(self, cli):
        self.spans = []
        self._stack = []
        self._op = -1
        self._patches = []  # (owner, attribute, original, wrapper)
        self.missing = []
        fock = importlib.import_module("cavityfeedback.fock")
        self._density_matrix = getattr(fock, "DensityMatrix", None)
        for name, obj in sorted(vars(cli).items()):
            module = getattr(obj, "__module__", "") or ""
            if (
                inspect.isfunction(obj)
                and module.startswith("cavityfeedback.")
                and module != cli.__name__
            ):
                layer = module.rsplit(".", 1)[-1]
                self._add(cli, name, f"{layer}.{obj.__name__}", layer)
        for span_name, module_name, cls_name, attr in _INNER_HOOKS:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name, None)
            if owner is None or not callable(getattr(owner, attr, None)):
                self.missing.append(span_name)
                continue
            self._add(owner, attr, span_name, span_name.split(".", 1)[0])

    def _add(self, owner, attr, span_name, layer):
        original = getattr(owner, attr)
        probe = self._continuous_probe if layer == "continuous" else None
        self._patches.append((owner, attr, original, self.wrap(original, span_name, layer, probe)))

    def wrap(self, fn, span_name, layer, probe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            record = [span_name, layer, 0.0, 0.0, stack[-1] if stack else -1, self._op]
            spans.append(record)
            stack.append(idx)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            if probe is not None:
                probe(record, args, result)
            return result

        return traced

    def _continuous_probe(self, record, args, result):
        """Count states out and nonzero input bands of an outermost continuous call."""
        parent = record[4]
        if parent >= 0 and self.spans[parent][1] == "continuous":
            return
        dm = self._density_matrix
        if dm is None:
            return
        states = 0
        if isinstance(result, dm):
            states = 1
        elif isinstance(result, list) and result and isinstance(result[0], dm):
            states = len(result)
        bands = 0
        if args and isinstance(args[0], dm):
            elements = args[0].elements
            n = elements.shape[0]
            bands = sum(
                1
                for p in range(n)
                if elements.diagonal(p).any() or (p and elements.diagonal(-p).any())
            )
        record.append({"states": states, "bands": bands})

    def call(self, op_id, fn, *args):
        """Run fn(*args) as one traced op under a root `cli.main` span."""
        self._op = op_id
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            return self.wrap(fn, "cli.main", "cli")(*args)
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self._op = -1

    def write(self, path, extra):
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "layer", "start", "end", "parent", "op", "outermost continuous counts"]
        payload = {**extra, "fields": fields, "spans": self.spans}
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")


def op_profile(spans, first: int) -> dict:
    """Per-layer self and busy time plus counts for the spans of one op.

    Self time is a span's duration minus its children's; busy time sums the
    outermost spans of each layer.  The op's spans start at index `first`.
    """
    self_s = defaultdict(float)
    busy_s = defaultdict(float)
    counts = defaultdict(float)
    child = defaultdict(float)
    ops = spans[first:]
    for rec in ops:
        if rec[4] >= first:
            child[rec[4]] += rec[3] - rec[2]
    for i, rec in enumerate(ops, start=first):
        name, layer, start, end, parent = rec[:5]
        dur = end - start
        self_s[layer] += dur - child[i]
        if parent < first or spans[parent][1] != layer:
            busy_s[layer] += dur
        counts[name + ".calls"] += 1
        counts[name + ".s"] += dur
        if len(rec) > 6:
            counts["continuous.states_out"] += rec[6]["states"]
            counts["continuous.useful_bands"] += rec[6]["bands"]
    return {"self_s": dict(self_s), "busy_s": dict(busy_s), "counts": dict(counts), "spans": len(ops)}
