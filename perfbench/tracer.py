"""Spans around calls into the package's public functions, from outside it.

The tracer wraps each function listed in ``LAYERS`` and rebinds the wrapper
in every ``repeaterlab`` module that holds the original object, so calls the
package makes to itself (``rates`` calling ``purification_fixed_points``,
``chain`` calling ``purify_noisy``, the fixed-point scan calling
``purify_noisy`` through ``werner``'s globals) are recorded too.  Spans are
kept in flat arrays (name, start, end, parent, operation) and written out
once, at the end.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

#: Public functions traced per module.  ``dmsim.map_deviations`` and
#: ``cli.main`` are the entry points the workloads call, so every second of
#: an operation lands inside some span.
LAYERS = {
    "werner": (
        "purification_fixed_points",
        "purify_noisy",
        "purify_success_probability",
        "swap_chain_fidelity",
    ),
    "noise": ("memory_decay", "link_success_probability", "classical_comm_time"),
    "chain": (
        "simulate_chain",
        "expected_attempts",
        "resource_count",
        "round_time",
        "build_schedule",
    ),
    "rates": (
        "sweep_rates",
        "repeater_rate",
        "threshold_distance",
        "scaling_fit",
        "curves_to_csv",
    ),
    "dmsim": (
        "map_deviations",
        "es_oracle",
        "epp_oracle",
        "expand_operator",
        "partial_trace",
        "measure_noisy",
        "apply_one_qubit_noisy",
        "apply_two_qubit_noisy",
        "werner_state",
    ),
    "cli": ("main", "load_run_config"),
}

TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def rebind(original, replacement) -> list:
    """Point every ``repeaterlab`` module attribute holding ``original`` at
    ``replacement``; return the changed (module, attribute) pairs."""
    changed = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repeaterlab" or name.startswith("repeaterlab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed.append((module, attr))
    return changed


def patch(module_name: str, fn_name: str, replacement):
    """Rebind ``repeaterlab.<module_name>.<fn_name>`` everywhere; return an undo."""
    original = getattr(sys.modules[f"repeaterlab.{module_name}"], fn_name)
    changed = rebind(original, replacement)

    def undo() -> None:
        for module, attr in changed:
            setattr(module, attr, original)

    return undo


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names = list(TRACED)
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = 0
        #: Bytes of the matrices ``expand_operator`` returned (computed, not
        #: measured traffic).
        self.operator_bytes = 0
        self._stack = [-1]

    def _wrap(self, name_id: int, fn):
        start, end, name, parent, op, stack = (
            self.start, self.end, self.name, self.parent, self.op, self._stack
        )
        tracer = self

        def traced(*args, **kwargs):
            idx = len(end)
            end.append(0.0)
            name.append(name_id)
            parent.append(stack[-1])
            op.append(tracer.current_op)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        if self.names[name_id] == "dmsim.expand_operator":
            def traced_operator(*args, **kwargs):
                result = traced(*args, **kwargs)
                tracer.operator_bytes += result.nbytes
                return result

            return traced_operator
        return traced

    def install(self):
        """Wrap every function in ``LAYERS``; return a callable that unwraps."""
        undos = []
        for name_id, qualname in enumerate(self.names):
            module_name, fn_name = qualname.split(".")
            module = sys.modules.get(f"repeaterlab.{module_name}")
            if module is None:  # e.g. ``cli`` inside an in-process workload
                continue
            undos.append(patch(module_name, fn_name, self._wrap(name_id, getattr(module, fn_name))))

        def uninstall() -> None:
            for undo in reversed(undos):
                undo()

        return uninstall

    def absorb(self, rows, op: int) -> None:
        """Append spans read from another process's dump, tagged with ``op``."""
        base = len(self.end)
        for name_id, start, end, parent in rows:
            self.name.append(name_id)
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent + base if parent >= 0 else -1)
            self.op.append(op)

    def dump(self, path: str) -> None:
        """Write every span as a tab-separated row, times in integer ns."""
        base = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("#operator_bytes\t%d\n" % self.operator_bytes)
            fh.write("#names\t" + "\t".join(self.names) + "\n")
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            for k, t0, t1, parent, op in zip(self.name, self.start, self.end, self.parent, self.op):
                fh.write("%d\t%d\t%d\t%d\t%d\n" % (
                    k, round((t0 - base) * 1e9), round((t1 - base) * 1e9), parent, op))

    @staticmethod
    def load(path: str):
        """Read a :meth:`dump` back: (operator_bytes, [(name, start, end, parent)])."""
        with open(path, encoding="utf-8") as fh:
            operator_bytes = int(fh.readline().split("\t")[1])
            fh.readline()
            fh.readline()
            rows = []
            for line in fh:
                name_id, start, end, parent, _op = line.split("\t")
                rows.append((int(name_id), int(start) * 1e-9, int(end) * 1e-9, int(parent)))
        return operator_bytes, rows

    def layer_metrics(self, ops: int) -> dict:
        """Per-function calls and self time per operation, and module shares.

        Self time is a span's duration minus the durations of its direct
        children; module shares divide by the summed self time of all spans,
        which equals the time spent inside root spans.
        """
        n = len(self.end)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name[i]
            calls[k] += 1
            self_s[k] += self.end[i] - self.start[i] - child[i]
        total = sum(self_s)
        metrics = {}
        for k, qualname in enumerate(self.names):
            metrics[f"{qualname}.calls_per_op"] = (calls[k] / ops, "count")
            metrics[f"{qualname}.self_us_per_op"] = (self_s[k] * 1e6 / ops, "us")
        for module_name in LAYERS:
            share = sum(
                self_s[k] for k, q in enumerate(self.names) if q.split(".")[0] == module_name
            )
            metrics[f"{module_name}.self_share"] = (share / total if total else 0.0, "share")
        metrics["dmsim.operator_bytes_per_op"] = (self.operator_bytes / ops, "bytes_computed")
        return metrics
