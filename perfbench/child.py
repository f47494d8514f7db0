"""Run one hallsim CLI command in this process and record its timings.

Usage: python3 child.py RESULT.json MODE HALLSIM-ARGS...

Every mode wraps each module binding of the public hallsim.dynamics.advance
with a timestamp-only hook that keeps the first entry and the last exit, so
the caller can split the command into set-up, stepping and output.

MODE "trace" also opens a span around every call into a public function of
the measured layers, around cli._initial_psi, and around every apply of the
closure returned by dynamics.make_hamiltonian.  A span is [name, start, end, parent index]; the
spans stay in memory and are written to RESULT.json when the command ends,
together with the bytes read and written by the snapshot layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time

# quantization is left out: a full scan takes milliseconds and no
# optimisation there can move an end-to-end number.
LAYERS = ("config", "domain", "initial", "snapshots", "dynamics", "fields",
          "diagnostics", "holonomy", "cli")
# Private functions that also get a span: building the initial psi (packet,
# rim state or snapshot read) has no public function of its own.
PRIVATE_SPANS = {("cli", "_initial_psi"): "cli.initial_psi"}


def _rebind(original, replacement):
    """Point every hallsim module attribute bound to original at replacement."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "hallsim" or name.startswith("hallsim.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if obj is original:
                setattr(mod, attr, replacement)


class AdvanceHook:
    """First entry and last exit of dynamics.advance; nothing else."""

    def __init__(self):
        self.first_entry = None
        self.last_exit = None

    def install(self, advance):
        @functools.wraps(advance)
        def hooked(*args, **kwargs):
            if self.first_entry is None:
                self.first_entry = time.perf_counter()
            out = advance(*args, **kwargs)
            self.last_exit = time.perf_counter()
            return out
        _rebind(advance, hooked)


class Tracer:
    """In-memory spans around the public functions of the measured layers."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.bytes = {"read": 0, "write": 0}

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
        return traced

    def _count_bytes(self, key, fn):
        @functools.wraps(fn)
        def counted(path, *args, **kwargs):
            out = fn(path, *args, **kwargs)
            self.bytes[key] += os.path.getsize(path)
            return out
        return counted

    def _traced_hamiltonian(self, make_hamiltonian):
        @functools.wraps(make_hamiltonian)
        def make(*args, **kwargs):
            return self.wrap("dynamics.apply_h", make_hamiltonian(*args, **kwargs))
        return make

    def install(self):
        for layer in LAYERS:
            mod = importlib.import_module(f"hallsim.{layer}")
            for attr, fn in list(vars(mod).items()):
                if (not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or attr.startswith("_") and (layer, attr) not in PRIVATE_SPANS):
                    continue
                name = PRIVATE_SPANS.get((layer, attr), f"{layer}.{attr}")
                inner = fn
                if (layer, attr) == ("snapshots", "read_field"):
                    inner = self._count_bytes("read", fn)
                elif (layer, attr) == ("snapshots", "write_field"):
                    inner = self._count_bytes("write", fn)
                elif (layer, attr) == ("dynamics", "make_hamiltonian"):
                    inner = self._traced_hamiltonian(fn)
                _rebind(fn, self.wrap(name, inner))


def main() -> int:
    result_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import hallsim.cli
    import hallsim.dynamics

    hook = AdvanceHook()
    hook.install(hallsim.dynamics.advance)
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()

    start = time.perf_counter()
    rc = hallsim.cli.main(argv)
    end = time.perf_counter()

    result = {"rc": rc, "main": [start, end],
              "advance": [hook.first_entry, hook.last_exit],
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["bytes"] = tracer.bytes
    with open(result_path, "w") as f:
        json.dump(result, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
