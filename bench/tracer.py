"""Span tracer that wraps nestiq's layer entry points from outside the package.

Each entry point is named by its defining module and attribute.  Patching
replaces that object under every name a nestiq module resolves it by (a
function imported with ``from .lds import _scramble_values`` lives on in
``nestiq.estimators`` too), so calls are seen whichever module makes them.
An entry point that no longer exists is recorded as unmeasured instead of
failing the run, and ``restore`` puts every patched attribute back and then
looks for any wrapper still bound in a nestiq module or patched class.

A span's self time is its duration minus the time its child spans cover;
spans nest per thread.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.peaks = defaultdict(float)
        self.unmeasured: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: list[object] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, span, fn, *args, **kwargs):
        """Run fn inside a span; returns its result."""
        stack = self._stack()
        frame = [0.0]  # time covered by child spans
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += dur
            with self._lock:
                self.self_s[span] += dur - frame[0]
                self.total_s[span] += dur
                self.calls[span] += 1

    def count(self, name, amount):
        with self._lock:
            self.counts[name] += amount

    def peak(self, name, value):
        with self._lock:
            self.peaks[name] = max(self.peaks[name], value)

    # -- patching ------------------------------------------------------------

    @staticmethod
    def _nestiq_modules():
        return [mod for name, mod in list(sys.modules.items())
                if name == "nestiq" or name.startswith("nestiq.")]

    def _patch_everywhere(self, original, make_wrapper):
        wrapper = make_wrapper(original)
        self._wrappers.append(wrapper)
        for mod in self._nestiq_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def wrap(self, entry, make_wrapper):
        """Patch ``module:Attr`` or ``module:Class.method`` with make_wrapper(original)."""
        modname, path = entry.split(":")
        try:
            owner = importlib.import_module(modname)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.unmeasured.add(entry)
            return
        if isinstance(owner, type):
            wrapper = make_wrapper(original)
            self._wrappers.append(wrapper)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        else:
            self._patch_everywhere(original, make_wrapper)

    def span_wrapper(self, entry, span, counter=None):
        """make_wrapper for a plain span, with an optional counter(tracer, args, kwargs, result).

        A counter that cannot read the call marks its entry point unmeasured.
        """

        def make(original):
            def traced(*args, **kwargs):
                result = self.call(span, original, *args, **kwargs)
                if counter is not None:
                    try:
                        counter(self, args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                        self.unmeasured.add(entry)
                return result

            return traced

        return make

    def restore(self):
        """Undo every patch; returns the attributes that still hold a wrapper."""
        classes = {id(o): o for o, _, _ in self._patches if isinstance(o, type)}
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        wrappers = {id(w) for w in self._wrappers}
        stale = [
            f"{owner.__name__}.{attr}"
            for owner in self._nestiq_modules() + list(classes.values())
            for attr, value in list(vars(owner).items())
            if id(value) in wrappers
        ]
        self._wrappers.clear()
        return stale
