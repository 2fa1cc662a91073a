"""Per-layer attribution for the traced benchmark run.

The tracer wraps the public entry points of each layer of ``repro`` at run
time (nothing under ``src/`` is edited) and accumulates, per metric key, the
call count, the busy time (outermost calls of that key only) and the self
time (duration minus the wrapped calls nested inside).  Hot per-stage calls
are folded into these three numbers instead of one span per call, so the
state stays a small dict however many calls a job makes; the caller writes
it out when the run ends.

Self times partition the traced job: the self times of all keys plus the
job's top-level time outside every wrapped call (``unattributed``) add up
to the job's wall time.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


class Stat:
    __slots__ = ("calls", "busy", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0


class LayerTracer:
    """Wraps layer entry points while installed; see the module docstring."""

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        self.values: Dict[str, float] = {}
        self._depth: Dict[str, int] = {}
        self._stack: List[List[float]] = [[0.0]]
        self._patches: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    # Accounting ------------------------------------------------------------

    def reset(self) -> None:
        # Cleared in place: installed wrappers hold references to these.
        self.stats.clear()
        self.values.clear()
        self._depth.clear()
        self._stack[:] = [[0.0]]

    @property
    def top_level_wrapped(self) -> float:
        """Wall time spent inside outermost wrapped calls since the reset."""
        return self._stack[0][0]

    def stat(self, key: str) -> Stat:
        entry = self.stats.get(key)
        if entry is None:
            entry = self.stats[key] = Stat()
        return entry

    def add_value(self, key: str, amount: float) -> None:
        self.values[key] = self.values.get(key, 0.0) + amount

    def max_value(self, key: str, value: float) -> None:
        self.values[key] = max(self.values.get(key, value), value)

    def timed(
        self,
        key: Callable[..., str],
        function: Callable,
        on_result: Optional[Callable] = None,
    ) -> Callable:
        """Return ``function`` wrapped to account its calls under ``key(*args)``."""
        stack = self._stack
        depth = self._depth
        stat = self.stat

        def wrapper(*args, **kwargs):
            name = key(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                depth[name] -= 1
                entry = stat(name)
                entry.calls += 1
                if depth[name] == 0:
                    entry.busy += elapsed
                entry.self_time += elapsed - frame[0]
                stack[-1][0] += elapsed
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    # Patching ----------------------------------------------------------------

    def patch(self, owner, attribute: str, key, on_result=None) -> None:
        """Replace ``owner.attribute`` by a timed wrapper until :meth:`uninstall`.

        ``key`` is a metric name or a callable computing it from the call's
        arguments.  A missing attribute is recorded in :attr:`missing` (its
        metrics then read n/a) instead of failing the run, so the benchmark
        keeps working when a later change renames an internal.
        """
        raw = owner.__dict__.get(attribute) if isinstance(owner, type) else getattr(owner, attribute, None)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attribute}")
            return
        key_fn = key if callable(key) else (lambda *a, _k=key, **k: _k)
        if isinstance(raw, staticmethod):
            replacement = staticmethod(self.timed(key_fn, raw.__func__, on_result))
        else:
            replacement = self.timed(key_fn, raw, on_result)
        self.replace(owner, attribute, replacement)

    def replace(self, owner, attribute: str, replacement) -> None:
        """Set ``owner.attribute`` until :meth:`uninstall` restores it."""
        raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, replacement)

    def patch_methods(self, base: type, names: Tuple[str, ...], key: str, on_result=None) -> None:
        """Patch ``names`` on ``base`` and every subclass that defines them."""
        classes = [base]
        index = 0
        while index < len(classes):
            classes.extend(classes[index].__subclasses__())
            index += 1
        for cls in dict.fromkeys(classes):
            for name in names:
                if name in cls.__dict__:
                    self.patch(cls, name, key, on_result)

    def patch_function(self, module_name: str, name: str, key, on_result=None, only_in=None) -> None:
        """Patch a module-level function in its module and every loaded
        module that bound it by name (``from module import name``)."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(f"{module_name}.{name}")
            return
        original = getattr(module, name, None)
        if original is None:
            self.missing.append(f"{module_name}.{name}")
            return
        targets = only_in or [
            loaded
            for loaded_name, loaded in list(sys.modules.items())
            if loaded is not None
            and (loaded_name == "repro" or loaded_name.startswith("repro.") or loaded_name == "workloads")
            and getattr(loaded, name, None) is original
        ]
        for target in targets:
            self.patch(target, name, key, on_result)

    def uninstall(self) -> None:
        for owner, attribute, raw in reversed(self._patches):
            setattr(owner, attribute, raw)
        self._patches = []
