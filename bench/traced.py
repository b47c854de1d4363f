"""Per-layer tracer for traced benchmark runs.

Run a ``repro`` command traced::

    PYTHONPROFILEIMPORTTIME=1 python -m bench.traced TRACE_DIR <repro argv...>

The process imports ``repro.cli``, wraps the public functions and
methods of every loaded ``repro`` module (and of every one imported
later), then calls ``repro.cli.main``.  A layer is the ``repro``
package that defines the function (``repro.core.explorer.explore`` is
layer ``core``).

Each wrapped call that enters a different layer pushes a frame on a
per-process stack; a layer's self time is the duration of its frames
minus the frames nested in them.  Calls that stay inside the caller's
layer skip the bookkeeping, which keeps the cost low on hot inner
functions without changing any layer's self time.  Import statements
executed inside traced calls are frames of their own (layer
``import``), so import work is not charged to the layer that triggered
it; the import profile (``-X importtime``) accounts for it instead.

Records live in memory.  The main process writes them to
``TRACE_DIR/spans-<pid>.jsonl`` when the command returns; forked pool
workers append theirs whenever their outermost traced call returns,
since they exit without running ``atexit`` handlers.  What runs after
the main process's write (``atexit`` handlers, interpreter teardown)
is timed from outside, by the process that reaps it.
"""

from __future__ import annotations

import builtins
import fnmatch
import functools
import json
import os
import sys
import time
import types
from collections import defaultdict
from collections.abc import Callable
from pathlib import Path
from typing import Any

#: Pseudo-layer of import statements executed inside traced calls.
IMPORT_LAYER = "import"

#: Metric -> qualified names whose calls are counted.
CALL_COUNTS = {
    "core.max_active_channels.calls":
        ("repro.core.optimizations.max_active_channels",),
    "core.explore.calls": ("repro.core.explorer.explore",),
    "accel.best_schedule.calls": ("repro.accel.schedule.best_schedule",),
    "dnn.mac_profiles.calls": ("repro.dnn.network.Network.mac_profiles",),
    "dnn.sgd_train.calls": ("repro.dnn.train.sgd_train",),
    "link.required_ebn0.calls": ("repro.link.ber.required_ebn0",),
    "decoders.fit.calls": ("repro.decoders.*.fit",),
    "cache.fingerprint.calls": ("repro.cache.fingerprint.fingerprint",),
}

#: Metric -> qualified names whose inclusive time is summed.
INCLUSIVE_S = {
    "cache.fingerprint_s": ("repro.cache.fingerprint.fingerprint",),
    "cache.get_s": ("repro.cache.store.CacheStore.get",),
    "cache.put_s": ("repro.cache.store.CacheStore.put",),
    "experiments.save_s": ("repro.experiments.base.ExperimentResult.save_csv",),
    "obs.manifest_s": ("repro.obs.manifest.build_manifest",
                       "repro.obs.manifest.write_manifest"),
    "perf.pool_start_s": ("repro.perf.pool.get_pool",),
    "perf.pool_wait_s": ("repro.perf.pool.WarmPool.wait",),
    "perf.shm_unpack_s": ("repro.perf.shm.unpack_payload",),
}


def _transport_bytes(args: tuple, result: Any) -> dict[str, float]:
    return {"perf.transport_bytes": float(args[0]["stats"]["total_bytes"])}


def _fleet_sessions(args: tuple, result: Any) -> dict[str, float]:
    return {"fleet.sessions": float(args[0].n_sessions)}


def _cache_get(args: tuple, result: Any) -> dict[str, float]:
    return {"cache.gets": 1.0, "cache.hits": float(result is not None)}


#: Qualified name -> f(args, result) giving values to add after a call.
PROBES: dict[str, Callable[[tuple, Any], dict[str, float]]] = {
    "repro.perf.shm.unpack_payload": _transport_bytes,
    "repro.fleet.engine.run_cohort": _fleet_sessions,
    "repro.cache.store.CacheStore.get": _cache_get,
}

#: Module of the memoized schedule search (``cached_best_schedule``)
#: whose hit ratio the main process reports.
SCHEDULE_MODULE = "repro.accel.schedule"


def layer_of(module: str) -> str:
    """``repro.core.explorer`` -> ``core``; ``repro`` -> ``repro``."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


def _matches(qualname: str, table: dict[str, tuple[str, ...]]) -> tuple:
    return tuple(metric for metric, patterns in table.items()
                 if any(fnmatch.fnmatchcase(qualname, p) for p in patterns))


class _Watch:
    """What a watched function records besides its layer self time."""

    __slots__ = ("calls", "times", "probe")

    def __init__(self, qualname: str) -> None:
        self.calls = _matches(qualname, CALL_COUNTS)
        self.times = _matches(qualname, INCLUSIVE_S)
        self.probe = PROBES.get(qualname)

    def __bool__(self) -> bool:
        return bool(self.calls or self.times or self.probe)


class Tracer:
    """Layer self-time tracer for one process (and its forked children).

    Args:
        out_dir: directory that receives ``spans-<pid>.jsonl`` files.
        package: top-level package whose modules are wrapped.
        clock: monotonic clock in seconds.
    """

    def __init__(self, out_dir: Path | str, package: str = "repro",
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.out_dir = Path(out_dir)
        self.package = package
        self.clock = clock
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.install_s = 0.0
        self._wrappers: dict[int, tuple[Any, Any]] = {}
        self._instrumented: set[str] = set()
        self._import_depth = 0
        self._modules_seen = 0
        self._original_import = builtins.__import__
        # The innermost frame's layer, in a cell the wrappers share.
        self._current: list[str | None] = [None]
        self._reset()

    def _reset(self) -> None:
        self.stack: list[list[float]] = []
        self._current[0] = None
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.values: dict[str, float] = defaultdict(float)

    @property
    def layer(self) -> str | None:
        """Layer of the innermost open frame (None outside any)."""
        return self._current[0]

    # -- recording -------------------------------------------------------

    def call(self, fn: Callable, layer: str, args: tuple, kwargs: dict,
             watch: _Watch | None = None) -> Any:
        """Run ``fn`` as a frame of ``layer`` and account its time."""
        current = self._current
        outer = current[0]
        frame = [0.0]
        self.stack.append(frame)
        current[0] = layer
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
            if watch is not None and watch.probe is not None:
                for key, value in watch.probe(args, result).items():
                    self.values[key] += value
            return result
        finally:
            elapsed = self.clock() - start
            self.stack.pop()
            current[0] = outer
            self.self_s[layer] += elapsed - frame[0]
            if self.stack:
                self.stack[-1][0] += elapsed
            if watch is not None:
                for metric in watch.calls:
                    self.calls[metric] += 1
                for metric in watch.times:
                    self.inclusive_s[metric] += elapsed
            if not self.stack and self.pid != self.main_pid:
                self.flush()

    def wrap(self, fn: Callable, layer: str, qualname: str) -> Callable:
        """A traced stand-in for ``fn``; same-layer calls pass through."""
        watch = _Watch(qualname)
        call = self.call
        current = self._current
        layer = sys.intern(layer)  # the fast path compares identities
        if watch:
            def wrapper(*args, **kwargs):
                return call(fn, layer, args, kwargs, watch)
        else:
            def wrapper(*args, **kwargs):
                if current[0] is layer:
                    return fn(*args, **kwargs)
                return call(fn, layer, args, kwargs)
        functools.update_wrapper(wrapper, fn)
        if hasattr(fn, "cache_info"):  # keep lru_cache's interface
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        wrapper.__traced__ = True
        self._wrappers[id(fn)] = (fn, wrapper)
        return wrapper

    # -- instrumentation -------------------------------------------------

    def _owned(self, module: str) -> bool:
        return module == self.package or module.startswith(self.package + ".")

    def _wrap_class(self, cls: type, layer: str, prefix: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qualname = f"{prefix}.{attr}"
            if isinstance(value, (staticmethod, classmethod)):
                inner = value.__func__
                if getattr(inner, "__traced__", False):
                    continue
                setattr(cls, attr, type(value)(
                    self.wrap(inner, layer, qualname)))
            elif (isinstance(value, types.FunctionType)
                  and not getattr(value, "__traced__", False)):
                setattr(cls, attr, self.wrap(value, layer, qualname))

    def instrument(self, module: types.ModuleType) -> None:
        """Wrap the public functions and class methods ``module``
        defines."""
        name = module.__name__
        layer = layer_of(name)
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or getattr(value, "__traced__", False):
                continue
            if getattr(value, "__module__", None) != name:
                continue
            qualname = f"{name}.{attr}"
            if isinstance(value, type):
                self._wrap_class(value, layer, qualname)
            elif (isinstance(value, types.FunctionType)
                  or hasattr(value, "cache_info")):
                setattr(module, attr, self.wrap(value, layer, qualname))

    def rebind(self, module: types.ModuleType) -> None:
        """Point every alias in ``module`` of a wrapped original (as
        left by ``from m import f``) at its wrapper."""
        for attr, value in list(vars(module).items()):
            pair = self._wrappers.get(id(value))
            if pair is not None and pair[0] is value:
                setattr(module, attr, pair[1])

    def instrument_loaded(self) -> None:
        """Instrument every loaded module of the package not yet seen."""
        fresh = [module for name, module in list(sys.modules.items())
                 if self._owned(name) and name not in self._instrumented
                 and module is not None]
        for module in fresh:
            self._instrumented.add(module.__name__)
            self.instrument(module)
        for module in fresh:
            self.rebind(module)
        self._modules_seen = len(sys.modules)

    def _import(self, name, globals=None, locals=None, fromlist=(),
                level=0):
        self._import_depth += 1
        try:
            if self.stack:
                return self.call(self._original_import, IMPORT_LAYER,
                                 (name, globals, locals, fromlist, level),
                                 {})
            return self._original_import(name, globals, locals, fromlist,
                                         level)
        finally:
            self._import_depth -= 1
            if (self._import_depth == 0
                    and len(sys.modules) != self._modules_seen):
                self.instrument_loaded()

    def install(self) -> None:
        """Instrument what is loaded, hook later imports, and reset the
        records in forked children."""
        start = time.perf_counter()
        self.instrument_loaded()
        builtins.__import__ = self._import
        os.register_at_fork(after_in_child=self._after_fork)
        self.install_s = time.perf_counter() - start

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self._reset()

    # -- output ----------------------------------------------------------

    def record(self) -> dict[str, Any]:
        """This process's records since the last flush.

        ``flushed_at`` reads the system-wide monotonic clock, so the
        process that reaps this one can time its exit.
        """
        main = self.pid == self.main_pid
        out = {"pid": self.pid, "main": main,
               "flushed_at": time.perf_counter(),
               "install_s": self.install_s if main else 0.0,
               "self_s": dict(self.self_s), "calls": dict(self.calls),
               "inclusive_s": dict(self.inclusive_s),
               "values": dict(self.values)}
        schedule = sys.modules.get(SCHEDULE_MODULE)
        if main and schedule is not None:
            info = schedule.cached_best_schedule.cache_info()
            out["values"]["accel.schedule_cache.hits"] = float(info.hits)
            out["values"]["accel.schedule_cache.misses"] = float(
                info.misses)
        return out

    def flush(self) -> Path:
        """Append this process's records to its spans file and clear
        them."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(self.record(), sort_keys=True) + "\n")
        self._reset()
        return path


def main(argv: list[str]) -> int:
    """``TRACE_DIR <repro argv...>``: run one traced ``repro`` command."""
    if not argv:
        print("usage: python -m bench.traced TRACE_DIR <repro argv...>",
              file=sys.stderr)
        return 2
    # The import profile covers this interpreter only, not the ones it
    # starts (such as the multiprocessing resource tracker).
    os.environ.pop("PYTHONPROFILEIMPORTTIME", None)
    import repro.cli

    tracer = Tracer(argv[0])
    tracer.install()
    try:
        return repro.cli.main(argv[1:])
    finally:
        tracer.flush()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
