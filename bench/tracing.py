"""Span tracing installed from outside the package under test.

``Tracer.install`` discovers the package's module boundaries at run time:
every function a package module imports from another package module is
wrapped in the importer's namespace, a module imported under an alias
(``from . import functionals as fn``) is replaced in the importer by a copy
whose functions are wrapped, and every function of ``numpy.linalg`` is
wrapped in place.  Callers named in ``extra`` (methods and same-module
helpers the per-layer metrics need) are wrapped when they exist; ``wrapped``
holds every span name in use, so a caller can tell which names a refactor
has removed.

Spans are kept in memory as ``[name, layer, start, end, parent, op]`` and
written out by ``dump``; ``uninstall`` restores every original.
"""

import functools
import inspect
import json
import sys
import time
import types


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []
        self.op = None
        self.wrapped = set()
        self._stack = []
        self._restore = []

    def layer_of(self, module_name):
        return module_name.rsplit(".", 1)[-1]

    def _wrap(self, fn, layer, name):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        self.wrapped.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, clock(), None, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()

        return traced

    def _patch(self, owner, attr, layer, name):
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, layer, name))

    def _is_package_module(self, obj):
        return inspect.ismodule(obj) and obj.__name__.startswith(self.package + ".")

    def install(self, extra=()):
        """Wrap every cross-module call site of the package, numpy.linalg,
        and the ``(module, owner_path, layer)`` entries of ``extra``."""
        import numpy.linalg

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == self.package
                                         or name.startswith(self.package + "."))]
        for importer in modules:
            for attr, obj in list(vars(importer).items()):
                origin = getattr(obj, "__module__", None) or ""
                if (inspect.isfunction(obj) and origin != importer.__name__
                        and origin.startswith(self.package + ".")):
                    layer = self.layer_of(origin)
                    self._patch(importer, attr, layer, f"{layer}.{obj.__name__}")
                elif (self._is_package_module(obj) and obj is not importer
                      and importer.__name__ != self.package):
                    self._restore.append((importer, attr, obj))
                    setattr(importer, attr, self._module_proxy(obj))
        for attr in numpy.linalg.__all__:
            obj = getattr(numpy.linalg, attr)
            if callable(obj) and not isinstance(obj, type):
                self._patch(numpy.linalg, attr, "linalg", f"linalg.{attr}")
        for module_name, path, layer in extra:
            owner = sys.modules.get(f"{self.package}.{module_name}")
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            if callable(getattr(owner, attr, None)):
                self._patch(owner, attr, layer, f"{layer}.{attr}")

    def _module_proxy(self, module):
        proxy = types.ModuleType(module.__name__)
        layer = self.layer_of(module.__name__)
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                obj = self._wrap(obj, layer, f"{layer}.{attr}")
            setattr(proxy, attr, obj)
        return proxy

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def call(self, name, layer, fn, *args):
        """Call ``fn`` inside a span opened by the benchmark itself."""
        return self._wrap(fn, layer, name)(*args)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, layer, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, _, start, end, _, _), c in zip(spans, child)]
