"""Spans around calls into each layer, for the traced run only.

``Tracer.install`` replaces layer functions by timing wrappers at the
name their callers look up: ``steptwo.cli.run`` for the CLI,
``steptwo.tensors.exp_laguerre`` for the basis tables the tensor layer
builds, ``steptwo.kernels.sphere_rule`` for each quadrature refinement
pass, and so on.  Spans (name, start, end, parent, job id and a few
counters) stay in memory until ``write``.  A span's self time is its
duration minus the durations of its direct children; calls are
sequential, so children never overlap.
"""

import functools
import importlib
import json
import os
import time

import steptwo.fields

# span name -> (module path, attribute): where the callers look the name up
LAYERS = {
    "cli": ("steptwo.cli", "run"),
    "fields.twisted_convolve": ("steptwo.fields", "twisted_convolve"),
    "fields.group_convolve": ("steptwo.fields", "group_convolve"),
    "fields.group_convolve_fourier": ("steptwo.fields", "group_convolve_fourier"),
    "fields.abel_approx_identity": ("steptwo", "abel_approx_identity"),
    "tensors.laguerre_coefficients": ("steptwo.tensors", "laguerre_coefficients"),
    "tensors.synthesize": ("steptwo.tensors", "synthesize"),
    "tensors.tensor_multiply": ("steptwo.tensors", "tensor_multiply"),
    "laguerre.exp_laguerre": ("steptwo.tensors", "exp_laguerre"),
    "kernels.fundamental_solution": ("steptwo.kernels", "fundamental_solution"),
    "kernels.szego_kernel": ("steptwo.kernels", "szego_kernel"),
    "quadrature.sphere_rule": ("steptwo.kernels", "sphere_rule"),
    "spectral.normalize": ("steptwo.spectral", "normalize"),
}

KERNELS = ("kernels.fundamental_solution", "kernels.szego_kernel")
# every layer reports its self time; these also report their call counts
COUNTED = (
    "fields.twisted_convolve",
    "fields.io",
    "laguerre.exp_laguerre",
    *KERNELS,
    "quadrature.sphere_rule",
    "spectral.normalize",
)


def _points(args, kwargs):
    """Evaluation points of an ``exp_laguerre(frame, idx, y)`` call."""
    y = kwargs["y"] if "y" in kwargs else args[2]
    shape = getattr(y, "shape", ())
    count = 1
    for s in shape[:-1]:
        count *= s
    return count


def _file_bytes(path):
    path = str(path)
    return sum(os.path.getsize(p) for p in (path, path + ".json") if os.path.exists(p))


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = "setup"
        self._stack = []
        self._saved = []

    def _open(self, name):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "job": self.job,
            "failed": 0,
        }
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            except Exception:
                span["failed"] = 1
                raise
            finally:
                tracer._close(span)
                if count is not None:
                    span.update(count(args, kwargs))

        return traced

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        for name, (module, attr) in LAYERS.items():
            owner = importlib.import_module(module)
            count = (lambda a, k: {"points": _points(a, k)}) if name == "laguerre.exp_laguerre" else None
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name, count))

        # field save/load, as methods of the container class
        cls = steptwo.fields.SampledField
        save, load = cls.save, cls.load
        io_bytes = lambda a, k: {"bytes": _file_bytes(a[-1])}  # noqa: E731
        self._patch(cls, "save", self.wrap(save, "fields.io", io_bytes))
        self._patch(cls, "load", classmethod(self.wrap(lambda _cls, path: load(path), "fields.io", io_bytes)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self):
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def layer_metrics(self):
        """Per-layer metrics over all recorded spans: name -> (value, unit)."""
        own = self.self_times()
        names = (*LAYERS, "fields.io")
        calls = dict.fromkeys(names, 0)
        self_s = dict.fromkeys(names, 0.0)
        failed = dict.fromkeys(names, 0)
        points = io_bytes = 0
        for s in self.spans:
            name = s["name"]
            calls[name] += 1
            self_s[name] += own[s["id"]]
            failed[name] += s["failed"]
            points += s.get("points", 0)
            io_bytes += s.get("bytes", 0)
        metrics = {f"{name}.self_s": (self_s[name], "s") for name in names}
        metrics.update({f"{name}.calls": (calls[name], "count") for name in COUNTED})
        metrics.update({f"{name}.failed": (failed[name], "count") for name in KERNELS})
        metrics["laguerre.exp_laguerre.points"] = (points, "count")
        metrics["fields.io.bytes"] = (io_bytes, "bytes")
        kernel_calls = sum(calls[k] for k in KERNELS)
        converged = kernel_calls - sum(failed[k] for k in KERNELS)
        # a workload without kernel calls reads 0
        metrics["kernels.converged_ratio"] = (converged / kernel_calls if kernel_calls else 0.0, "ratio")
        return metrics

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
