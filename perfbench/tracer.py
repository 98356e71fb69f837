"""Run one workload command with spans recorded around calls into each layer.

The program's own files are untouched: this wrapper replaces, before the
command starts, every `gevreymhd.*` module attribute that is one of the
layer functions below by a recording wrapper, so a function is counted
however a caller bound it (`from .x import f` leaves one binding per
importing module).  numpy's 3-D transforms are wrapped in `numpy.fft` the
same way.  Spans carry an id and a parent id, stay in memory, and are
written as JSON when the command ends.  A layer function that no longer
exists is listed as absent.

`radius_rhs` is deliberately not wrapped: it runs millions of times per run
and a wrapper would dominate the radius times it is meant to explain.

Usage:
    python3 perfbench/tracer.py SPANS.json cli ARGS...      # gevreymhd CLI
    python3 perfbench/tracer.py SPANS.json script PATH ARGS...
"""

import functools
import importlib
import json
import math
import os
import pkgutil
import runpy
import sys
import time

LAYERS = {
    "numpy.fft": ("fftn", "ifftn", "rfftn", "irfftn"),
    "gevreymhd.spectral": ("to_physical", "from_physical", "leray_project",
                           "dealias"),
    "gevreymhd.operators": ("gradient_physical", "curl", "advect"),
    "gevreymhd.solver": ("step_rk4", "rhs_primitive", "cfl_timestep",
                         "_sample_diagnostics", "step_rk4_curl",
                         "rhs_curl_pair", "recompute_radius"),
    "gevreymhd.norms": ("state_norms", "sup_gradient", "fit_radius"),
    "gevreymhd.radius": ("integrate_radius", "cumulative_integral",
                         "gronwall_majorant", "estimate_C_tilde"),
    "gevreymhd.triads": ("pair_marginal", "extract_band", "weight_tables"),
    "gevreymhd.lab": ("triad_decomposition_check", "energy_balance_check",
                      "estimate_constant", "scalar_inequality_suite"),
    "gevreymhd.checkpoint": ("save_checkpoint", "load_checkpoint"),
    "gevreymhd.cli": ("_write_series", "_write_spectrum"),
}


def layer_label(module: str, func: str) -> str:
    """Span name of a layer function: `fft.<f>` or `<module>.<f>`."""
    if module == "numpy.fft":
        return f"fft.{func}"
    return f"{module.split('.')[-1]}.{func}"


def _fft_counts(func, args, kwargs, result):
    # The real-space side of the transform holds the computed volume.
    arr = result if func == "irfftn" else (args[0] if args else kwargs["a"])
    shape = getattr(arr, "shape", ())
    axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    if axes is None:
        axes = range(len(shape))
    volume = math.prod(shape[a] for a in axes)
    points = math.prod(shape)
    return {"transforms": points // volume if volume else 0, "points": points}


def _checkpoint_bytes(func, args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _radius_intervals(func, args, kwargs, result):
    return {"intervals": len(args[0] if args else kwargs["times"]) - 1}


EXTRAS = {
    ("numpy.fft", f): _fft_counts for f in LAYERS["numpy.fft"]
}
EXTRAS[("gevreymhd.checkpoint", "save_checkpoint")] = _checkpoint_bytes
EXTRAS[("gevreymhd.radius", "integrate_radius")] = _radius_intervals


class SpanRecorder:
    """In-memory spans: [id, parent id, name, start, end, counts or None]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.absent = []

    def wrap(self, name, fn, extra=None, func=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0,
                    None]
            spans.append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(func, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding of every layer function in gevreymhd's modules."""
        import gevreymhd

        for info in pkgutil.iter_modules(gevreymhd.__path__):
            importlib.import_module(f"gevreymhd.{info.name}")
        namespaces = [m for name, m in sys.modules.items()
                      if name == "gevreymhd" or name.startswith("gevreymhd.")]
        for module, funcs in LAYERS.items():
            try:
                home = importlib.import_module(module)
            except ImportError:
                home = None
            for func in funcs:
                name = layer_label(module, func)
                orig = getattr(home, func, None)
                if orig is None:
                    self.absent.append(name)
                    continue
                wrapper = self.wrap(name, orig, EXTRAS.get((module, func)),
                                    func)
                for ns in {id(m): m for m in (*namespaces, home)}.values():
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            setattr(ns, attr, wrapper)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "absent": self.absent}, fh)


def main(argv) -> int:
    out, kind, rest = argv[1], argv[2], argv[3:]
    recorder = SpanRecorder()
    recorder.install()
    try:
        if kind == "cli":
            from gevreymhd.cli import main as cli_main

            code = cli_main(rest)
        else:
            sys.argv = rest
            try:
                runpy.run_path(rest[0], run_name="__main__")
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
    finally:
        recorder.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
