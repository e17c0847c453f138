"""In-memory span tracer and the wrappers that feed it, for traced runs.

A span has a name, a start, an end and the index of its parent span; the
self time of a span is its duration minus the durations of its direct
children.  Spans stay in memory and are reduced to per-name totals when
the run ends.

Wrappers go on public functions from outside the program: ``install``
replaces a function in its defining module and in every ``rotbec`` module
that imported it by name (``scattering_length`` in ``manybody``, for
example), and on classes for methods.  A target that no longer exists is
recorded in ``Tracer.absent`` with a reason instead of failing the run.
The FFT wrappers sit on the ``scipy.fft`` and ``numpy.fft`` transform
functions, because ``model``, ``dm`` and ``lowest_eigenpairs`` call
``scipy.fft`` directly and bypass ``lattice.fftn``.
"""

import functools
import importlib
import sys
import time

FFT_MODULES = ("scipy.fft", "numpy.fft")
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")
FFT_SHAPES = ("96x96", "2x96x96", "4x96x96", "64x64x64", "48x48")


class Tracer:
    """Spans of one process, kept in flat lists."""

    def __init__(self):
        self.enabled = False
        self.absent = {}
        self.reset()

    def reset(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.fft = []            # (span index, shape key, bytes)
        self.restart_apps = []   # per GP family: iterations, best first
        self.counts = dict.fromkeys(
            ("gp.applications", "gp.restarts_attempted", "gp.restarts_converged",
             "dm.applications", "model.h0_block_rows", "manybody.hamiltonian_nnz"), 0)
        self._stack = []

    def open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(None)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def totals(self):
        """{name: [calls, seconds, self seconds]} over closed spans."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0 and self.ends[i] is not None:
                child[p] += self.ends[i] - self.starts[i]
        out = {}
        for i, name in enumerate(self.names):
            if self.ends[i] is None:
                continue
            dur = self.ends[i] - self.starts[i]
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def summary(self):
        """Per-name totals, FFT shapes and counts of this process's spans."""
        shapes = {}
        fft_bytes = 0
        for idx, key, nbytes in self.fft:
            row = shapes.setdefault(key, [0, 0.0])
            row[0] += 1
            row[1] += self.ends[idx] - self.starts[idx]
            fft_bytes += nbytes
        return {"totals": self.totals(), "fft_shapes": shapes, "fft_bytes": fft_bytes,
                "counts": dict(self.counts), "restart_apps": list(self.restart_apps),
                "spans": len(self.names), "absent": dict(self.absent)}


def _wrap(tracer, span, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        idx = tracer.open(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, idx, args, out)
        return out
    return wrapper


def install(tracer, target, span, after=None):
    """Wrap ``module:attr`` or ``module:Class.method`` under the span name."""
    modname, _, qual = target.partition(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError as exc:
        tracer.absent[span] = f"{modname} cannot be imported: {exc}"
        return False
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            tracer.absent[span] = f"{modname}.{part} does not exist"
            return False
    orig = getattr(owner, parts[-1], None)
    if orig is None:
        tracer.absent[span] = f"{target.replace(':', '.')} does not exist"
        return False
    wrapper = _wrap(tracer, span, orig, after)
    setattr(owner, parts[-1], wrapper)
    if len(parts) == 1:
        # rebind names that rotbec modules imported from the defining module
        for name, mod in list(sys.modules.items()):
            if name != "rotbec" and not name.startswith("rotbec."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
    return True


def _after_fft(tracer, idx, args, out):
    a = args[0]
    shape = getattr(a, "shape", ())
    tracer.fft.append((idx, "x".join(str(n) for n in shape),
                       int(getattr(a, "nbytes", 0)) + int(getattr(out, "nbytes", 0))))


def _after_family(tracer, idx, args, family):
    tracer.restart_apps.append([r.iterations for r in family])
    tracer.counts["gp.applications"] += sum(r.iterations for r in family)
    tracer.counts["gp.restarts_attempted"] += family[0].restarts_used
    tracer.counts["gp.restarts_converged"] += len(family)


def _after_dm(tracer, idx, args, result):
    tracer.counts["dm.applications"] += result.iterations


def _after_block(tracer, idx, args, out):
    tracer.counts["model.h0_block_rows"] += int(args[1].shape[0])


def _after_assemble(tracer, idx, args, out):
    tracer.counts["manybody.hamiltonian_nnz"] += int(out[0].nnz)


# (target, span, hook) for every layer of src/rotbec
LAYER_TARGETS = (
    ("rotbec.model:H0Action.apply", "model.h0_apply", None),
    ("rotbec.model:H0Action.apply_block", "model.h0_block", _after_block),
    ("rotbec.model:lowest_eigenpairs", "model.eig", None),
    ("rotbec.gp:minimize_gp_family", "gp.family", _after_family),
    ("rotbec.gp:gp_energy", "gp.energy", None),
    ("rotbec.dm:minimize_dm", "dm.minimize", _after_dm),
    ("rotbec.dm:minimize_weights", "dm.weights", None),
    ("rotbec.diagnostics:detect_vortices", "diagnostics.vortices", None),
    ("rotbec.diagnostics:symmetry_breaking_metric", "diagnostics.symmetry", None),
    ("rotbec.diagnostics:minimizer_family_analysis", "diagnostics.family", None),
    ("rotbec.manybody:truncated_gp_minimum", "manybody.gp_truncated", None),
    ("rotbec.manybody:build_w_tensor", "manybody.w_tensor", None),
    ("rotbec.manybody:assemble_hamiltonian", "manybody.assemble", _after_assemble),
    ("rotbec.manybody:ground_state_bosonic", "manybody.bosonic", None),
    ("rotbec.manybody:ground_state_absolute", "manybody.absolute", None),
    ("rotbec.manybody:coherent_state_checks", "manybody.coherent", None),
    ("rotbec.scatter:scattering_length", "scatter.length", None),
    ("rotbec.scatter:born_check", "scatter.born", None),
    ("rotbec.cli:main", "cli.main", None),
    ("rotbec.cli:write_csv", "cli.write", None),
)


def install_fft(tracer):
    """Wrap the transform functions; call before rotbec is imported."""
    wrapped = [install(tracer, f"{modname}:{name}", "lattice.fft", _after_fft)
               for modname in FFT_MODULES for name in FFT_NAMES]
    if any(wrapped):
        tracer.absent.pop("lattice.fft", None)  # some transforms are traced


def install_layers(tracer):
    for target, span, hook in LAYER_TARGETS:
        install(tracer, target, span, hook)


def self_test(tracer):
    """laplacian_spectral on a 32x32 field must count exactly 2 transforms."""
    import numpy as np
    from rotbec.lattice import Field, Grid, laplacian_spectral

    grid = Grid((4.0, 4.0), (32, 32))
    field = Field(grid, np.exp(-0.5 * grid.radius2_mesh).astype(complex))
    was = tracer.enabled
    tracer.reset()
    tracer.enabled = True
    laplacian_spectral(field)
    tracer.enabled = was
    count = sum(1 for idx, key, _ in tracer.fft if key == "32x32")
    tracer.reset()
    if count != 2:
        raise RuntimeError(f"FFT wrapping self-test counted {count} transforms, want 2")


def layer_metrics(summary, wall_s, cpu_s):
    """Per-layer metrics from a span summary: {name: (value, unit, span)}.

    ``span`` names the wrapped span a metric is read from (None for the
    process counters), so a metric whose span is absent can be reported
    as absent.  See README.md for the definitions.
    """
    tot = summary["totals"]
    counts = summary["counts"]
    m = {}

    def put(name, value, unit, span):
        m[name] = (value, unit, span)

    def calls(name):
        return tot.get(name, [0, 0.0, 0.0])[0]

    def secs(name):
        return tot.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return tot.get(name, [0, 0.0, 0.0])[2]

    def ratio(a, b):
        return a / b if b else 0.0

    shapes = summary["fft_shapes"]
    other = [0, 0.0]
    for key, (n, s) in shapes.items():
        if key not in FFT_SHAPES:
            other[0] += n
            other[1] += s
    applies = calls("model.h0_apply") + calls("model.h0_block")
    put("lattice.fft_calls", calls("lattice.fft"), "count", "lattice.fft")
    put("lattice.fft_s", secs("lattice.fft"), "s", "lattice.fft")
    for key in FFT_SHAPES:
        n, s = shapes.get(key, (0, 0.0))
        put(f"lattice.fft_us.{key}", ratio(s, n) * 1e6, "us", "lattice.fft")
    put("lattice.fft_us.other", ratio(other[1], other[0]) * 1e6, "us", "lattice.fft")
    put("lattice.fft_bytes_computed", summary["fft_bytes"], "B", "lattice.fft")
    put("lattice.fft_per_apply", ratio(calls("lattice.fft"), applies), "ratio", "lattice.fft")
    put("lattice.fft_per_apply_base", applies, "count", "lattice.fft")
    for span in ("model.h0_apply", "model.h0_block", "model.eig"):
        put(f"{span}_calls", calls(span), "count", span)
        put(f"{span}_s", secs(span), "s", span)
    put("model.h0_block_rows", counts["model.h0_block_rows"], "count", "model.h0_block")

    gp_apps = counts["gp.applications"]
    attempted = counts["gp.restarts_attempted"]
    converged = counts["gp.restarts_converged"]
    put("gp.family_s", secs("gp.family"), "s", "gp.family")
    put("gp.self_s", self_s("gp.family"), "s", "gp.family")
    put("gp.applications", gp_apps, "count", "gp.family")
    put("gp.s_per_application", ratio(secs("gp.family"), gp_apps), "s", "gp.family")
    put("gp.restarts_attempted", attempted, "count", "gp.family")
    put("gp.restarts_converged", converged, "count", "gp.family")
    put("gp.converged_ratio", ratio(converged, attempted), "ratio", "gp.family")
    put("gp.energy_s", secs("gp.energy"), "s", "gp.energy")

    put("dm.minimize_calls", calls("dm.minimize"), "count", "dm.minimize")
    put("dm.minimize_s", secs("dm.minimize"), "s", "dm.minimize")
    put("dm.self_s", self_s("dm.minimize"), "s", "dm.minimize")
    put("dm.applications", counts["dm.applications"], "count", "dm.minimize")
    put("dm.weights_calls", calls("dm.weights"), "count", "dm.weights")
    put("dm.weights_s", secs("dm.weights"), "s", "dm.weights")

    for span in ("diagnostics.vortices", "diagnostics.symmetry", "diagnostics.family",
                 "manybody.w_tensor", "manybody.assemble", "manybody.bosonic",
                 "manybody.absolute", "manybody.coherent", "scatter.born",
                 "cli.main", "cli.write"):
        put(f"{span}_s", secs(span), "s", span)
    for span in ("manybody.gp_truncated", "scatter.length"):
        put(f"{span}_calls", calls(span), "count", span)
        put(f"{span}_s", secs(span), "s", span)
    put("manybody.hamiltonian_nnz", counts["manybody.hamiltonian_nnz"], "count",
        "manybody.assemble")

    put("proc.cpu_s", cpu_s, "s", None)
    put("proc.cpu_per_wall", ratio(cpu_s, wall_s), "ratio", None)
    return m
