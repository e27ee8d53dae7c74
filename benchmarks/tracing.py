"""Spans around the public functions of postsamp's modules, and the per-layer
metrics derived from them.

The tracer wraps, from outside the package, every function a module lists
in ``__all__`` plus a few named methods, by replacing each reference to
the original in every loaded ``postsamp`` module.  Each call records a
span: function, start, end, parent span and the op (job) it ran under.
Spans live in flat arrays in memory and are written out at the end.

Each module is one layer.  A span's self time is its duration minus the
time its child spans cover.  A metric named ``<layer>.<thing>_s`` sums
the self time of a group of that layer's functions together with the
self time of same-layer calls nested inside them, so a helper of the same
module counts toward its caller while calls into other layers do not.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import tracemalloc
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("streams", "toy", "regularizers", "proplab", "autotune",
          "cfid", "linops", "detect", "verify", "cli")

# Methods wrapped in addition to the module functions in __all__.
METHODS = {
    "streams": ("SeededStream.generator",),
    "linops": ("FourierSubsampler.apply",),
}


def _args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _normals_mc(fn, args, kwargs, result):
    a = _args(fn, args, kwargs)
    dim = a["params"].dim
    per_replicate = a["P"] * dim + (dim if "post" in a else 0)
    return {"normals": a["n_outer"] * per_replicate}


def _normals_sample(fn, args, kwargs, result):
    return {"normals": result.values.size}


def _minimize(fn, args, kwargs, result):
    by = getattr(result, "converged_by", None)
    gradient = by == "gradient" if by is not None else bool(result.converged)
    return {"iterations": result.iterations, "gradient": int(gradient)}


def _contour(fn, args, kwargs, result):
    return {"points": result.values.size}


def _e_hat(fn, args, kwargs, result):
    return {"items": _args(fn, args, kwargs)["val"].size}


def _epochs(fn, args, kwargs, result):
    return {"epochs": len(result.rows)}


def _passed(fn, args, kwargs, result):
    return {"passed": int(bool(result.passed))}


def _detect(fn, args, kwargs, result):
    return {"samples": _args(fn, args, kwargs)["samples"].n}


def _read(fn, args, kwargs, result):
    return {"bytes": os.path.getsize(_args(fn, args, kwargs)["path"])}


def _stats_flops(fn, args, kwargs, result):
    e = _args(fn, args, kwargs)["embeddings"]
    n, dx, dy = e.rows, e.x.shape[1], e.y.shape[1]
    # Five Gram products X^T Y cost 2 n dx dy flops each.
    return {"flops": 2 * n * (2 * dx * dx + dy * dy + 2 * dx * dy)}


def _sqrtm(fn, args, kwargs, result):
    return {"dim": int(np.asarray(_args(fn, args, kwargs)["matrix"]).shape[0])}


def _apply(fn, args, kwargs, result):
    op = args[0]
    return {"shape": (op.coils,) + tuple(op.shape)}


# Function groups behind the per-layer metrics: name -> (layer, functions,
# counter).  A counter reads counts from a call's arguments and result.
GROUPS = {
    "streams.generator": ("streams", ("SeededStream.generator",), None),
    "toy.sample": ("toy", ("sample_posterior", "sample_generator"), _normals_sample),
    "regularizers.mc": ("regularizers", ("mc_l1p", "mc_lsdp", "mc_l2p", "mc_lvarp"), _normals_mc),
    "regularizers.closed_form": ("regularizers", (
        "closed_form_j", "closed_form_j_grad", "closed_form_l2p", "closed_form_l2varp",
        "folded_normal_abs_mean"), None),
    "proplab.minimize": ("proplab", ("minimize_regularizer",), _minimize),
    "proplab.contour": ("proplab", ("contour_grid",), _contour),
    "autotune.e_hat": ("autotune", ("e_hat", "e_hat_items"), _e_hat),
    "autotune.simulate": ("autotune", ("simulate_autotune",), _epochs),
    "verify.check": ("verify", ("check_posterior_recovery", "check_mode_collapse",
                                "check_average_error_ratio"), _passed),
    "detect.estimate": ("detect", ("detection_probability", "plug_in_gap"), _detect),
    "cfid.read": ("cfid", ("read_embeddings",), _read),
    "cfid.stats": ("cfid", ("compute_stats",), _stats_flops),
    "cfid.conditional": ("cfid", ("conditional_stats",), None),
    "cfid.sqrtm": ("cfid", ("sqrtm_psd",), _sqrtm),
    "linops.load_operator": ("linops", ("load_operator",), None),
    "linops.apply": ("linops", ("FourierSubsampler.apply",), _apply),
    "cli.main": ("cli", ("main",), None),
}

# Groups whose functions' tracemalloc peak the memory pass takes.
MEMORY_GROUPS = ("regularizers.mc", "cfid.read", "cfid.stats")


def _resolve(module, qualname: str):
    """(owner, attribute, function) for ``name`` or ``Class.method``."""
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = vars(owner).get(parts[-1])
    if fn is None or not inspect.isfunction(fn):
        return None
    return owner, parts[-1], fn


class _Patcher:
    """Replaces functions by wrappers everywhere in the loaded package."""

    def __init__(self, package: str = "postsamp"):
        self.package = package
        self.missing: list[str] = []
        self._undo: list[tuple] = []

    def targets(self, wanted: dict) -> list[tuple]:
        """(layer, qualname, owner, attr, fn) for each wanted name that exists.

        ``wanted`` maps a layer to qualnames; names that no longer exist are
        recorded in ``missing`` rather than raising.
        """
        found = []
        for layer, names in wanted.items():
            try:
                module = importlib.import_module(f"{self.package}.{layer}")
            except ImportError:
                self.missing.extend(f"{layer}.{name}" for name in names)
                continue
            for qualname in names:
                hit = _resolve(module, qualname)
                if hit is None:
                    self.missing.append(f"{layer}.{qualname}")
                else:
                    found.append((layer, qualname) + hit)
        return found

    def patch(self, owner, attr: str, original, replacement) -> None:
        if inspect.isclass(owner):
            setattr(owner, attr, replacement)
            self._undo.append((owner, attr, original))
            return
        prefix = self.package + "."
        for name, module in list(sys.modules.items()):
            if module is None or not (name == self.package or name.startswith(prefix)):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                    self._undo.append((module, key, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def public_names() -> dict[str, tuple]:
    """Layer -> every public function and traced method, plus the names the
    metric groups need (so a removed one is reported missing)."""
    wanted: dict[str, list] = {layer: [] for layer in LAYERS}
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"postsamp.{layer}")
        except ImportError:
            continue
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name, None)
            if obj is None or (inspect.isfunction(obj) and obj.__module__ == module.__name__):
                wanted[layer].append(name)
        wanted[layer].extend(METHODS.get(layer, ()))
    for layer, names, _ in GROUPS.values():
        wanted[layer].extend(names)
    return {layer: tuple(dict.fromkeys(names)) for layer, names in wanted.items()}


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.names: list[tuple[str, str]] = []  # id -> (layer, qualname)
        self.kind = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts: dict[int, dict] = {}
        self.counter_errors: dict[str, str] = {}
        self.current_job = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patcher = _Patcher()

    @property
    def missing(self) -> list[str]:
        return self._patcher.missing

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        counters = {}
        for layer, names, counter in GROUPS.values():
            for name in names:
                counters[(layer, name)] = counter
        for layer, qualname, owner, attr, fn in self._patcher.targets(public_names()):
            nid = len(self.names)
            self.names.append((layer, qualname))
            self._patcher.patch(owner, attr, fn, self._wrap(fn, nid, counters.get((layer, qualname))))

    def uninstall(self) -> None:
        self._patcher.restore()

    def _wrap(self, fn, nid: int, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                # A pool thread's first span hangs under the span the main
                # thread is blocked in.
                main = tracer._main_stack
                parent = main[-1] if main and stack is not main else -1
            with tracer._lock:
                idx = len(tracer.kind)
                tracer.kind.append(nid)
                tracer.parent.append(parent)
                tracer.job.append(tracer.current_job)
                tracer.t0.append(0.0)
                tracer.t1.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.t0[idx] = t0
                tracer.t1[idx] = t1
            if counter is not None:
                try:
                    tracer.counts[idx] = counter(fn, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, ValueError, OSError) as exc:
                    tracer.counter_errors[tracer.names[nid][1]] = repr(exc)
            return result

        return traced

    def save(self, path: str, jobs: list[str]) -> None:
        """Write every span to an ``.npz`` file (names and jobs as strings)."""
        np.savez(
            path,
            name=np.array([f"{layer}.{qualname}" for layer, qualname in self.names]),
            job_id=np.array(jobs),
            kind=np.frombuffer(self.kind, dtype=np.int32),
            start=np.frombuffer(self.t0, dtype=np.float64),
            end=np.frombuffer(self.t1, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
        )

    def jobs_calling(self, groups) -> set[int]:
        """Jobs with a span of any function of the named ``GROUPS``."""
        wanted = {(GROUPS[g][0], fn) for g in groups for fn in GROUPS[g][1]}
        ids = [i for i, name in enumerate(self.names) if name in wanted]
        kind = np.frombuffer(self.kind, dtype=np.int32)
        job = np.frombuffer(self.job, dtype=np.int32)
        return {int(j) for j in np.unique(job[np.isin(kind, ids)])}

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def group_totals(self) -> dict[str, dict]:
        """Per metric group: outermost calls, their layer self time and
        inclusive time, summed counts and each call's counts."""
        n = len(self.kind)
        kind = np.frombuffer(self.kind, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        t0 = np.frombuffer(self.t0, dtype=np.float64)
        t1 = np.frombuffer(self.t1, dtype=np.float64)
        layer_names = sorted({layer for layer, _ in self.names})
        layer_of_name = np.array([layer_names.index(layer) for layer, _ in self.names] or [0])
        layer = layer_of_name[kind] if n else np.zeros(0, dtype=np.int64)
        has_parent = parent >= 0
        safe_parent = np.where(has_parent, parent, 0)
        same = has_parent & (layer[safe_parent] == layer) if n else has_parent

        self_time = (t1 - t0) - _child_cover(parent, t0, t1, n)
        depth = _depth(parent)
        # Layer-local inclusive time: own self time plus that of same-layer
        # descendants reached without leaving the layer.
        local = self_time.copy()
        for level in range(int(depth.max(initial=0)), 0, -1):
            m = same & (depth == level)
            np.add.at(local, parent[m], local[m])

        totals = {}
        for group, (glayer, funcs, _) in GROUPS.items():
            ids = [i for i, name in enumerate(self.names) if name[0] == glayer and name[1] in funcs]
            member = np.isin(kind, ids)
            inside = member.copy()
            for level in range(1, int(depth.max(initial=0)) + 1):
                m = same & (depth == level)
                inside[m] |= inside[parent[m]]
            outer = member & ~(same & inside[safe_parent])
            idx = np.flatnonzero(outer)
            per_call = [self.counts[i] for i in idx.tolist() if i in self.counts]
            counts: dict = {}
            for call in per_call:
                for key, value in call.items():
                    if isinstance(value, (int, float)):
                        counts[key] = counts.get(key, 0) + value
            totals[group] = {
                "calls": int(idx.size),
                "self_s": float(local[idx].sum()),
                "inclusive_s": float((t1[idx] - t0[idx]).sum()),
                "counts": counts,
                "per_call": per_call,
            }
        layer_self = {}
        for li, lname in enumerate(layer_names):
            layer_self[lname] = float(self_time[layer == li].sum())
        totals["_layer_self"] = layer_self
        return totals


def _child_cover(parent, t0, t1, n) -> np.ndarray:
    """Per span, the length of the union of its children's intervals.

    Children of one parent overlap only when they ran on pool threads.
    """
    cover = np.zeros(n)
    child = np.flatnonzero(parent >= 0)
    if child.size == 0:
        return cover
    order = child[np.lexsort((t0[child], parent[child]))]
    p = parent[order]
    first = np.r_[True, p[1:] != p[:-1]]
    group = np.cumsum(first) - 1
    base = float(t0.min())
    width = float(t1.max() - base) + 1.0
    start = t0[order] - base + group * width
    end = t1[order] - base + group * width
    running = np.maximum.accumulate(end)
    before = np.r_[-np.inf, running[:-1]]
    before[first] = -np.inf
    covered = np.clip(end - np.maximum(start, before), 0.0, None)
    np.add.at(cover, p, covered)
    return cover


def _depth(parent: np.ndarray) -> np.ndarray:
    depth = np.zeros(parent.size, dtype=np.int64)
    has_parent = parent >= 0
    safe = np.where(has_parent, parent, 0)
    for _ in range(256):
        nxt = np.where(has_parent, depth[safe] + 1, 0)
        if np.array_equal(nxt, depth):
            break
        depth = nxt
    return depth


class MemoryProbe:
    """tracemalloc peak of each call of a few functions, above its start."""

    def __init__(self):
        self.peak_bytes: dict[str, int] = {group: 0 for group in MEMORY_GROUPS}
        self._patcher = _Patcher()
        self._depth = 0

    @property
    def missing(self) -> list[str]:
        return self._patcher.missing

    def install(self) -> None:
        wanted = {}
        group_of = {}
        for group in MEMORY_GROUPS:
            layer, funcs, _ = GROUPS[group]
            wanted.setdefault(layer, []).extend(funcs)
            for fn in funcs:
                group_of[(layer, fn)] = group
        for layer, qualname, owner, attr, fn in self._patcher.targets(wanted):
            self._patcher.patch(owner, attr, fn, self._wrap(fn, group_of[(layer, qualname)]))

    def uninstall(self) -> None:
        self._patcher.restore()
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    def _wrap(self, fn, group: str):
        probe = self

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            if probe._depth:
                return fn(*args, **kwargs)
            probe._depth += 1
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                tracemalloc.stop()
                probe._depth -= 1
                probe.peak_bytes[group] = max(probe.peak_bytes[group], peak)

        return measured
