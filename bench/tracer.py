"""Span tracing of the library's layers from outside the library.

A Tracer wraps named functions and methods of the kroneig modules and
records one span per call: (name, start, end, parent, attrs), with the
parent taken from a per-thread span stack. Spans stay in memory until the
caller writes them out. Nothing in the library is edited: a module-level
function is replaced in every loaded kroneig module that holds it (the
defining module and each module that imported it by name), a method is
replaced on its class. A target that no longer exists is reported as
absent instead of failing, so the end-to-end benchmark keeps running after
a refactor removes or renames a layer.
"""

import functools
import importlib
import sys
import threading
import time


def _pair_ranks(args, out):
    return {"rank_in": args[0].shape[1], "rank_out": out[0].shape[1]}


def _block_ranks(args, out):
    W = args[0]
    return {"rank_in": max(W.r_hat, W.r_til), "rank_out": max(out.r_hat, out.r_til)}


def _svd_work(args, out):
    m, n = args[0].shape
    k = min(m, n)
    return {"flops": m * n * k, "min_dim": k, "kept": out[1].size}


def _iterations(args, out):
    return {"iterations": out.iterations}


# (span name, defining module, attribute, attrs function). A dotted
# attribute names a method on a class of that module.
TARGETS = [
    ("sylvester.pair_truncate", "kroneig.sylvester", "pair_truncate", _pair_ranks),
    ("sylvester.solve_pair", "kroneig.sylvester", "EigenbasisPreconditioner.solve_pair", None),
    ("sylvester.eig2_setup", "kroneig.sylvester", "EigenbasisPreconditioner.__init__", None),
    ("sylvester.bicgstab_multiterm", "kroneig.sylvester", "bicgstab_multiterm", _iterations),
    ("sylvester.apply_pair", "kroneig.sylvester", "MultitermSylvester.apply_pair", None),
    ("contour.node_problem", "kroneig.contour", "node_problem", None),
    ("blr.truncate", "kroneig.blr", "truncate", _block_ranks),
    ("blr.apply_operator", "kroneig.blr", "apply_operator", None),
    ("blr.block_inner", "kroneig.blr", "block_inner", None),
    ("blr.column_norms", "kroneig.blr", "column_norms", None),
    ("blr.orthonormalize_svd", "kroneig.blr", "orthonormalize_svd", None),
    ("lobpcg.apply_block", "kroneig.lobpcg", "AdiBlockPreconditioner.apply_block", None),
    ("lobpcg.rayleigh_ritz_3block", "kroneig.lobpcg", "rayleigh_ritz_3block", None),
    ("dense.svd_trunc", "kroneig.dense", "svd_trunc", _svd_work),
]

ROOT_SPAN = "solve"


class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args=(), kwargs=None, attrs_fn=None):
        """Run fn(*args, **kwargs) inside a span called name."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append(None)
        stack.append(idx)
        attrs = None
        start = time.perf_counter()
        try:
            out = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[idx] = (name, start, end, parent, attrs)
        if attrs_fn is not None:
            try:
                attrs = attrs_fn(args, out)
            except (AttributeError, IndexError, TypeError, ValueError):
                # a changed signature loses this span's counters, not the run
                attrs = None
            self.spans[idx] = (name, start, end, parent, attrs)
        return out

    def _wrap(self, name, fn, attrs_fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs_fn)

        return wrapper

    def install(self, targets=TARGETS):
        """Wrap every target that exists; record the others as absent."""
        for name, module_name, attr, attrs_fn in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                fn = vars(cls).get(meth) if isinstance(cls, type) else None
                if not callable(fn):
                    self.absent.append(name)
                    continue
                self._patches.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(name, fn, attrs_fn))
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn, attrs_fn)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "kroneig" and not mod_name.startswith("kroneig."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, fn in reversed(self._patches):
            setattr(owner, key, fn)
        self._patches = []


def summarize(spans):
    """Per-name call counts, total and self seconds, and summed attrs.

    A span's self time is its duration minus the durations of its direct
    children (spans of one thread nest, so children never overlap).
    Returns (per_name, root_seconds): root_seconds sums the ROOT_SPAN spans.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    per_name = {}
    root_seconds = 0.0
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        if name == ROOT_SPAN:
            root_seconds += end - start
            continue
        row = per_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child[i]
        for key, value in (attrs or {}).items():
            row[key] = row.get(key, 0) + value
    return per_name, root_seconds
