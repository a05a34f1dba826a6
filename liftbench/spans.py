"""Spans and set-up probes around liftrec's public calls.

Nothing under ``src/liftrec`` is edited: each public name is replaced, for
the length of a pass, at every place its callers look it up (the module
global a caller reads, or the class attribute for ``AffineOperator``
methods).  A name that no longer exists raises at install time, so a
renamed or folded function cannot silently zero a layer.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

# span name -> the bindings that are replaced ("module:attr" or
# "module:Class.attr"), and the way the wrapped object is called
SOLVER_ENTRIES = {
    "solvers.solve_equality_nnm": (
        "liftrec.calderon:solve_equality_nnm",
        "liftrec.internal:solve_equality_nnm",
        "liftrec.solvers:solve_equality_nnm",
    ),
    "solvers.solve_regularized_nnm": (
        "liftrec.internal:solve_regularized_nnm",
        "liftrec.solvers:solve_regularized_nnm",
    ),
    "solvers.solve_regularized_constrained": (
        "liftrec.calderon:solve_regularized_constrained",
    ),
    "solvers.solve_psd_trace_min": ("liftrec.quadratic:solve_psd_trace_min",),
}
# solver entries that own an iteration loop (solve_psd_trace_min delegates)
ITERATING = (
    "solvers.solve_equality_nnm",
    "solvers.solve_regularized_nnm",
    "solvers.solve_regularized_constrained",
)
PRECERTIFICATE = {"certify.precertificate": ("liftrec.certify:precertificate",)}
# set-up ends at the first call into either layer
SETUP_ENDS = {**SOLVER_ENTRIES, **PRECERTIFICATE}

APPLY = (
    "solvers.AffineOperator.apply",
    "solvers.AffineOperator.apply_vec",
    "solvers.AffineOperator.adjoint_apply",
    "solvers.AffineOperator.adjoint_vec",
)

TRACED = {
    "cli.main": ("liftrec.cli:main",),
    **SETUP_ENDS,
    **{name: ("liftrec.solvers:AffineOperator." + name.rsplit(".", 1)[1],)
       for name in APPLY},
    "solvers.AffineOperator.opnorm_estimate": (
        "liftrec.solvers:AffineOperator.opnorm_estimate",),
    "solvers.psd_trace_prox": ("liftrec.solvers:psd_trace_prox",),
    "lowrank.svt_prox": ("liftrec.solvers:svt_prox",),
    "lowrank.nuclear_norm": (
        "liftrec.solvers:nuclear_norm", "liftrec.certify:nuclear_norm"),
    "lowrank.operator_norm": (
        "liftrec.solvers:operator_norm", "liftrec.certify:operator_norm",
        "liftrec.internal:operator_norm"),
    "calderon.build_calderon_problem": ("liftrec.calderon:build_calderon_problem",),
    "calderon.solve_schrodinger_2d": ("liftrec.calderon:solve_schrodinger_2d",),
    "calderon.assemble_calderon_system": (
        "liftrec.calderon:assemble_calderon_system",),
    "calderon.precertificate_study": ("liftrec.calderon:precertificate_study",),
    "calderon.gauss_newton_baseline": ("liftrec.calderon:gauss_newton_baseline",),
    "internal.build_internal_problem": ("liftrec.cli:build_internal_problem",),
    "internal.assemble_internal_operator": (
        "liftrec.cli:assemble_internal_operator",
        "liftrec.internal:assemble_internal_operator"),
    "quadratic.recover_phaselift": ("liftrec.quadratic:recover_phaselift",),
}


def _mb(nbytes):
    return nbytes / 2 ** 20


def _note_iterations(result):
    return result[1].iterations


def _note_system(system):
    return (system.op_full.codomain_dim, system.op_hard.codomain_dim,
            _mb(system.op_full.matrix.nbytes))


def _note_operator(op):
    return _mb(op.matrix.nbytes)


# what a span keeps from its call's return value
NOTES = {
    **{name: _note_iterations for name in ITERATING},
    "calderon.assemble_calderon_system": _note_system,
    "internal.assemble_internal_operator": _note_operator,
}


def _resolve(binding):
    module_name, attr = binding.split(":")
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if leaf not in vars(owner):
        raise LookupError(f"{module_name} has no public name {attr!r} to wrap")
    return owner, leaf, vars(owner)[leaf]


def install(table, wrap):
    """Replace every binding in ``table`` by ``wrap(name, original)``.

    Returns a callable that puts the originals back.  Properties are wrapped
    through their getter, so ``opnorm_estimate`` keeps its attribute syntax.
    """
    saved = []
    try:
        for name, bindings in table.items():
            for binding in bindings:
                owner, leaf, original = _resolve(binding)
                if isinstance(original, property):
                    replacement = property(wrap(name, original.fget))
                else:
                    replacement = wrap(name, original)
                setattr(owner, leaf, replacement)
                saved.append((owner, leaf, original))
    except BaseException:
        _restore(saved)
        raise
    return functools.partial(_restore, saved)


def _restore(saved):
    for owner, leaf, original in reversed(saved):
        setattr(owner, leaf, original)


class SetupDone(BaseException):
    """Ends a set-up probe at the first call into solvers or certify.

    A BaseException, so the CLI's handlers and the thread pool pass it on
    instead of treating it as a configuration or certificate error.
    """


class SetupProbe:
    """Records when an invocation first calls into solvers or certify, and
    stops it there."""

    def __init__(self):
        self.first = None
        self._lock = threading.Lock()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            with self._lock:
                if self.first is None:
                    self.first = time.perf_counter()
            raise SetupDone(name)
        return probed


class Tracer:
    """In-memory spans with a parent stack per thread.

    A span is ``[name, parent index, start, end, note]``; the parent index
    points into the same thread's list, so pool threads nest independently
    and busy time sums across threads.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads = []

    def _spans(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack = [], []
            with self._lock:
                self.threads.append(local.spans)
        return local.spans, local.stack

    def take(self):
        """Return the spans recorded so far, one list per thread, and clear."""
        with self._lock:
            threads, self.threads = self.threads, []
        self._local = threading.local()
        return threads

    def wrap(self, name, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self._spans()
            record = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[3] = time.perf_counter()
            if note is not None:
                record[4] = note(result)
            return result
        return traced


def summarize(threads):
    """Per span name: calls, total duration, self time and the notes seen."""
    out = {}
    for spans in threads:
        child_time = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, _, start, end, note), children in zip(spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0,
                                          "notes": []})
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - children
            if note is not None:
                entry["notes"].append(note)
    return out


def write_spans(path, passes):
    """Write every recorded span as CSV, one row per span."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass,thread,index,name,parent,start,end\n")
        for k, threads in enumerate(passes):
            for t, spans in enumerate(threads):
                for i, (name, parent, start, end, _) in enumerate(spans):
                    fh.write(f"{k},{t},{i},{name},{parent},{start:.9f},{end:.9f}\n")
