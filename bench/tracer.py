"""Span recorder for the benchmark's traced runs.

The recorder lives outside the package: `Tracer.install()` replaces each
wrapped function of the cocycles modules by a recording wrapper and
`uninstall()` puts the originals back.  Modules bind names with
`from .frames import kernel_field`, so a module-level function is replaced
in every cocycles module that holds it, not only where it is defined; a
method is replaced on its class.  Names that a later version of the package
no longer has are skipped and listed in `missing`.

A span is [function id, parent span, start, end].  Spans stay in memory
until `take()`; per-layer self time is a span's duration minus the time its
direct child spans cover.
"""

import math
import sys
import time
from collections import Counter

# layer -> wrapped names (ClassName.method or function) of cocycles.<layer>
WRAPPED = {
    "trigpoly": [
        "TrigPoly.__mul__", "TrigPoly.__add__", "TrigPoly.translate",
        "TrigPoly.conj", "TrigPoly.from_dict", "TrigPoly.to_json_dict",
        "TrigPoly.from_json_dict", "to_grid", "from_grid", "grid_tail_mass",
        "log_integral", "complex_shift",
    ],
    "matfun": [
        "MatrixFunction.__matmul__", "MatrixFunction.__add__",
        "MatrixFunction.__mul__", "MatrixFunction.translate",
        "MatrixFunction.adjoint", "MatrixFunction.sample_at",
        "MatrixFunction.sample_grid", "MatrixFunction.to_json_dict",
        "MatrixFunction.from_json_dict", "GridMatrixFunction.sample_at",
        "GridMatrixFunction.to_json_dict", "GridMatrixFunction.from_json_dict",
        "max_rank", "exterior_power", "poly_det", "hstack", "vstack",
    ],
    "frames": [
        "kernel_field", "kernel_field_from_samples", "range_field",
        "range_field_from_samples", "field_from_vectors", "orthocomplement",
        "preimage_field", "sum_field", "intersect_field", "complement_within",
        "phase_align", "to_analytic_frame", "subspace_distance",
    ],
    "cocycle": [
        "iterate", "lyapunov_spectrum", "rank_profile", "detect_nilpotency",
        "rank_one_factor", "exact_L1_rank_one", "Cocycle.to_json_dict",
        "Cocycle.from_json_dict",
    ],
    "normalform": [
        "triangularize", "jordan_form", "jordan_structure_from_ranks",
        "perturb_simple",
    ],
    "domination": ["split_infinite_part", "is_dominated", "dominated_splitting"],
    "cli": ["main"],
    "fixtures": [
        "nilpotent_3x3_variable_rank", "nilpotent_4x4_variable_rank2",
        "twofrequency_rank_one", "not_dominated_2x2", "dominated_2x2",
        "nilpotent_plus_invertible_3x3", "constant_jordan", "random_trigpoly",
        "random_unitary_matrix", "random_unitary_function",
        "random_strictly_upper", "random_nilpotent",
        "random_constant_rank_jordan", "random_invertible", "random_rank_one",
    ],
}

# frames functions that return a new SubspaceField
FIELD_CONSTRUCTORS = {
    "kernel_field", "kernel_field_from_samples", "range_field",
    "range_field_from_samples", "field_from_vectors", "orthocomplement",
    "preimage_field", "sum_field", "intersect_field", "complement_within",
}

# normal forms whose kernel_field grid sizes are counted (widening retries)
FORMS = {"triangularize", "jordan_form"}

# CocycleError subclasses reported by name; any other lands in "other"
ERROR_NAMES = ("ConstantRankViolated", "TailTooFat", "UnsupportedBase")

# wrapped name -> counter bumped on every call
CALL_COUNTS = {
    "TrigPoly.__mul__": "trigpoly.mul_calls",
    "MatrixFunction.__matmul__": "matfun.matmul_calls",
    "rank_profile": "cocycle.rank_profile_calls",
    "detect_nilpotency": "cocycle.nilpotency_calls",
    "split_infinite_part": "domination.calls",
    "is_dominated": "domination.calls",
    "dominated_splitting": "domination.calls",
}


class Tracer:
    """Records spans and counters of calls into the cocycles modules."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.functions = []       # function id -> (layer, name)
        self.missing = []
        self._stack = []
        self._form_grids = []     # one set of grid sizes per open normal form
        self._bindings = []       # (owner, attribute, original, wrapper)
        self.active = False

    # -- installation --------------------------------------------------

    def install(self):
        """Put the wrappers in place; they are built on the first call."""
        if not self._bindings:
            self._build()
        for owner, attr, _, wrapped in self._bindings:
            setattr(owner, attr, wrapped)
        self.active = True

    def uninstall(self):
        for owner, attr, raw, _ in reversed(self._bindings):
            setattr(owner, attr, raw)
        self.active = False

    def _build(self):
        mods = [mod for name, mod in sys.modules.items()
                if name == "cocycles" or name.startswith("cocycles.")]
        errors = sys.modules.get("cocycles.errors")
        error_cls = getattr(errors, "CocycleError", Exception)
        for layer, names in WRAPPED.items():
            home = sys.modules.get(f"cocycles.{layer}")
            for qual in names:
                owner, attr = _resolve(home, qual)
                if owner is None:
                    self.missing.append(f"{layer}.{qual}")
                    continue
                fid = len(self.functions)
                self.functions.append((layer, qual))
                if isinstance(owner, type):
                    raw = owner.__dict__[attr]
                    wrapped = self._wrap(fid, layer, qual, raw, error_cls)
                    self._bindings.append((owner, attr, raw, wrapped))
                    continue
                # replace the function wherever a cocycles module bound it
                raw = getattr(owner, attr)
                wrapped = self._wrap(fid, layer, qual, raw, error_cls)
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is raw:
                            self._bindings.append((mod, key, raw, wrapped))

    def _wrap(self, fid, layer, qual, raw, error_cls):
        kind = None
        if isinstance(raw, (classmethod, staticmethod)):
            kind = type(raw)
            raw = raw.__func__
        name = qual.rsplit(".", 1)[-1]
        after = _COUNTERS.get(qual)
        if after is None and layer == "frames" and name in FIELD_CONSTRUCTORS:
            after = _count_field
        is_form = layer == "normalform" and name in FORMS
        call_count = CALL_COUNTS.get(qual)
        spans = self.spans
        stack = self._stack
        counts = self.counts
        functions = self.functions
        form_grids = self._form_grids
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            # a module imported while the wrappers were in place keeps them
            if not self.active:
                return raw(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span = [fid, parent, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            if is_form:
                form_grids.append(set())
            if call_count:
                counts[call_count] += 1
            span[2] = clock()
            try:
                result = raw(*args, **kwargs)
            except error_cls as exc:
                # count an error once, at the innermost wrapped call it leaves
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    label = type(exc).__name__
                    if label not in ERROR_NAMES:
                        label = "other"
                    counts[f"errors.raised.{label}"] += 1
                raise
            finally:
                span[3] = clock()
                stack.pop()
                if is_form:
                    grids = form_grids.pop()
                    if grids:
                        counts["normalform.forms"] += 1
                        counts["normalform.grids"] += len(grids)
            if after is not None:
                outer = parent < 0 or functions[spans[parent][0]][0] != layer
                after(self, args, kwargs, result, outer)
            return result

        wrapper.__name__ = getattr(raw, "__name__", name)
        wrapper.__qualname__ = getattr(raw, "__qualname__", name)
        wrapper.__doc__ = raw.__doc__
        wrapper.__wrapped__ = raw
        return kind(wrapper) if kind else wrapper

    # -- results ---------------------------------------------------------

    def take(self):
        """Return and clear the recorded spans and counters."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts

    def layer_times(self, spans):
        """Per-layer self time and per-function inclusive time, in seconds."""
        child = [0.0] * len(spans)
        for _, parent, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = Counter()
        total_s = Counter()
        for (fid, _, t0, t1), covered in zip(spans, child):
            layer, qual = self.functions[fid]
            self_s[layer] += (t1 - t0) - covered
            total_s[qual] += t1 - t0
        return self_s, total_s


def _resolve(home, qual):
    if home is None:
        return None, None
    parts = qual.split(".")
    owner = home
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if isinstance(owner, type):
        if parts[-1] not in owner.__dict__:
            return None, None
    elif not callable(getattr(owner, parts[-1], None)):
        return None, None
    return owner, parts[-1]


def _count_interp(tr, args, kwargs, result, outer):
    # dense trigonometric interpolation: every output entry sums the whole
    # spectrum, so multiply-adds are computed, not measured
    n, rows, cols = result.shape
    spectrum = math.prod(args[0].grid_shape)
    tr.counts["matfun.interp_points"] += n
    tr.counts["matfun.interp_macs"] += n * spectrum * rows * cols


def _count_iterate(tr, args, kwargs, result, outer):
    tr.counts["cocycle.iterate_factors"] += int(kwargs["n"] if "n" in kwargs else args[1])


def _count_lyapunov(tr, args, kwargs, result, outer):
    base_dim = len(args[0].frequencies)
    tr.counts["cocycle.lyapunov_steps"] += int(result.n) * int(result.grid) ** base_dim


def _count_field(tr, args, kwargs, result, outer):
    # only calls entering the frames layer from outside, so a constructor
    # built from other constructors counts once
    if outer:
        tr.counts["frames.field_calls"] += 1
        tr.counts["frames.field_samples"] += int(result.M)


def _count_kernel_field(tr, args, kwargs, result, outer):
    _count_field(tr, args, kwargs, result, outer)
    if tr._form_grids:
        tr._form_grids[-1].add(int(result.M))


# wrapped name -> counter fed from the call's arguments and result
_COUNTERS = {
    "GridMatrixFunction.sample_at": _count_interp,
    "iterate": _count_iterate,
    "lyapunov_spectrum": _count_lyapunov,
    "kernel_field": _count_kernel_field,
}
