"""Span recorder for the traced run, installed from outside the library.

`installed(tracer)` replaces each function listed in TRACED with a
recording wrapper, in every loaded `kasteleyn` module that binds it (the
defining module included, so calls the library makes to itself are seen
too), and restores the originals on exit.  Nothing under `src/` knows
about it.  Each span is (name, start, end, parent span, instance id).
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# Layer module -> public functions wrapped.  Small geometric predicates
# (orient, segment_relation) stay unwrapped: they run inside the target
# checks millions of times and their cost belongs to the caller's layer.
TRACED = {
    "cli": ("main",),
    "graphfile": ("parse",),
    "graphs": ("validate",),
    "immersion": ("is_embedding", "is_disc_embedding", "is_immersion", "canonical_start"),
    "transport": ("compute_signed_structure", "build_path", "transport_signs"),
    "geometry": ("motion_collinearity_poly", "roots_in_open_unit_interval", "motion_betweenness_polys"),
    "linalg": ("det", "minor", "pfaffian", "pfaffian_minor", "reduce_left_block", "skew_congruence_reduce"),
    "measurements": ("kasteleyn_matrix", "skew_kasteleyn_matrix", "measurement_table",
                     "grassmann_point", "pfaffian_point"),
    "identities": ("check_kuo_bipartite", "check_kuo_general", "check_plucker_three_term",
                   "check_pfaffian_consistency"),
    "fixtures": ("generate_grid", "generate_aztec", "generate_random_disc_graph",
                 "generate_triangulation_subgraph"),
    "oracle": ("enumerate_matchings",),
}

# Spans charged with their whole duration, descendants included: the block
# reductions own their built-in sample checks, and set-up work owns the
# validation and embedding checks it runs on fresh fixtures.
INCLUSIVE = frozenset(
    ["linalg.reduce_left_block", "linalg.skew_congruence_reduce"]
    + [f"fixtures.{name}" for name in TRACED["fixtures"]]
    + ["oracle.enumerate_matchings"]
)

SETUP = "setup"  # instance id of spans recorded while building the workload


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _count_parse(counters, args, result):
    counters["graphfile.bytes"] += len(args[0])


def _count_transport(counters, args, result):
    counters["transport.attempts"] += result.attempts
    counters["transport.events"] += len(result.events)


def _count_roots(counters, args, result):
    counters["geometry.rooted"] += bool(result)


def _count_bits(counters, args, result):
    counters["linalg.result_bits_max"] = max(counters["linalg.result_bits_max"], _bits(result))


def _count_table(counters, args, result):
    counters["measurements.values"] += len(result.values)


def _count_identity(counters, args, result):
    counters["identities.failed"] += not result.holds


def _count_matchings(counters, args, result):
    counters["oracle.matchings"] += len(result)


HOOKS = {
    "graphfile.parse": _count_parse,
    "transport.compute_signed_structure": _count_transport,
    "geometry.roots_in_open_unit_interval": _count_roots,
    "linalg.det": _count_bits,
    "linalg.pfaffian": _count_bits,
    "measurements.measurement_table": _count_table,
    **{f"identities.{name}": _count_identity for name in TRACED["identities"]},
    "oracle.enumerate_matchings": _count_matchings,
}


class Tracer:
    """In-memory spans plus counters taken from wrapped calls' results."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.instance = None
        self.counters: Counter = Counter()

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.instance)
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def times(self) -> tuple[Counter, Counter, dict]:
        """Charged seconds and call counts per span name, top-level seconds per instance.

        A span is charged its duration minus its children's, except that an
        INCLUSIVE span is charged its whole duration and its descendants
        nothing.
        """
        child_time: dict = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        owner: list = []
        charged: Counter = Counter()
        calls: Counter = Counter()
        top: dict = defaultdict(float)
        for sid, (name, start, end, parent, instance) in enumerate(self.spans):
            inherited = owner[parent] if parent >= 0 else None
            if inherited is None and name in INCLUSIVE:
                owner.append(sid)
            else:
                owner.append(inherited)
            calls[name] += 1
            if parent < 0:
                top[instance] += end - start
            if inherited is None:
                charged[name] += end - start - (0.0 if name in INCLUSIVE else child_time[sid])
        return charged, calls, top

    def jsonable_spans(self):
        for sid, (name, start, end, parent, instance) in enumerate(self.spans):
            yield {"id": sid, "name": name, "start": start, "end": end,
                   "parent": parent, "instance": instance}


@contextmanager
def installed(tracer: Tracer):
    """Route every traced function through `tracer` while the block runs."""
    homes = {layer: importlib.import_module(f"kasteleyn.{layer}") for layer in TRACED}
    modules = [m for n, m in list(sys.modules.items()) if n == "kasteleyn" or n.startswith("kasteleyn.")]
    patched = []
    try:
        for layer, names in TRACED.items():
            for name in names:
                fn = getattr(homes[layer], name)
                wrapper = tracer.wrap(f"{layer}.{name}", fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, fn))
        yield tracer
    finally:
        for mod, attr, fn in reversed(patched):
            setattr(mod, attr, fn)


class AssignmentTap:
    """Keeps each SignAssignment the matrix builders receive.

    The CLI path prints only the count, so this is how the run log gets the
    event digest of every instance.  It wraps one call per matrix built and
    is installed in untraced runs too, inside any tracer.
    """

    def __init__(self):
        self.taken: list = []

    @contextmanager
    def installed(self):
        measurements = importlib.import_module("kasteleyn.measurements")
        inner = measurements.compute_signed_structure

        def tapped(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.taken.append(result)
            return result

        measurements.compute_signed_structure = tapped
        try:
            yield self
        finally:
            measurements.compute_signed_structure = inner
