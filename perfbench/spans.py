"""Spans around the benchmark's calls into homhopf, and the per-layer totals
derived from them.

The benchmark never calls a homhopf function directly: it goes through a
:class:`Layers` object, whose attributes are the package modules.  With
tracing off an attribute lookup returns the library function itself, so the
timed runs pay one extra attribute lookup per call.  With tracing on every
call is wrapped in a span that records its name (``layer.function``), start,
end, parent span and job id.  Spans are kept in memory, summarised and
written out when the run ends; nothing inside ``src/`` is touched.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

from homhopf.report import AxiomReport

#: the package modules the benchmark measures, in report order
LAYERS = ("linalg", "core", "doi", "integrals", "maschke", "applications", "io", "cli")


@dataclass
class Span:
    name: str
    job: str
    phase: str
    parent: int | None
    start: float
    end: float = 0.0
    failed: bool = False
    child_time: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def self_time(self) -> float:
        return (self.end - self.start) - self.child_time


@dataclass
class Tracer:
    """In-memory span recorder and exact counters.

    One job is open at a time (closed loop), so the current job id and
    phase (``setup``, ``job`` or ``check``) are plain attributes.
    """

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    job: str = "setup"
    phase: str = "setup"
    _stack: list = field(default_factory=list)

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.job, self.phase, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_time += span.end - span.start
        if isinstance(result, AxiomReport):
            self.count("core.check_instances", result.checked)
        return result

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def count_system(self, system) -> None:
        """Exact sizes of an assembled integral system."""
        matrices = (system.homogeneous, system.affine_lhs)
        self.count("integrals.rows", sum(m.rows for m in matrices))
        self.count("integrals.unknowns", system.unknown_count)
        self.count("integrals.nnz", sum(1 for m in matrices for x in m.entries if x))


class _Module:
    def __init__(self, layer: str, module, tracer: Tracer | None):
        self._layer = layer
        self._module = module
        self._tracer = tracer

    def __getattr__(self, name: str):
        fn = getattr(self._module, name)
        if self._tracer is None:
            setattr(self, name, fn)
            return fn
        tracer = self._tracer
        span_name = f"{self._layer}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(span_name, fn, *args, **kwargs)

        setattr(self, name, traced)
        return traced


class _IO(_Module):
    """``io`` plus ``build``, the ``StructureFile.build`` method as a function."""

    def build(self, sf, name: str):
        if self._tracer is None:
            return sf.build(name)
        return self._tracer.call("io.build", sf.build, name)


class Layers:
    """Access to the homhopf modules, traced when a tracer is given."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        for layer in LAYERS:
            module = importlib.import_module(f"homhopf.{layer}")
            wrapper = _IO if layer == "io" else _Module
            setattr(self, layer, wrapper(layer, module, tracer))

    def set_job(self, job: str, phase: str) -> None:
        if self.tracer is not None:
            self.tracer.job = job
            self.tracer.phase = phase


# ---------------------------------------------------------------------------
# per-layer metrics

#: time metrics: metric name -> span names whose self time it sums
TIMED = {
    "integrals.assemble_s": ("integrals.assemble_integral_system",),
    "integrals.solve_s": ("integrals.solve_normalized_integral",),
    "integrals.verify_s": ("integrals.verify_integral",),
    "core.check_hom_hopf_s": ("core.check_hom_hopf",),
    "core.yau_twist_s": ("core.yau_twist",),
    "core.opposite_tensor_s": ("core.opposite_tensor",),
    "doi.check_doi_datum_s": ("doi.check_doi_datum",),
    "doi.check_doi_module_s": ("doi.check_doi_module",),
    "doi.induce_s": ("doi.induce",),
    "doi.triangle_s": ("doi.check_triangle_identities",),
    "applications.yd_datum_s": ("applications.yd_datum",),
    "applications.relative_datum_s": ("applications.relative_datum",),
    "applications.trivial_datum_s": ("applications.trivial_datum",),
    "applications.check_yd_s": ("applications.check_yd_module",
                                "applications.check_yd_substructures"),
    "maschke.build_retraction_s": ("maschke.build_retraction",),
    "maschke.extract_integral_s": ("maschke.extract_integral",),
    "maschke.split_epimorphism_s": ("maschke.split_epimorphism",),
    "io.parse_s": ("io.parse_structure_file",),
    "io.build_s": ("io.build",),
    "io.serialize_s": ("io.serialize_structure_file", "io.hopf_to_raw",
                       "io.comodule_algebra_to_raw", "io.module_coalgebra_to_raw",
                       "io.doi_datum_to_raw", "io.yd_module_to_raw",
                       "io.integral_to_raw"),
    "cli.main_s": ("cli.main",),
}

#: exact counters recorded at the layer boundaries
COUNTED = ("integrals.rows", "integrals.unknowns", "integrals.nnz",
           "integrals.infeasible_jobs", "integrals.certificate_terms",
           "core.check_instances", "core.opposite_tensor_attempts", "io.bytes")

#: a solve job slower than this must spend most of its time eliminating
ELIM_SHARE_MIN_JOB_S = 0.1


def elimination(tracer: Tracer) -> list:
    """Per solve job: (job, solve seconds, elimination seconds), where
    elimination = solve - assemble - verify of the answer.  The solver
    assembles and (for a feasible answer) verifies internally; the traced
    run makes the same two calls separately to time them."""
    per_job = {}
    for s in tracer.spans:
        if s.phase == "setup":
            continue
        acc = per_job.setdefault(s.job, {"solve": 0.0, "assemble": 0.0, "verify": 0.0})
        if s.name == "integrals.solve_normalized_integral" and s.phase == "job":
            acc["solve"] += s.self_time
        elif s.name == "integrals.assemble_integral_system" and s.phase == "job":
            acc["assemble"] += s.self_time
        elif s.name == "integrals.verify_integral" and s.phase == "check":
            acc["verify"] += s.self_time
    return [(job, t["solve"], t["solve"] - t["assemble"] - t["verify"])
            for job, t in per_job.items() if t["solve"]]


def layer_metrics(tracer: Tracer, field_of: dict) -> dict:
    """Every per-layer metric, summed over the traced setup, pass and checks.

    ``field_of`` maps a job id to its field name ("Q" or "GF7").
    """
    out = {name: 0.0 for name in TIMED}
    by_span = {span: metric for metric, spans in TIMED.items() for span in spans}
    calls = {layer: 0 for layer in LAYERS}
    failed = {layer: 0 for layer in LAYERS}
    for s in tracer.spans:
        if s.name in by_span:
            out[by_span[s.name]] += s.self_time
        calls[s.layer] += 1
        failed[s.layer] += s.failed
    elim = elimination(tracer)
    out["linalg.elim_s"] = sum(e for _, _, e in elim)
    out["linalg.elim_s.q"] = sum(e for job, _, e in elim if field_of[job] == "Q")
    out["linalg.elim_s.gf7"] = sum(e for job, _, e in elim if field_of[job] == "GF7")
    shares = [e / t for _, t, e in elim if t > ELIM_SHARE_MIN_JOB_S]
    out["linalg.elim_share_min"] = min(shares) if shares else 0.0
    calls["linalg"] += len(elim)
    for name in COUNTED:
        out[name] = tracer.counts.get(name, 0)
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.failed"] = failed[layer]
    return out
