"""The three workloads: job lists built by a seeded setup.

Every job has a slot id (its row in ``expected.json``) and an input key (the
seeded automorphism it was built with, the row of that slot's digests).  A
job's ``run`` is the only code inside the timed span; ``answer`` and
``check`` run after the pass.

Why these workloads:

* ``solve`` is elimination-bound: ``solve_normalized_integral`` on Doi data
  built in setup, feasible and infeasible answers mixed.
* ``verify`` is checker- and parser-bound: the ``homhopf check`` path on
  structure files written in setup, plus in-process CLI runs.
* ``construct`` is bound by the checks that constructions run on their own
  output; integrals are solved in setup so the solver stays out of it.
"""

from __future__ import annotations

import contextlib
import io as _io
import os
from dataclasses import dataclass

from homhopf.core import OPPOSITE_TENSOR_ANTIPODES
from homhopf.golden import golden_file
from homhopf.integrals import Infeasible, IntegralCandidate
from homhopf.io import StructureFile
from homhopf.zoo import group_algebra, inclusion_matrix, projection_matrix

from checks import canon, certificate_problems, section_problems, serialized
from inputs import (FIELDS, Seeded, automorphism, base_domain, base_key,
                    build_hopf, module_over_group_algebra, module_over_scalars)


@dataclass
class Answer:
    verdict: str
    text: str          # serialized output; its sha256 is the job's digest
    axioms: tuple = ()  # failing axiom families, for "fail" verdicts


class Job:
    """One unit of work in a pass.  ``seeded_output`` marks jobs whose
    output depends on seeded module entries; they have no recorded digest
    and are checked by an untimed re-run that must give identical bytes."""

    seeded_output = False

    def __init__(self, slot: str, key: str, fname: str):
        self.slot = slot
        self.key = key
        self.fname = fname

    def run(self, api):
        raise NotImplementedError

    def answer(self, result) -> Answer:
        raise NotImplementedError

    def check(self, api, result) -> list:
        """Independent answer check; returns a list of problems."""
        return []


def _datum(api, kind: str, h):
    apps = api.applications
    if kind == "yd":
        return apps.yd_datum(h)
    if kind == "relative":
        return apps.relative_datum(h, apps.regular_comodule_algebra(h))
    return apps.trivial_datum(h)


def _solve(api, d):
    """Solve for an integral; a traced run also assembles the system on its
    own, to time assembly and count rows, unknowns and nonzeros."""
    system = None
    if api.tracer is not None:
        system = api.integrals.assemble_integral_system(d)
        api.tracer.count_system(system)
    return api.integrals.solve_normalized_integral(d), system


# ---------------------------------------------------------------------------
# solve

BOTH = ("Q", "GF7")

#: (datum kind, base algebra, fields); ``t`` marks a seeded Yau twist.  The
#: GF(7)-only rows keep a run inside its time budget (NOTES.md lists what was
#: left out and what it costs); the untwisted cyclic rungs fill the middle of
#: the latency distribution so that its median is not decided by one job.
SOLVE_DATA = (
    [("yd", b, BOTH) for b in ("kZ3t", "H4t")]
    + [("relative", b, BOTH) for b in ("kZ2", "kZ3", "kZ3t")]
    + [("relative", b, ("GF7",)) for b in ("kZ4t", "H4t")]
    + [("trivial", b, BOTH) for b in ("kZ2", "kZ3", "kZ3t", "kZ4", "kZ4t", "kZ5",
                                      "kZ5t", "kZ6", "kZ6t", "kZ8t", "H4", "H4t")]
)


class SolveJob(Job):
    def __init__(self, slot, key, fname, datum):
        super().__init__(slot, key, fname)
        self.datum = datum
        self.system = None

    def run(self, api):
        result, system = _solve(api, self.datum)
        if system is not None:
            self.system = system
        return result

    def answer(self, result) -> Answer:
        if isinstance(result, Infeasible):
            return Answer("infeasible", canon(result))
        return Answer("feasible", serialized(theta=result))

    def check(self, api, result) -> list:
        if isinstance(result, IntegralCandidate):
            rep = api.integrals.verify_integral(result, self.datum)
            return [] if rep.passed else [f"direct evaluator rejects theta: {rep.failing_axioms()}"]
        if isinstance(result, Infeasible):
            if api.tracer is not None:
                api.tracer.count("integrals.infeasible_jobs", 1)
                api.tracer.count("integrals.certificate_terms", len(result.combination))
            system = self.system or api.integrals.assemble_integral_system(self.datum)
            return certificate_problems(result, system)
        return [f"unexpected result type {type(result).__name__}"]


def solve_setup(api, seeded: Seeded, workdir: str) -> list:
    jobs = []
    for kind, base, fnames in SOLVE_DATA:
        for fname in fnames:
            slot = f"solve/{kind}/{base}/{fname}"
            choice = seeded.choose(slot, base_domain(base, fname))
            h = build_hopf(api, base, choice, FIELDS[fname])
            jobs.append(SolveJob(slot, base_key(base, choice), fname, _datum(api, kind, h)))
    return jobs


# ---------------------------------------------------------------------------
# verify

def check_object(api, sf, name: str):
    """The checker ``homhopf check`` runs for an object's kind."""
    kind = sf.kind_of(name)
    build = api.io.build
    raw = sf.raw[name]
    if kind == "hom_hopf_algebra":
        return api.core.check_hom_hopf(build(sf, name))
    if kind == "doi_datum":
        return api.doi.check_doi_datum(build(sf, name))
    if kind == "doi_module":
        return api.doi.check_doi_module(build(sf, name), build(sf, raw["datum"]))
    if kind == "yd_module":
        m, h = build(sf, name), build(sf, raw["hopf"])
        return api.applications.check_yd_substructures(m, h).merged(
            api.applications.check_yd_module(m, h))
    if kind == "integral":
        return api.integrals.verify_integral(build(sf, name), build(sf, raw["datum"]))
    raise ValueError(f"no checker for kind {kind!r}")


def _read(api, path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if api.tracer is not None:
        api.tracer.count("io.bytes", len(text.encode("utf-8")))
    return text


class CheckFileJob(Job):
    """Parse a structure file, build one object, check it, format the report."""

    def __init__(self, slot, key, fname, path, name):
        super().__init__(slot, key, fname)
        self.path = path
        self.name = name

    def run(self, api):
        sf = api.io.parse_structure_file(_read(api, self.path))
        report = check_object(api, sf, self.name)
        return report, f"{self.name}: {report.format(labels=sf.labels(self.name))}\n"

    def answer(self, result) -> Answer:
        report, text = result
        return Answer("pass" if report.passed else "fail", text, report.failing_axioms())


class CliJob(Job):
    """``cli.main`` in-process; the answer is the exit code, the output is
    stdout, stderr and any file written with ``--out``."""

    def __init__(self, slot, key, fname, argv, out_path=None):
        super().__init__(slot, key, fname)
        self.argv = argv
        self.out_path = out_path

    def run(self, api):
        out, err = _io.StringIO(), _io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = api.cli.main(self.argv)
        text = f"stdout:\n{out.getvalue()}stderr:\n{err.getvalue()}"
        if self.out_path:
            text += "file:\n" + _read(api, self.out_path)
        return code, text

    def answer(self, result) -> Answer:
        code, text = result
        return Answer(f"exit:{code}", text)


def _group_basis(n):
    return ["1"] + [f"g{i}" for i in range(1, n)]


H4_BASIS = ["1", "g", "x", "gx"]


def _basis(base):
    return H4_BASIS if base.startswith("H4") else _group_basis(int(base[2:].rstrip("t")))


def _datum_objects(api, kind, h, basis):
    """Structure-file objects T (the datum's Hopf algebra), A, C and D for a
    datum over ``h``; a Yetter-Drinfeld file also holds H and a module M."""
    d = _datum(api, kind, h)
    to_raw = api.io
    objs, a_basis = {}, basis
    if kind == "yd":
        t_basis = [f"{u}|{v}" for u in basis for v in basis]
        objs["H"] = to_raw.hopf_to_raw(h, basis)
        objs["M"] = to_raw.yd_module_to_raw(api.applications.trivial_yd_module(h), "H", ["1"])
    elif kind == "trivial":
        t_basis = a_basis = ["1"]
    else:
        t_basis = basis
    objs["T"] = to_raw.hopf_to_raw(d.hopf, t_basis)
    objs["A"] = to_raw.comodule_algebra_to_raw(d.algebra, "T", a_basis)
    objs["C"] = to_raw.module_coalgebra_to_raw(d.coalgebra, "T", basis)
    objs["D"] = to_raw.doi_datum_to_raw("T", "A", "C")
    return d, objs


def _corrupt_antipode(n, i):
    """The antipode of k[Z_n] with S(g^i) = g^i in place of g^-i."""
    return [[("1" if r == (i if c == i else -c % n) else "0") for c in range(n)]
            for r in range(n)]


#: (slot name, base) of the plain Hopf files; ``t`` marks a seeded twist
VERIFY_HOPF = ([(f"kZ{n}", f"kZ{n}") for n in range(2, 9)]
               + [(f"kZ{n}t", f"kZ{n}t") for n in range(3, 9)]
               + [("H4", "H4"), ("H4t", "H4t")])

#: (slot name, datum kind, base, objects to check)
VERIFY_DATA = (
    ("trivial_kZ4t", "trivial", "kZ4t", ("D",)),
    ("trivial_H4t", "trivial", "H4t", ("D",)),
    ("relative_kZ3t", "relative", "kZ3t", ("D",)),
    ("relative_H4t", "relative", "H4t", ("D",)),
    ("yd_kZ2", "yd", "kZ2", ("D", "M")),
    ("yd_kZ3t", "yd", "kZ3t", ("D",)),
    ("yd_kZ4t", "yd", "kZ4t", ("D",)),
)
#: data checked over Q only: building YD(k[Z_4]) over GF(7) in every set-up
#: costs more than its check tells
VERIFY_Q_ONLY = ("yd_kZ4t",)

#: seeded corruption sites on k[Z_7]: the basis index i of g^i
CORRUPT_ORDER = 7


def verify_setup(api, seeded: Seeded, workdir: str) -> list:
    jobs = []
    paths = {}

    def write(stem, field, objs):
        path = os.path.join(workdir, f"{stem}.{field}.json")
        text = api.io.serialize_structure_file(StructureFile(field, objs))
        if api.tracer is not None:
            api.tracer.count("io.bytes", len(text.encode("utf-8")))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths[stem] = path
        return path

    for fname, field in FIELDS.items():
        for name, base in VERIFY_HOPF:
            slot = f"verify/{name}/{fname}"
            choice = seeded.choose(slot, base_domain(base, fname))
            h = build_hopf(api, base, choice, field)
            path = write(name, field, {"H": api.io.hopf_to_raw(h, _basis(base))})
            jobs.append(CheckFileJob(slot, base_key(base, choice), fname, path, "H"))

        for golden in ("kZ2_corrupted_mult", "H4_corrupted_antipode"):
            path = write(golden, field, golden_file(golden, field).raw)
            jobs.append(CheckFileJob(f"verify/{golden}/{fname}", golden, fname, path, "H"))

        # seeded corruption sites on k[Z_7]: S(g^i) = g^i, and eps(g^i) = 0
        n = CORRUPT_ORDER
        for what in ("antipode", "counit"):
            slot = f"verify/corrupt_{what}/{fname}"
            i = seeded.choose(slot, range(1, n))
            raw = api.io.hopf_to_raw(group_algebra(n, field), _group_basis(n))
            if what == "antipode":
                raw["antipode"] = _corrupt_antipode(n, i)
            else:
                raw["counit"] = ["0" if k == i else "1" for k in range(n)]
            path = write(f"corrupt_{what}", field, {"H": raw})
            jobs.append(CheckFileJob(slot, f"kZ{n}@{i}", fname, path, "H"))

        for name, kind, base, objects in VERIFY_DATA:
            if fname != "Q" and name in VERIFY_Q_ONLY:
                continue
            slot = f"verify/{name}/{fname}"
            choice = seeded.choose(slot, base_domain(base, fname))
            h = build_hopf(api, base, choice, field)
            path = write(name, field, _datum_objects(api, kind, h, _basis(base))[1])
            for obj in objects:
                jobs.append(CheckFileJob(f"verify/{name}/{obj}/{fname}", base_key(base, choice),
                                         fname, path, obj))

        # Doi modules of the golden Maschke example, and a solved integral
        path = write("maschke_split_kZ2", field, golden_file("maschke_split_kZ2", field).raw)
        for obj in ("M", "N"):
            jobs.append(CheckFileJob(f"verify/maschke_split_kZ2/{obj}/{fname}", "kZ2",
                                     fname, path, obj))
        slot = f"verify/integral_kZ4t/{fname}"
        choice = seeded.choose(slot, base_domain("kZ4t", fname))
        d, objs = _datum_objects(api, "trivial", build_hopf(api, "kZ4t", choice, field),
                                 _basis("kZ4t"))
        objs["theta"] = api.io.integral_to_raw(_solve(api, d)[0], "D")
        path = write("integral_kZ4t", field, objs)
        jobs.append(CheckFileJob(slot, base_key("kZ4t", choice), fname, path, "theta"))

        # in-process CLI runs covering exit codes 0, 1, 2 and 3
        malformed = dict(golden_file("kZ2", field).raw)
        malformed["H"] = dict(malformed["H"], note="unknown key")
        write("malformed", field, malformed)
        write("H4_trivial_datum", field, golden_file("H4_trivial_datum", field).raw)
        theta_out = os.path.join(workdir, f"theta.{field}.json")
        keys = {j.slot: j.key for j in jobs}
        jobs += [
            CliJob(f"verify/cli_check_pass/{fname}", keys[f"verify/kZ3t/{fname}"], fname,
                   ["check", paths["kZ3t"], "H"]),
            CliJob(f"verify/cli_check_fail/{fname}", keys[f"verify/corrupt_antipode/{fname}"],
                   fname, ["check", paths["corrupt_antipode"], "H"]),
            CliJob(f"verify/cli_parse_error/{fname}", "kZ2", fname,
                   ["check", paths["malformed"], "H"]),
            CliJob(f"verify/cli_infeasible/{fname}", "H4", fname,
                   ["find-integral", paths["H4_trivial_datum"], "D"]),
            CliJob(f"verify/cli_find_integral/{fname}", keys[f"verify/integral_kZ4t/{fname}"],
                   fname, ["find-integral", paths["integral_kZ4t"], "D", "--out", theta_out],
                   out_path=theta_out),
        ]
    return jobs


# ---------------------------------------------------------------------------
# construct

class CallJob(Job):
    """A construction called with inputs built in setup."""

    def __init__(self, slot, key, fname, layer, func, *args):
        super().__init__(slot, key, fname)
        self.layer, self.func, self.args = layer, func, args

    def run(self, api):
        return getattr(getattr(api, self.layer), self.func)(*self.args)

    def answer(self, result) -> Answer:
        return Answer("built", serialized(result=result))


class OppositeTensorJob(CallJob):
    """``opposite_tensor``: the winning antipode is part of the answer."""

    def __init__(self, slot, key, fname, h):
        super().__init__(slot, key, fname, "core", "opposite_tensor", h)

    def run(self, api):
        result = super().run(api)
        if api.tracer is not None:
            api.tracer.count("core.opposite_tensor_attempts",
                             1 + OPPOSITE_TENSOR_ANTIPODES.index(result.antipode_choice))
        return result

    def answer(self, result) -> Answer:
        answer = super().answer(result)
        answer.text += f"antipode_choice={result.antipode_choice}\n"
        return answer


class InduceJob(Job):
    """Induce a seeded module and check both triangle identities."""

    seeded_output = True

    def __init__(self, slot, key, fname, datum, module):
        super().__init__(slot, key, fname)
        self.datum, self.module = datum, module

    def run(self, api):
        induced = api.doi.induce(self.module, self.datum)
        return induced, api.doi.check_triangle_identities(self.datum, induced, self.module)

    def answer(self, result) -> Answer:
        induced, report = result
        return Answer("pass" if report.passed else "fail",
                      serialized(induced=induced) + report.format(verbose=True),
                      report.failing_axioms())


class RetractionJob(Job):
    """Retraction on the canonical module A (x) C, and the integral read back."""

    def __init__(self, slot, key, fname, datum, theta, canonical):
        super().__init__(slot, key, fname)
        self.datum, self.theta, self.canonical = datum, theta, canonical

    def run(self, api):
        nu = api.maschke.build_retraction(self.theta, self.canonical, self.datum)
        return nu, api.maschke.extract_integral(nu, self.datum)

    def answer(self, result) -> Answer:
        nu, back = result
        return Answer("round_trip", serialized(nu=nu, theta=back))

    def check(self, api, result) -> list:
        _, back = result
        if serialized(theta=back) != serialized(theta=self.theta):
            return ["integral read back from the retraction differs from the solved one"]
        return []


class SplitJob(Job):
    """Split the projection of a seeded direct sum M = N + K onto N."""

    seeded_output = True

    def __init__(self, slot, key, fname, f, g, m, n, theta, datum):
        super().__init__(slot, key, fname)
        self.f, self.g, self.m, self.n = f, g, m, n
        self.theta, self.datum = theta, datum

    def run(self, api):
        return api.maschke.split_epimorphism(self.f, self.g, self.m, self.n,
                                             self.theta, self.datum)

    def answer(self, result) -> Answer:
        return Answer("split", serialized(section=result))

    def check(self, api, result) -> list:
        return section_problems(self.f, result)


#: yd_datum inputs; yd_datum(H4 twisted) (1-5 s) is timed in the set-up of
#: the solve workload instead
YD_CONSTRUCT = ("kZ3t", "kZ4t")
#: (trivial-datum base, dim N, dim K) for the split jobs
SPLIT_DATA = (("kZ3t", 2, 2), ("kZ4t", 2, 1))
#: (datum kind, base, module dimension) for the induce jobs; relative data
#: use modules over classical k[Z_n], trivial data modules over k
INDUCE_DATA = (("relative", "kZ2", 3), ("relative", "kZ3", 3),
               ("relative", "kZ4", 2), ("trivial", "kZ4t", 3))
RETRACTION_DATA = (("trivial", "kZ4t"), ("relative", "kZ2"), ("relative", "kZ3t"))


def construct_setup(api, seeded: Seeded, workdir: str) -> list:
    jobs = []
    for fname, field in FIELDS.items():
        def pick(slot, base):
            choice = seeded.choose(slot, base_domain(base, fname))
            return choice, base_key(base, choice)

        for base in ("kZ6t", "kZ8t", "H4t"):
            slot = f"construct/yau_twist/{base}/{fname}"
            choice, key = pick(slot, base)
            jobs.append(CallJob(slot, key, fname, "core", "yau_twist",
                                *automorphism(base, choice, field)))

        if fname == "Q":  # the ROADMAP baseline; over GF(7) it is left out
            slot = f"construct/opposite_tensor/H4t/{fname}"
            choice, key = pick(slot, "H4t")
            jobs.append(OppositeTensorJob(slot, key, fname,
                                          build_hopf(api, "H4t", choice, field)))

        for base in YD_CONSTRUCT:
            slot = f"construct/yd_datum/{base}/{fname}"
            choice, key = pick(slot, base)
            jobs.append(CallJob(slot, key, fname, "applications", "yd_datum",
                                build_hopf(api, base, choice, field)))

        for base in ("kZ4t", "H4t"):
            slot = f"construct/relative_datum/{base}/{fname}"
            choice, key = pick(slot, base)
            h = build_hopf(api, base, choice, field)
            jobs.append(CallJob(slot, key, fname, "applications", "relative_datum",
                                h, api.applications.regular_comodule_algebra(h)))
        for base in ("kZ8t", "H4t"):
            slot = f"construct/trivial_datum/{base}/{fname}"
            choice, key = pick(slot, base)
            jobs.append(CallJob(slot, key, fname, "applications", "trivial_datum",
                                build_hopf(api, base, choice, field)))

        for kind, base, dim in INDUCE_DATA:
            slot = f"construct/induce/{kind}_{base}/{fname}"
            choice, key = pick(slot, base)
            h = build_hopf(api, base, choice, field)
            rng = seeded.rng(slot)
            if kind == "relative":
                module = module_over_group_algebra(h, dim, rng)
            else:
                module = module_over_scalars(field, dim, rng)
            jobs.append(InduceJob(slot, key, fname, _datum(api, kind, h), module))

        for kind, base in RETRACTION_DATA:
            slot = f"construct/retraction/{kind}_{base}/{fname}"
            choice, key = pick(slot, base)
            d = _datum(api, kind, build_hopf(api, base, choice, field))
            theta, _ = _solve(api, d)
            jobs.append(RetractionJob(slot, key, fname, d, theta,
                                      api.maschke.canonical_module(d)))

        for base, dim_n, dim_k in SPLIT_DATA:
            slot = f"construct/split/{base}/{fname}"
            choice, key = pick(slot, base)
            h = build_hopf(api, base, choice, field)
            d = _datum(api, "trivial", h)
            theta, _ = _solve(api, d)
            rng = seeded.rng(slot)
            n = api.doi.induce(module_over_scalars(field, dim_n, rng), d)
            k = api.doi.induce(module_over_scalars(field, dim_k, rng), d)
            m = api.doi.direct_sum_doi(n, k)
            f = projection_matrix(field, m.dim, 0, n.dim)
            g = inclusion_matrix(field, m.dim, 0, n.dim)
            jobs.append(SplitJob(slot, key, fname, f, g, m, n, theta, d))
    return jobs


WORKLOADS = {"solve": solve_setup, "verify": verify_setup, "construct": construct_setup}


def build_jobs(name: str, api, seeded: Seeded, workdir: str) -> list:
    """The workload's jobs, in the seed's order."""
    jobs = WORKLOADS[name](api, seeded, workdir)
    slots = [j.slot for j in jobs]
    if len(set(slots)) != len(slots):
        raise RuntimeError(f"workload {name} has repeated job slots")
    return seeded.shuffled(f"{name}:order", jobs)
