"""The three benchmark workloads: their items and the verdicts expected of them.

An item is one closed-loop request: ``run`` performs it (this is what is
timed) and returns a verdict body of plain values; ``check`` compares the
body with values derived from closed forms or invariants, never from the
code under test, and returns a list of problems (empty when correct).

Items rebuild their inputs inside ``run`` (library workloads) or read
them from files (CLI workload), so no object is shared between items or
passes.  Every call into zgdual goes through a module attribute, which is
what lets the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import inputs
from zgdual import cli, complexes, dual_form, lens
from zgdual.complexes import ChainComplex
from zgdual.group_core import GroupRingElement
from zgdual.gr_linalg import GRMatrix


@dataclass
class Item:
    label: str
    run: Callable[[], dict]
    check: Callable[[dict], list]


def _mismatch(what, got, want):
    return [] if got == want else [f"{what}: got {got!r}, expected {want!r}"]


# -- lens_sweep ------------------------------------------------------------

# Both parities, every residue mod 4, spread over 2..101.  With 25 items
# the median and the 90th percentile fall inside one item's block of
# samples; n is chosen so that those items, L(17) and L(62), are far in
# time from their neighbours.
LENS_NS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 17, 22, 24, 26, 29, 33, 37, 41, 44, 52, 62, 75, 101)


def _has_asd(n):
    return n % 4 == 1 and n >= 5


def lens_item_body(n):
    """The library path of scripts/lens_family_report.py, plus normalization."""
    A = lens.lens_complex(n)
    member = complexes.five_complex_report(A).is_member
    view = dual_form.recognize_dual_form(A)
    obs = dual_form.obstruction_check(view)
    integral = [str(complexes.homology(A, d, "integral")) for d in range(6)]
    trivial = [str(complexes.homology(A, d, "trivial")) for d in range(6)]
    nd = dual_form.normalize_duality(view, lens.lens_duality_map(n))
    asd = None
    if _has_asd(n):
        t = lens.lens_asd_transform(n)
        asd = dual_form.is_anti_self_dual(dual_form.recognize_dual_form(t.complex))
    return {
        "member": member,
        "j_rank": view.j_rank,
        "obstructed": obs.obstructed,
        "cross_check": obs.cross_check_ok,
        "integral": integral,
        "trivial": trivial,
        "residues": [nd.theta1_aug_residue, nd.theta2_aug_residue],
        "asd": asd,
    }


def _lens_check(n):
    integral, trivial = inputs.lens_homology(n)

    def check(body):
        return (
            _mismatch("5-complex membership", body["member"], True)
            + _mismatch("j_rank mod n", body["j_rank"] % n, n - 1)
            + _mismatch("obstructed", body["obstructed"], n % 2 == 0)
            + _mismatch("kernel-rank cross-check", body["cross_check"], True)
            + _mismatch("integral homology", body["integral"], integral)
            + _mismatch("trivial homology", body["trivial"], trivial)
            + _mismatch("theta residues", body["residues"], [1, n - 1])
            + _mismatch("anti-self-dual", body["asd"], True if _has_asd(n) else None)
        )

    return check


def setup_lens_sweep(seed, workdir):
    # the seed has nothing to vary here: the inputs are the lens complexes
    for n in LENS_NS:
        if not complexes.validate_complex(lens.lens_complex(n)).ok:
            raise inputs.SetupError(f"L({n}) fails d.d == 0")
    return [Item(f"L({n})", lambda n=n: lens_item_body(n), _lens_check(n)) for n in LENS_NS]


# -- assembly_search ----------------------------------------------------------

# (kind, n): untwisted items take the identity at the first trial, twisted
# ones go through the lattice.  15 items: the 90th percentile is twisted L(5).
ASSEMBLY_ITEMS = tuple(("lens", n) for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13)) + tuple(
    ("twisted", n) for n in (3, 4, 5, 6)
)
ASSEMBLY_BUDGET = 64


def twisted_lens(n):
    """L(n) with d1 multiplied by t^-1 and d2 by t: not in dual form, same homology.

    The same unit twist as scripts/stage6_assembly_search.py.
    """
    A = lens.lens_complex(n)
    G = A.group
    u = GRMatrix.one_by_one(GroupRingElement.basis(G, 1))
    u_inv = GRMatrix.one_by_one(GroupRingElement.basis(G, n - 1))
    diffs = list(A.differentials)
    diffs[0] = diffs[0] @ u_inv
    diffs[1] = u @ diffs[1]
    return ChainComplex(G, A.ranks, tuple(diffs), A.top_generator, A.bottom_generator)


def _assembly_input(kind, n):
    return lens.lens_complex(n) if kind == "lens" else twisted_lens(n)


def assembly_item_body(kind, n):
    """The library path of scripts/stage6_assembly_search.py for one instance."""
    C = _assembly_input(kind, n)
    pipe = dual_form.to_dual_form_stage6(C)
    tail = dual_form.tail_segment(pipe.complex)
    head = dual_form.dual_head_segment(pipe.complex)
    iso = dual_form.solve_chain_isomorphism(tail, head, budget=ASSEMBLY_BUDGET)
    body = {"ranks": list(pipe.complex.ranks), "found": iso is not None}
    if iso is None:
        return body
    asm = dual_form.assemble_dual_form(pipe.complex, iso)
    body["assembled"] = [str(complexes.homology(asm.complex, d, "integral")) for d in range(6)]
    body["input"] = [str(complexes.homology(C, d, "integral")) for d in range(6)]
    body["j_rank"] = asm.view.j_rank
    body["identity_iso"] = all(h == GRMatrix.identity(C.group, h.rows) for h in iso.h)
    return body


def _assembly_check(n):
    integral, _ = inputs.lens_homology(n)
    ranks = list(inputs.stage6_ranks((1,) * 6))

    def check(body):
        problems = _mismatch("stage-6 ranks", body["ranks"], ranks)
        problems += _mismatch(f"iso found within budget {ASSEMBLY_BUDGET}", body["found"], True)
        if not body["found"]:
            return problems
        return (
            problems
            + _mismatch("assembled homology", body["assembled"], integral)
            + _mismatch("input homology", body["input"], integral)
            + _mismatch("assembled j_rank mod n", body["j_rank"] % n, n - 1)
        )

    return check


def setup_assembly_search(seed, workdir):
    # the seed has nothing to vary here: the twist is the script's
    for kind, n in ASSEMBLY_ITEMS:
        if not complexes.five_complex_report(_assembly_input(kind, n)).is_member:
            raise inputs.SetupError(f"{kind} L({n}) is not an algebraic 5-complex")
    return [
        Item(f"{'twisted ' if kind == 'twisted' else ''}L({n})",
             lambda kind=kind, n=n: assembly_item_body(kind, n), _assembly_check(n))
        for kind, n in ASSEMBLY_ITEMS
    ]


# -- nonabelian_cli -------------------------------------------------------------

# dualform recomputes 24 homology groups, so it runs on the smallest groups only
DUALFORM_GROUPS = ("S3", "D4", "Q8", "D5")


def cli_body(argv):
    """Run ``zgdual ARGV --json`` in process; the report without its timings."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv) + ["--json"])
    report = json.loads(buf.getvalue())
    report.pop("timings", None)
    return {"exit": code, "report": report}


def _cli_check(command, expected, order, ranks=None, outpath=None):
    def check(body):
        problems = _mismatch("exit code", body["exit"], 0)
        rep = body["report"]
        failing = [v["name"] for v in rep.get("verdicts", ()) if not v["pass"]]
        problems += _mismatch("failing verdicts", failing, [])
        if problems:
            return problems
        if command == "check":
            df = rep["dual_form"]
            problems += _mismatch("dual form recognized", df.get("recognized"), True)
            problems += _mismatch("j_rank", df.get("j_rank"), expected["j_rank"])
            problems += _mismatch("j_rank mod |G|", df.get("j_rank", 0) % order, order - 1)
            problems += _mismatch("form_rank", df.get("form_rank"), expected["form_rank"])
        elif command in ("integral", "trivial"):
            want = {str(d): g for d, g in enumerate(expected[command])}
            problems += _mismatch(f"{command} homology", rep["homology"]["groups"], want)
        elif command == "obstruction":
            ob = rep["obstruction"]
            problems += _mismatch("obstructed", ob["obstructed"], expected["obstructed"])
            problems += _mismatch("h3 free rank", ob["h3_free_rank"], expected["h3"])
            problems += _mismatch("j_rank", ob["j_rank"], expected["j_rank"])
            problems += _mismatch("j_rank mod |G|", ob["j_rank_congruence"], order - 1)
        elif command == "asd":
            problems += _mismatch("anti-self-dual", rep["anti_self_dual"], expected["asd"])
        elif command == "normalize":
            nz = rep["normalization"]
            problems += _mismatch("input negated", nz["negated_input"], False)
            if "residues" in expected:
                got = [nz["theta1_aug_residue"], nz["theta2_aug_residue"]]
                problems += _mismatch("theta residues", got, list(expected["residues"]))
        elif command == "dualform":
            problems += _mismatch("moves", len(rep["moves"]), 5)
            with open(outpath, encoding="utf-8") as fh:
                written = json.load(fh)
            problems += _mismatch("written stage-6 ranks", written["ranks"], list(reversed(ranks)))
        return problems

    return check


def setup_nonabelian_cli(seed, workdir):
    files = inputs.make_cli_inputs(workdir, seed)
    rel = os.path.relpath
    items = []

    def add(name, command, argv, expected, facts, **kw):
        items.append(Item(f"{command} {name}", lambda: cli_body(argv),
                          _cli_check(command, expected, facts["order"], **kw)))

    def queries(name, commands):
        cpath, mpath, facts = files[name]
        if facts["kind"] == "nonabelian":
            expected = inputs.expected_nonabelian(facts)
        else:
            expected = inputs.expected_lens_file(facts)
        c = rel(cpath)
        argvs = {
            "check": ["check", c],
            "integral": ["homology", c, "--coefficients", "integral"],
            "trivial": ["homology", c, "--coefficients", "trivial"],
            "obstruction": ["obstruction", c],
            "asd": ["asd", c],
            "normalize": ["normalize", c, rel(mpath)],
        }
        for command in commands:
            add(name, command, argvs[command], expected, facts)
        return c, facts

    full = ("check", "integral", "trivial", "obstruction", "asd", "normalize")
    for group in inputs.GROUPS:
        c, facts = queries(f"{group}-relabelled", full)
        # the canonical labelling must give the same invariants
        queries(f"{group}-canonical", ("integral", "trivial", "obstruction", "asd"))
        if group in DUALFORM_GROUPS:
            out = rel(f"{workdir}/{group}-stage6.json")
            c_ranks = (1, facts["s"], facts["k"], facts["k"], facts["s"], 1)
            add(f"{group}-relabelled", "dualform", ["dualform", c, "-o", out], None, facts,
                ranks=inputs.stage6_ranks(c_ranks), outpath=out)
    queries("L67-relabelled", full)
    # trivial-coefficient lens homology is already covered by L67; 75 items
    # put the 90th percentile on dualform S3, clear of its neighbours
    queries("L13-asd-poly", ("check", "integral", "obstruction", "asd", "normalize"))
    return items


WORKLOADS = {
    "lens_sweep": setup_lens_sweep,
    "assembly_search": setup_assembly_search,
    "nonabelian_cli": setup_nonabelian_cli,
}
