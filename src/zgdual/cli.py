"""Command-line front end with machine-readable verification reports.

Subcommands:

  check FILE         validate + algebraic-5-complex membership + dual-form
                     recognition (recognition is informational)
  homology FILE      homology table or a single degree, either coefficients
  dualform FILE -o   run the stage-6 pipeline; --assemble searches for the
                     final chain isomorphism and conjugates when found
  normalize FILE MAPFILE   normalize a duality equivalence to +-1 ends
  asd FILE           anti-self-duality verdict for a dual-form complex
  obstruction FILE   parity obstruction report for a dual-form complex
  lens --n N         build (and verify) the lens instance; --asd adds the
                     anti-self-dual representative for n = 4k+1

Exit codes: 0 the tool ran and every gating check passed (query verdicts
like "obstructed" or "not anti-self-dual" are outcomes, not failures);
1 a verification failed or the inputs are mutually inconsistent;
2 usage errors, malformed files, or unmet preconditions.  Handlers only
fill the report; main alone maps it to the exit code: 2 on a UsageError,
else 1 when any verdict has "pass": false, else 0.  Any other exception
from a handler becomes the failing verdict "internal_error", so the
report is still printed and the exit code is 1, never a traceback.

One loader reads every input file, complex or chain map: an unreadable
file or invalid JSON (not UTF-8, nested too deeply, an integer too long)
fails alike in both, and a wrong structure reads "malformed {kind}".

normalize reports "psi_is_chain_map" and "central_square_identity" as
passing whenever normalize_duality returns: they hold by the proof in its
docstring (psi differs from the checked phi by the checked homotopy), so
they are not multiplied out again.

Reports are deterministic for identical inputs: timings are segregated
under a "timings" key and never enter the verdict body.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from zgdual import complexes, dual_form, lens, serialize

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _verdict(name: str, ok: bool, info=None, witness=None) -> dict:
    out = {"name": name, "pass": bool(ok)}
    if info is not None:
        out["info"] = info
    if witness is not None:
        out["witness"] = witness
    return out


def _load(path: str, what: str, parse):
    """Read the JSON file at ``path`` with ``parse``; ``what`` names its kind in
    a structural error.  Every input file is read here, so hostile ones fail alike."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON (line {exc.lineno}, column {exc.colno})")
    except (RecursionError, ValueError) as exc:  # nested too deeply, not UTF-8, or an integer too long
        raise UsageError(f"{path} is not valid JSON: {exc}")
    try:
        return parse(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path}: malformed {what}: {exc}")


def _write_output(args, report, C) -> None:
    """Write C to the -o path, if one was given, and name it in the report."""
    if not args.output:
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(serialize.canonical_dumps(serialize.complex_to_json(C)))
    except OSError as exc:
        raise UsageError(f"cannot write {args.output}: {exc}")
    report["output"] = args.output


# -- subcommand implementations -----------------------------------------


def _cmd_check(args, report):
    C = _load(args.file, "complex file", serialize.complex_from_json)
    verdicts = report["verdicts"]
    validation = complexes.validate_complex(C)
    verdicts.append(
        _verdict(
            "compositions_zero",
            validation.ok,
            witness=list(validation.failures) or None,
        )
    )
    if C.top_degree == 5 and validation.ok:
        rep = complexes.five_complex_report(C)
        verdicts.append(_verdict("exact_at_degree_1", rep.exact_at_1))
        verdicts.append(_verdict("exact_at_degree_4", rep.exact_at_4))
        verdicts.append(
            _verdict("bottom_end_is_Z", rep.bottom.ok, info=str(rep.bottom.group_info))
        )
        verdicts.append(
            _verdict("top_end_is_Z", rep.top.ok, info=str(rep.top.group_info))
        )
        verdicts.append(_verdict("euler_characteristic_zero", rep.euler == 0, info=str(rep.euler)))
    view = dual_form.recognize_dual_form(C)
    if view is not None:
        report["dual_form"] = {"recognized": True, "j_rank": view.j_rank, "form_rank": view.form_rank}
    else:
        report["dual_form"] = {
            "recognized": False,
            "reasons": list(dual_form.dual_form_mismatch_reasons(C)),
        }


def _cmd_homology(args, report):
    C = _load(args.file, "complex file", serialize.complex_from_json)
    degrees = [args.degree] if args.degree is not None else list(range(C.top_degree + 1))
    if any(not 0 <= d <= C.top_degree for d in degrees):
        raise UsageError(f"degree out of range 0..{C.top_degree}")
    table = {}
    for d in degrees:
        try:
            info = complexes.homology(C, d, args.coefficients)
        except ValueError as exc:
            # the first degree, in ascending order, whose maps do not compose to 0
            report["verdicts"].append(
                _verdict("homology_computed", False, info=args.coefficients, witness=[str(exc)])
            )
            return
        table[str(d)] = str(info)
    report["homology"] = {"coefficients": args.coefficients, "groups": table}
    report["verdicts"].append(_verdict("homology_computed", True, info=args.coefficients))


def _cmd_dualform(args, report):
    if args.budget < 1:
        raise UsageError(f"--budget must be at least 1, got {args.budget}")
    C = _load(args.file, "complex file", serialize.complex_from_json)
    verdicts = report["verdicts"]
    try:
        pipe = dual_form.to_dual_form_stage6(C)
    except ValueError as exc:
        raise UsageError(str(exc))
    out = pipe.complex
    report["moves"] = [{"direction": "expand", "position": p, "rank": r} for p, r in pipe.moves]
    verdicts.append(_verdict("pipeline_output_valid", complexes.validate_complex(out).ok))
    verdicts.append(
        _verdict("euler_preserved", complexes.euler_characteristic(out) == complexes.euler_characteristic(C))
    )
    hom_ok = all(
        complexes.homology(out, d, coeff) == complexes.homology(C, d, coeff)
        for d in range(6)
        for coeff in complexes.COEFFS
    )
    verdicts.append(_verdict("homology_preserved", hom_ok))
    result = out
    if args.assemble:
        tail = dual_form.tail_segment(out)
        head = dual_form.dual_head_segment(out)
        iso = dual_form.solve_chain_isomorphism(tail, head, budget=args.budget)
        if iso is None:
            report["assembled"] = False
            verdicts.append(
                _verdict(
                    "assembly_attempted",
                    True,
                    info="no chain isomorphism found within budget (absence is not a proof)",
                )
            )
        else:
            assembled = dual_form.assemble_dual_form(out, iso)
            report["assembled"] = True
            verdicts.append(_verdict("assembled_recognized", True))
            hom_ok2 = all(
                complexes.homology(assembled.complex, d, "integral") == complexes.homology(C, d, "integral")
                for d in range(6)
            )
            verdicts.append(_verdict("assembly_homology_preserved", hom_ok2))
            result = assembled.complex
    _write_output(args, report, result)


def _cmd_normalize(args, report):
    C = _load(args.file, "complex file", serialize.complex_from_json)
    view = _require_view(C)
    phi = _load(args.mapfile, "chain map file", lambda data: serialize.duality_map_from_json(C, data))
    verdicts = report["verdicts"]
    try:
        nd = dual_form.normalize_duality(view, phi)
    except ValueError as exc:
        verdicts.append(_verdict("normalization", False, info=str(exc)))
        return
    verdicts.append(_verdict("psi_is_chain_map", True))
    verdicts.append(_verdict("homotopy_verified", True))
    verdicts.append(_verdict("central_square_identity", True))
    report["normalization"] = {
        "negated_input": nd.negated,
        "theta1": serialize.matrix_to_json(nd.theta1),
        "theta2": serialize.matrix_to_json(nd.theta2),
        "theta1_aug_residue": nd.theta1_aug_residue,
        "theta2_aug_residue": nd.theta2_aug_residue,
    }


def _require_view(C):
    view = dual_form.recognize_dual_form(C)
    if view is None:
        raise UsageError(
            "input complex is not in dual form: " + "; ".join(dual_form.dual_form_mismatch_reasons(C))
        )
    return view


def _cmd_asd(args, report):
    C = _load(args.file, "complex file", serialize.complex_from_json)
    view = _require_view(C)
    flag = dual_form.is_anti_self_dual(view)
    report["verdicts"].append(
        _verdict("asd_checked", True, info="anti-self-dual" if flag else "not anti-self-dual")
    )
    report["anti_self_dual"] = flag


def _cmd_obstruction(args, report):
    C = _load(args.file, "complex file", serialize.complex_from_json)
    view = _require_view(C)
    rep = dual_form.obstruction_check(view)
    report["obstruction"] = {
        "group_order_even": rep.group_order_even,
        "h3_free_rank": rep.h3_free_rank,
        "obstructed": rep.obstructed,
        "j_rank": rep.j_rank,
        "j_rank_congruence": rep.j_rank_congruence,
        "form_rank": rep.form_rank,
    }
    report["verdicts"].append(
        _verdict(
            "kernel_rank_cross_check",
            rep.cross_check_ok,
            info=f"h3 free rank {rep.h3_free_rank} vs j_rank - form_rank {rep.j_rank - rep.form_rank}",
        )
    )
    report["verdicts"].append(
        _verdict("obstruction_checked", True, info="obstructed" if rep.obstructed else "not obstructed")
    )


def _cmd_lens(args, report):
    n = args.n
    if n < 2:
        raise UsageError("lens spaces need n >= 2")
    if n > serialize.MAX_CYCLIC_ORDER:
        raise UsageError(f"lens spaces need n <= {serialize.MAX_CYCLIC_ORDER}, the cyclic order limit")
    status = lens.asd_status(n)
    if args.asd and status != "anti-self-dual":
        raise UsageError(f"--asd needs n = 4k+1 with k >= 1; n={n}")
    verdicts = report["verdicts"]
    phi = lens.lens_duality_map(n)
    A = phi.target  # the report and the map share one build of L(n) and its group
    verdicts.append(_verdict("complex_valid", complexes.validate_complex(A).ok))
    verdicts.append(_verdict("algebraic_5_complex", complexes.five_complex_report(A).is_member))
    view = dual_form.recognize_dual_form(A)
    verdicts.append(_verdict("dual_form_recognized", view is not None))
    phi_rep = complexes.is_chain_map(phi)
    verdicts.append(
        _verdict(
            "duality_map_verified",
            phi_rep.is_chain_map and phi_rep.end_scalars == (1, -1),
            info=f"end scalars {phi_rep.end_scalars}",
        )
    )
    report["asd_status"] = status
    out_complex = A
    if status == "anti-self-dual":
        asd = lens.lens_asd_transform(n)
        vprime = dual_form.recognize_dual_form(asd.complex)
        verdicts.append(_verdict("asd_complex_recognized", vprime is not None))
        verdicts.append(_verdict("asd_check", dual_form.is_anti_self_dual(vprime)))
        verdicts.append(_verdict("asd_homotopy_verified", True, info="diagonal sign 1"))
        report["asd_data"] = {
            "k": (n - 1) // 4,
            "alpha": serialize.poly_string(asd.alpha),
            "beta": serialize.poly_string(asd.beta),
            "beta_inv": serialize.poly_string(asd.beta_inv),
            "x": serialize.poly_string(asd.x),
        }
        if args.asd:
            out_complex = asd.complex
    _write_output(args, report, out_complex)


# -- driver ---------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state in it, so every call of main shares it."""
    parser = argparse.ArgumentParser(
        prog="zgdual",
        description="Exact chain-level duality over integral group rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a complex file and test 5-complex membership")
    p.add_argument("file")

    p = sub.add_parser("homology", help="homology of a complex file")
    p.add_argument("file")
    p.add_argument("--coefficients", choices=complexes.COEFFS, default="integral")
    p.add_argument("--degree", type=int, default=None)

    p = sub.add_parser("dualform", help="run the stage-6 dual-form pipeline")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--assemble", action="store_true", help="search for the final chain isomorphism")
    p.add_argument(
        "--budget",
        type=int,
        default=64,
        help="iso search trials: 1 = identity only, 2 adds the affine point id + x, "
        "3 or more adds the Babai point nearest the identity",
    )

    p = sub.add_parser("normalize", help="normalize a duality equivalence to +-1 ends")
    p.add_argument("file")
    p.add_argument("mapfile")

    p = sub.add_parser("asd", help="anti-self-duality verdict for a dual-form complex")
    p.add_argument("file")

    p = sub.add_parser("obstruction", help="parity obstruction report for a dual-form complex")
    p.add_argument("file")

    p = sub.add_parser("lens", help="build and verify a lens instance L(n;1,1)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--asd", action="store_true", help="construct the anti-self-dual representative")
    p.add_argument("-o", "--output", default=None)

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true", help="emit the report as JSON")
    return parser


_HANDLERS = {
    "check": _cmd_check,
    "homology": _cmd_homology,
    "dualform": _cmd_dualform,
    "normalize": _cmd_normalize,
    "asd": _cmd_asd,
    "obstruction": _cmd_obstruction,
    "lens": _cmd_lens,
}


def _print_human(report, stream):
    print(f"== zgdual {report['command']}", file=stream)
    for key, value in report.get("inputs", {}).items():
        print(f"   {key}: {value}", file=stream)
    for v in report["verdicts"]:
        mark = "PASS" if v["pass"] else "FAIL"
        info = f"  ({v['info']})" if "info" in v else ""
        print(f"{mark} {v['name']}{info}", file=stream)
        if not v["pass"] and v.get("witness"):
            print(f"     witness: {v['witness']}", file=stream)
    for key in ("homology", "dual_form", "obstruction", "asd_status", "asd_data", "assembled", "moves", "normalization", "anti_self_dual", "output"):
        if key in report:
            print(f"{key}: {json.dumps(report[key], sort_keys=True)}", file=stream)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "inputs": {
            k: v for k, v in sorted(vars(args).items()) if k not in ("command", "json") and v is not None
        },
        "verdicts": [],
    }
    started = time.monotonic()
    try:
        _HANDLERS[args.command](args, report)
    except UsageError as exc:
        report["error"] = str(exc)
    except Exception as exc:
        report["verdicts"].append(_verdict("internal_error", False, info=f"{type(exc).__name__}: {exc}"))
    if "error" in report:
        code = EXIT_USAGE
    else:
        code = EXIT_CHECK_FAILED if any(not v["pass"] for v in report["verdicts"]) else EXIT_OK
    report["timings"] = {"total_ms": round((time.monotonic() - started) * 1000, 3)}
    if args.json:
        print(serialize.canonical_dumps(report), end="")
    elif code == EXIT_USAGE:
        print(f"error: {report['error']}", file=sys.stderr)
    else:
        _print_human(report, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
