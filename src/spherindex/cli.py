"""Command line interface.

Reads datum and fan files in a small JSON schema, runs the engines, and
prints deterministic reports as text or JSON.  Exit codes: 0 success,
1 semantic validation failure (a report is still emitted), 2 parse or
schema error, 3 violation of a structural identity that must hold for any
consistent input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .datum import SphericalDatumK, is_valid, validate
from .degeneration import build_degeneration, degeneration_fiber_data
from .errors import DatumConstructionError, SpherindexError, TheoremViolation
from .fans import (
    ORBIT_CAP_ENV,
    Fan,
    cone_membership,
    fan_validate,
    is_complete_for,
    is_smooth,
    standard_fan,
    strata,
    weyl_saturate,
)
from .index import TitsIndex, res_A, restricted_root_system
from .linalg import Lattice, solve_left
from .restrict import (
    aut_roots,
    coweight_identity_check,
    localize,
    phi_k_res,
    predicates,
    restrict_datum,
    valuation_cone,
)
from .rootsys import AmbientRootDatum, diagram_involution

SCHEMA_VERSION = "1"
HARD_RANK_CEILING = 100  # total ambient rank; a Cartan matrix is rank x rank


class ParseError(Exception):
    pass


# ---------------------------------------------------------------------------
# input parsing


def _load(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    return doc


def _require(doc: dict, key: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"missing field {key!r}")
    return doc[key]


def _flip_generator(amb: AmbientRootDatum):
    """Canonical diagram involution, component by component."""
    perm = []
    for comp in amb.components:
        perm += [len(perm) + t for t in diagram_involution(comp.family, comp.rank)]
    return [[int(p == j) for j in range(amb.dim)] for p in perm]


def parse_index(doc: dict) -> TitsIndex:
    if str(doc.get("schema_version")) != SCHEMA_VERSION:
        raise ParseError("unsupported schema_version")
    ambient = _require(doc, "ambient")
    spec = []
    for k, c in enumerate(_list(_require(ambient, "components"), "components")):
        fam, rk = str(_require(c, "family")), _int(_require(c, "rank"))
        spec.append((fam, rk, str(c.get("label", "")) or f"c{k + 1}"))
    if (total := sum(rk for _, rk, _ in spec)) > HARD_RANK_CEILING:
        raise ParseError(f"total ambient rank {total} exceeds HARD_RANK_CEILING {HARD_RANK_CEILING}")
    amb = AmbientRootDatum.of(spec)
    compact = []
    for name in _list(doc.get("compact_simple", []), "compact_simple"):
        try:
            compact.append(amb.index_of_root(str(name)))
        except KeyError:
            raise ParseError(f"unknown simple root {name!r}") from None
    gens = []
    for g in _list(doc.get("star_generators", []), "star_generators"):
        if g == "flip":
            gens.append(_flip_generator(amb))
        elif isinstance(g, list):
            gens.append(_rat_matrix(g))
        else:
            raise ParseError(f"bad star generator {g!r}")
    try:
        return TitsIndex.of(amb, compact, gens)
    except (SpherindexError, ValueError) as e:
        raise ParseError(str(e)) from None


def _int(x) -> int:
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ParseError(f"bad integer {x!r}")
    try:
        return int(x)
    except ValueError:
        raise ParseError(f"bad integer {x!r}") from None


def _rat(x) -> int | Fraction:
    if isinstance(x, bool):
        raise ParseError(f"bad rational {x!r}")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        try:
            q = Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational {x!r}") from None
        return q.numerator if q.denominator == 1 else q
    raise ParseError(f"bad rational {x!r}")


def _list(x, what: str) -> list:
    if not isinstance(x, list):
        raise ParseError(f"expected a list for {what}")
    return x


def _rat_matrix(rows) -> list:
    return [[_rat(x) for x in _list(row, "a matrix row")] for row in _list(rows, "a matrix")]


def _check_width(rows, width: int, what: str):
    for row in rows:
        if len(row) != width:
            raise ParseError(f"{what} has length {len(row)}, expected {width}")


def parse_datum(doc: dict) -> SphericalDatumK:
    if str(doc.get("schema_version")) != SCHEMA_VERSION:
        raise ParseError("unsupported schema_version")
    mode = _require(doc, "mode")
    try:
        if mode == "ambient":
            ix = parse_index(doc)
            spherical = _require(doc, "spherical")
            sigma = _rat_matrix(_require(spherical, "sigma"))
            xi = spherical.get("xi_basis")
            if xi is not None:
                xi = _rat_matrix(xi)
                _check_width(xi, ix.ambient.dim, "xi_basis row")
            sp = []
            for name in _list(spherical.get("sp", []), "sp"):
                sp.append(ix.ambient.index_of_root(str(name)))
            return SphericalDatumK.ambient(ix, sigma, xi_rows=xi, sp=sp)
        if mode == "abstract":
            ab = _require(doc, "abstract")
            return SphericalDatumK.abstract(
                _int(_require(ab, "rank")),
                _rat_matrix(_require(ab, "pairing")),
                [_rat_matrix(g) for g in _list(ab.get("star", []), "star")],
                _rat_matrix(ab.get("sigma", [])),
                sigma0=[_int(i) for i in _list(ab.get("sigma0", []), "sigma0")],
            )
    except (DatumConstructionError, KeyError) as e:
        raise ParseError(str(e)) from None
    raise ParseError(f"unknown mode {mode!r}")


def parse_fan(doc: dict) -> Fan:
    cones = _require(doc, "cones")
    try:
        return Fan.from_maximal(
            [[[_int(x) for x in g] for g in cone] for cone in cones]
        )
    except (SpherindexError, ValueError, TypeError) as e:
        raise ParseError(f"bad fan: {e}") from None


# ---------------------------------------------------------------------------
# report serialization


def ser(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else str(x)
    if isinstance(x, (list, tuple)):
        return [ser(v) for v in x]
    if isinstance(x, dict):
        return {str(k): ser(v) for k, v in x.items()}
    return x


def _render_text(node, indent=0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(node, dict):
        for k in node:
            v = node[k]
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                lines.append(f"{pad}{k}:")
                lines += _render_text(v, indent + 1)
            else:
                lines.append(f"{pad}{k}: {_flat(v)}")
    elif isinstance(node, list):
        for v in node:
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                lines.append(f"{pad}-")
                lines += _render_text(v, indent + 1)
            else:
                lines.append(f"{pad}- {_flat(v)}")
    else:
        lines.append(f"{pad}{_flat(node)}")
    return lines


def _is_flat(v) -> bool:
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v) or (
            all(isinstance(x, list) for x in v)
            and all(not isinstance(y, (dict, list)) for x in v for y in x)
        )
    return False


def _flat(v) -> str:
    if isinstance(v, list):
        return "[" + ", ".join(_flat(x) for x in v) + "]"
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    return str(v)


def emit(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(ser(report), sort_keys=True, indent=2))
    else:
        print("\n".join(_render_text(ser(report))))


# ---------------------------------------------------------------------------
# commands


def _beta_coordinates(d: SphericalDatumK, rows):
    """Spherical roots against the restricted simple roots of the group."""
    if d.mode != "ambient":
        return None
    srs = d.index.simple_roots
    return [solve_left(srs.roots, res_A(d.index, row)) for row in rows]


def cmd_restrict_index(doc: dict) -> tuple[dict, int]:
    ix = parse_index(doc)
    violations = ix.violations()
    report = {
        "command": "restrict-index",
        "violations": list(violations),
    }
    if violations:
        return report, 1
    srs = ix.simple_roots
    phi = restricted_root_system(ix)
    names = ix.ambient.root_names()
    report.update(
        {
            "restricted_simple_roots": [list(r) for r in srs.roots],
            "fibers": [[names[i] for i in fib] for fib in srs.fibers],
            "type": srs.type_name,
            "restricted_roots": [
                {"root": list(r), "multiplicity": m} for r, m in phi.multiplicities
            ],
            "reduced": phi.reduced,
            "indivisible_type": phi.type_name,
            "indivisible_count": phi.indivisible_count,
        }
    )
    return report, 0


def _analysis(d: SphericalDatumK) -> tuple[dict, int]:
    items = validate(d)
    report = {
        "command": "analyze",
        "validation": [
            {
                "name": it.name,
                "passed": it.passed,
                "severity": it.severity,
                "detail": it.detail if not it.passed else "",
            }
            for it in items
        ],
        "valid": is_valid(items),
    }
    if not is_valid(items):
        return report, 1
    rd = restrict_datum(d)
    rr = phi_k_res(d, rd)
    zk = valuation_cone(rd)
    cw = coweight_identity_check(d, rd)
    split = rd.split
    report.update(
        {
            "sigma0": list(split.sigma0),
            "noncompact": list(split.noncompact),
            "rank": rd.rank,
            "sigma_k": [list(s) for s in rd.sigma_k],
            "sigma_k_pr": [list(s) for s in rd.sigma_k_pr],
            "n_sigma": list(rd.n_sigma),
            "fibers": [list(f) for f in rd.fibers],
            "wk_type": rd.wk_type_name,
            "wk_order": rd.wk_order,
            "phi_k": [list(r) for r in rd.phi_k],
            "phi_k_res": [
                {"root": list(r), "multiplicity": m} for r, m in rr.multiplicities
            ],
            "phi_k_res_reduced": rr.reduced,
            "valuation_cone": {
                "inequalities": [list(s) for s in zk.inequalities],
                "lineality": [list(s) for s in zk.lineality],
                "extremal_rays": [list(s) for s in zk.extremal_rays],
            },
            "coweight_identity": cw,
            "predicates": predicates(d, rd),
        }
    )
    beta = _beta_coordinates(d, d.sigma_input)
    if beta is not None:
        report["sigma_k_in_beta"] = [list(b) if b else [] for b in beta]
    return report, 0


def cmd_analyze(doc: dict) -> tuple[dict, int]:
    return _analysis(parse_datum(doc))


def _validated_rd(doc: dict):
    d = parse_datum(doc)
    items = validate(d)
    if not is_valid(items):
        report = {
            "validation": [
                {"name": it.name, "passed": it.passed, "detail": it.detail}
                for it in items
                if not it.passed
            ],
            "valid": False,
        }
        return d, None, report
    return d, restrict_datum(d), None


def _strata_report(sp) -> list[dict]:
    return [
        {
            "cone": [list(g) for g in node.cone.generators],
            "codim": node.codim,
            "rank": node.rank,
            "sigma": list(node.sigma_indices),
            "lattice_basis": [list(r) for r in node.lattice_basis],
            "horospherical": node.horospherical,
        }
        for node in sp.nodes
    ]


def cmd_standard_fan(doc: dict) -> tuple[dict, int]:
    d, rd, bad = _validated_rd(doc)
    if bad is not None:
        bad["command"] = "standard-fan"
        return bad, 1
    f = standard_fan(rd)
    sp = strata(f, rd)
    report = {
        "command": "standard-fan",
        "cones": [[list(g) for g in c.generators] for c in f.cones],
        "strata": _strata_report(sp),
        "smooth": all(is_smooth(f).values()),
    }
    return report, 0


def cmd_fan(doc: dict, fan_doc: dict, checks, want_strata: bool, saturate: bool) -> tuple[dict, int]:
    d, rd, bad = _validated_rd(doc)
    if bad is not None:
        bad["command"] = "fan"
        return bad, 1
    f = parse_fan(fan_doc)
    for c in f.cones:
        _check_width(c.generators, rd.rank, "fan generator")
    zk = valuation_cone(rd)
    issues = fan_validate(f, zk)
    report = {
        "command": "fan",
        "issues": [{"kind": i.kind, "detail": i.detail} for i in issues],
        "fan_valid": not issues,
    }
    code = 0
    if issues:
        code = 1
    if saturate and not issues:
        f = weyl_saturate(f, rd, cap=_orbit_cap())
        report["saturated_cones"] = [
            [list(g) for g in c.generators] for c in f.cones
        ]
    for check in checks:
        if check == "support":
            ok = all(
                cone_membership(g, zk) for c in f.cones for g in c.generators
            )
            report["support"] = ok
        elif check == "complete":
            if issues:
                report["complete"] = None
            else:
                report["complete"] = is_complete_for(f, zk, validated=True)
        elif check == "smooth":
            flags = is_smooth(f)
            report["smooth"] = all(flags.values())
            report["smooth_by_cone"] = [
                {"cone": [list(g) for g in c.generators], "smooth": flags[c]}
                for c in sorted(flags, key=lambda c: (c.dim, c.generators))
            ]
    if want_strata and not issues:
        report["strata"] = _strata_report(strata(f, rd))
    return report, code


def _orbit_cap() -> int | None:
    """The positive integer in SPHERINDEX_ORBIT_CAP, or None when it is unset."""
    env = os.environ.get(ORBIT_CAP_ENV)
    if not env:
        return None
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ParseError(f"{ORBIT_CAP_ENV} must be a positive integer, got {env!r}")
    return cap


def cmd_localize(doc: dict, roots: str) -> tuple[dict, int]:
    d, rd, bad = _validated_rd(doc)
    if bad is not None:
        bad["command"] = "localize"
        return bad, 1
    j = []
    if roots.strip():
        for part in roots.split(","):
            try:
                t = int(part.strip())
            except ValueError:
                raise ParseError(f"bad root index {part!r}") from None
            if not (1 <= t <= len(rd.sigma_k)):
                raise ParseError(f"root index {t} out of range")
            j.append(t - 1)
    loc = localize(rd, j)
    report = {
        "command": "localize",
        "roots": [t + 1 for t in loc.sigma_k_indices],
        "rank": loc.datum.rank,
        "sigma_k": [list(s) for s in loc.datum.sigma_k],
        "wk_type": loc.datum.wk_type_name,
        "xi_basis_in_parent": [list(r) for r in loc.xi_basis_in_parent],
        "sigma_K_indices": list(loc.sigma_K_indices),
        "predicates_rank0": loc.datum.rank == 0,
    }
    return report, 0


def cmd_degenerate(doc: dict) -> tuple[dict, int]:
    d, rd, bad = _validated_rd(doc)
    if bad is not None:
        bad["command"] = "degenerate"
        return bad, 1
    gamma_rows = doc.get("gamma")
    if gamma_rows is not None:
        # degeneration of the quotient by a group of automorphisms
        gamma_rows = _rat_matrix(gamma_rows)
        _check_width(gamma_rows, rd.rank, "gamma row")
        gamma = Lattice.from_rows(rd.rank, gamma_rows)
        aut = aut_roots(rd, gamma)
        xi, sigma_aut = gamma, aut.roots
    else:
        aut = None
        xi, sigma_aut = Lattice.standard(rd.rank), tuple(rd.sigma_k)
    dd = build_degeneration(xi, sigma_aut)
    fibers = []
    for face in dd.c_bd.faces():
        data = degeneration_fiber_data(dd, face)
        fibers.append(
            {
                "face": [list(g) for g in face.generators],
                "sigma_fiber": [list(s) for s in data["sigma_fiber"]],
                "horospherical": data["horospherical"],
                "k_form": data["k_form"],
                "torus_rank": data["torus_rank"],
            }
        )
    full = Lattice.standard(2 * rd.rank)
    report = {
        "command": "degenerate",
        "n_aut": list(aut.n_aut) if aut else [],
        "sigma_aut": [list(s) for s in sigma_aut],
        "xiZ_basis": [list(r) for r in dd.xiZ.basis],
        "xiZ_rank": dd.xiZ.rank,
        "xiZ_index": dd.xiZ.index_in(full) if dd.xiZ.rank == 2 * rd.rank else None,
        "exact_sequence": "verified",
        "boundary_cone": [list(g) for g in dd.c_bd.generators],
        "fibers": fibers,
    }
    return report, 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spherindex",
        description="exact combinatorics of spherical varieties over non-closed fields",
    )
    parser.add_argument("--format", choices=["text", "json"], default="text")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("analyze", help="validate a datum and compute all invariants")
    p.add_argument("path")
    p = sub.add_parser("restrict-index", help="restricted root data of a group index")
    p.add_argument("path")
    p = sub.add_parser("standard-fan", help="standard fan and strata of a convex datum")
    p.add_argument("path")
    p = sub.add_parser("fan", help="check a user fan against a datum")
    p.add_argument("path")
    p.add_argument("--fan", required=True, dest="fan_path")
    p.add_argument("--check", action="append", default=[], choices=["smooth", "complete", "support"])
    p.add_argument("--strata", action="store_true")
    p.add_argument("--saturate", action="store_true")
    p = sub.add_parser("localize", help="localize a datum at restricted roots")
    p.add_argument("path")
    p.add_argument("--roots", default="")
    p = sub.add_parser("degenerate", help="boundary degeneration lattice data")
    p.add_argument("path")

    args = parser.parse_args(argv)
    try:
        doc = _load(args.path)
        if args.cmd == "analyze":
            report, code = cmd_analyze(doc)
        elif args.cmd == "restrict-index":
            report, code = cmd_restrict_index(doc)
        elif args.cmd == "standard-fan":
            report, code = cmd_standard_fan(doc)
        elif args.cmd == "fan":
            fan_doc = _load(args.fan_path)
            report, code = cmd_fan(doc, fan_doc, args.check, args.strata, args.saturate)
        elif args.cmd == "localize":
            report, code = cmd_localize(doc, args.roots)
        else:
            report, code = cmd_degenerate(doc)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TheoremViolation as e:
        print(f"theorem violation: {e}", file=sys.stderr)
        return 3
    except SpherindexError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
