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
from functools import cache
from itertools import chain, islice, repeat

from .datum import SphericalDatumK, is_valid, validate
from .degeneration import build_degeneration, degeneration_fiber_data
from .errors import ParseError, SpherindexError, TheoremViolation
from .fans import (
    ORBIT_CAP_ENV,
    Fan,
    cone_membership,
    faces,
    fan_validate,
    is_complete_for,
    is_smooth,
    standard_fan,
    strata,
    weyl_saturate,
)
from .index import TitsIndex, restricted_root_system
from .linalg import Lattice, content, divide, integer_kernel, lattice_index, primitive_vector
from .restrict import (
    RestrictedDatum,
    aut_roots,
    chamber_containment_check,
    coweight_identity_check,
    localize,
    phi_k_res,
    predicates,
    restrict_datum,
)
from .rootsys import AmbientRootDatum, diagram_involution, generate_roots, type_name_of, weyl_order

SCHEMA_VERSION = "1"
HARD_RANK_CEILING = 100  # total ambient rank, or abstract rank; a Cartan matrix is rank x rank
INT_DIGITS = 4300  # the most digits of an int literal (Python's default int-string limit)


class InvalidDatum(Exception):
    """A datum that failed validation; its one argument is the report."""


# ---------------------------------------------------------------------------
# input parsing


def _load(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as e:  # JSONDecodeError is a ValueError
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
        fam, rk = _require(c, "family"), _int(_require(c, "rank"))
        spec.append((fam, rk, str(c.get("label", "")) or f"c{k + 1}"))
    if (total := sum(rk for _, rk, _ in spec)) > HARD_RANK_CEILING:
        raise ParseError(f"total ambient rank {total} exceeds HARD_RANK_CEILING {HARD_RANK_CEILING}")
    amb = AmbientRootDatum.of(spec)
    # a name that is no string matches no root, and its error prints it as given
    compact = [amb.index_of_root(name) for name in _list(doc.get("compact_simple", []), "compact_simple")]
    gens = []
    for g in _list(doc.get("star_generators", []), "star_generators"):
        if g == "flip":
            gens.append(_flip_generator(amb))
        elif isinstance(g, list):
            gens.append(_rat_matrix(g))
        else:
            raise ParseError(f"bad star generator {g!r}")
    return TitsIndex.of(amb, compact, gens)


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
            if _written_digits(x) > INT_DIGITS:  # before Fraction() builds 10**k
                raise ValueError
            q = Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational {x!r}") from None
        return q.numerator if q.denominator == 1 else q
    raise ParseError(f"bad rational {x!r}")


def _written_digits(text: str) -> int:
    """A bound on the digits of the numerator and denominator of a decimal, m * 10**k
    for the digits m of its mantissa; 0 for "p/q", whose p and q int() bounds."""
    if "/" in text:
        return 0
    mantissa, _, exp = text.lower().partition("e")
    k = int(exp or 0) - sum(map(str.isdigit, mantissa.partition(".")[2]))
    return max(sum(map(str.isdigit, mantissa)) + max(k, 0), 1 - k)


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
    if mode == "ambient":
        ix = parse_index(doc)
        spherical = _require(doc, "spherical")
        sigma = _rat_matrix(_require(spherical, "sigma"))
        xi = spherical.get("xi_basis")
        if xi is not None:
            xi = _rat_matrix(xi)
            _check_width(xi, ix.ambient.dim, "xi_basis row")
        sp = [ix.ambient.index_of_root(name) for name in _list(spherical.get("sp", []), "sp")]
        return SphericalDatumK.ambient(ix, sigma, xi_rows=xi, sp=sp)
    if mode == "abstract":
        ab = _require(doc, "abstract")
        if (rank := _int(_require(ab, "rank"))) > HARD_RANK_CEILING:
            raise ParseError(f"abstract rank {rank} exceeds HARD_RANK_CEILING {HARD_RANK_CEILING}")
        return SphericalDatumK.abstract(
            rank,
            _rat_matrix(_require(ab, "pairing")),
            [_rat_matrix(g) for g in _list(ab.get("star", []), "star")],
            _rat_matrix(ab.get("sigma", [])),
            sigma0=[_int(i) for i in _list(ab.get("sigma0", []), "sigma0")],
        )
    raise ParseError(f"unknown mode {mode!r}")


def parse_fan(doc: dict) -> Fan:
    cones = _list(_require(doc, "cones"), "cones")
    return Fan.from_maximal(
        [[[_int(x) for x in _list(g, "a fan generator")] for g in _list(cone, "a cone")] for cone in cones]
    )


# ---------------------------------------------------------------------------
# report serialization


def _render_text(node, indent=0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(node, dict):
        items = [(f"{k}:", v) for k, v in node.items()]
    else:
        items = [("-", v) for v in node]
    for head, v in items:
        line = _flat(v)
        if line is None:
            lines.append(f"{pad}{head}")
            lines += _render_text(v, indent + 1)
        else:
            lines.append(f"{pad}{head} {line}")
    return lines


def _flat(v) -> str | None:
    """The one-line text of a scalar, an empty dict, or a sequence of scalars or
    of sequences of scalars; None for any other value, which nests."""
    if isinstance(v, dict):
        return None if v else "{}"
    if not isinstance(v, (list, tuple)):
        return "true" if v is True else "false" if v is False else "none" if v is None else str(v)
    if set(map(type, v)) == {int}:  # not bool, which prints as true/false
        return "[" + ", ".join(map(int.__repr__, v)) + "]"
    # no entry may nest, nor an entry of a row (a row of ints has none that does)
    if all(isinstance(x, (list, tuple)) for x in v):
        entries = [y for x in v if set(map(type, x)) != {int} for y in x]
    else:
        entries = v
    if any(isinstance(y, (dict, list, tuple)) for y in entries):
        return None
    return "[" + ", ".join(map(_flat, v)) + "]"


_escape = json.encoder.encode_basestring_ascii  # the escaper of json.dumps
_BOOL = {True: "true", False: "false"}
EMIT_SLICE = 256  # items of a top-level list formatted together, which bounds the memory of one slice


def _json(node, pad: str, memo: dict) -> str:
    """One node as ``json.dumps(sort_keys=True, indent=2)`` writes it at indent
    ``pad``, with a ``Fraction`` as an int when integral, else "p/q".

    ``json.dumps`` with ``indent`` runs its pure-Python encoder; here the
    escaping and each sequence of ints are C-level calls.  ``memo`` holds the
    text of each (sequence of ints, pad): rays and roots repeat across cones.
    """
    if isinstance(node, str):
        return _escape(node)
    if type(node) is int:  # not bool, which would print as 1
        return int.__repr__(node)
    inner = pad + "  "
    if isinstance(node, (list, tuple)):
        if node and set(map(type, node)) == {int}:
            key = (tuple(node), pad)
            text = memo.get(key)
            if text is None:
                text = memo[key] = "[\n" + inner + (",\n" + inner).join(map(int.__repr__, node)) + "\n" + pad + "]"
            return text
        items, ends = _items(node, inner, memo) if node else (), "[]"
    elif isinstance(node, dict):
        items, ends = [_escape(k) + ": " + _json(v, inner, memo) for k, v in sorted(node.items())], "{}"
    elif node is None or type(node) is bool:
        return "null" if node is None else "true" if node else "false"
    elif isinstance(node, Fraction):
        return int.__repr__(node.numerator) if node.denominator == 1 else _escape(str(node))
    else:
        raise TypeError(f"Object of type {type(node).__name__} is not JSON serializable")
    if not items:
        return ends
    return ends[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + pad + ends[1]


def _items(node, pad: str, memo: dict):
    """The texts of the items of a nonempty list at indent ``pad``.

    Dicts that all share one nonempty key set go one column at a time: the
    keys are sorted and escaped once, into one ``%`` template, and each
    key's values are written as one list; the template is applied to the
    columns zipped.  Any other list is itself one column.
    """
    keys = node[0].keys() if type(node[0]) is dict else None
    if not keys or {*map(type, node)} != {dict} or any(map(keys.__ne__, map(dict.keys, node))):
        return _column(node, pad, memo)
    keys, inner = sorted(keys), pad + "  "
    fields = (inner + _escape(k).replace("%", "%%") + ": %s" for k in keys)
    template = "{\n" + ",\n".join(fields) + "\n" + pad + "}"
    return list(map(template.__mod__, zip(*(_column([x[k] for x in node], inner, memo) for k in keys))))


def _column(values, pad: str, memo: dict):
    """The texts of one column's values at indent ``pad``.  Ints, bools,
    strings and rows of ints of one length take no Python-level call per
    value.  In a column of matrices, whose rows hold ints only and share one
    nonzero length, each distinct row is formatted once into ``memo``.  Any
    other column (a bool or a Fraction in a row, rows of two lengths, empty
    rows) goes value by value."""
    types = {*map(type, values)}
    if types == {int}:  # not bool
        return map(int.__repr__, values)
    if types == {bool}:
        return map(_BOOL.__getitem__, values)
    if types == {str}:
        return map(_escape, values)
    inner = pad + "  "
    kinds = {*map(type, chain.from_iterable(values))} if types <= {tuple, list} else None
    if kinds == {int} and len(widths := {*map(len, values)}) == 1:
        row = "[\n" + inner + (",\n" + inner).join(["%s"] * widths.pop()) + "\n" + pad + "]"
        return map(row.__mod__, map(tuple, values))
    rows = [*chain.from_iterable(values)] if kinds and kinds <= {tuple, list} else ()
    distinct = dict(zip(map(id, rows), rows))  # each row object once: reports share their rows
    if len(widths := {*map(len, distinct.values())}) == 1 and {*map(type, chain.from_iterable(distinct.values()))} == {int}:
        row = "[\n" + inner + "  " + (",\n  " + inner).join(["%s"] * widths.pop()) + "\n" + inner + "]"
        keys = [*zip(map(tuple, distinct.values()), repeat(inner))]
        memo.update((key, row % key[0]) for key in {*keys}.difference(memo))
        texts, sep = map(dict(zip(distinct, map(memo.__getitem__, keys))).__getitem__, map(id, rows)), ",\n" + inner
        return ["[\n" + inner + sep.join(islice(texts, n)) + "\n" + pad + "]" if n else "[]" for n in map(len, values)]
    return [_json(x, pad, memo) for x in values]


def emit(report: dict, fmt: str):
    """Print a report; JSON goes out one top-level key, and one item of a
    top-level list, at a time, the items formatted EMIT_SLICE at a time."""
    if fmt != "json":
        print("\n".join(_render_text(report)))
        return
    write = sys.stdout.write  # looked up per call: callers redirect stdout
    memo = {}
    head = "{"
    for key, value in sorted(report.items()):
        write(head + "\n  " + _escape(key) + ": ")
        head = ","
        if value and isinstance(value, (list, tuple)):
            sep = "["
            for start in range(0, len(value), EMIT_SLICE):
                for text in _items(value[start:start + EMIT_SLICE], "    ", memo):
                    write(sep + "\n    " + text)
                    sep = ","
            write("\n  ]")
        else:
            write(_json(value, "  ", memo))
    write("\n}\n" if report else "{}\n")


# ---------------------------------------------------------------------------
# commands


def _wk_type(types) -> str:
    """The name of a little Weyl group's type, "trivial" for no roots."""
    return type_name_of(types) or "trivial"


def cmd_restrict_index(doc: dict) -> tuple[dict, int]:
    ix = parse_index(doc)
    violations = ix.violations()
    report = {
        "command": "restrict-index",
        "violations": violations,
    }
    if violations:
        return report, 1
    srs = ix.simple_roots
    phi = restricted_root_system(ix)
    names = ix.ambient.root_names()
    type_name = type_name_of(srs.types)
    report.update(
        {
            "restricted_simple_roots": srs.roots,
            "fibers": [[names[i] for i in fib] for fib in srs.fibers],
            "type": type_name,
            "restricted_roots": [
                {"root": r, "multiplicity": m} for r, m in phi.multiplicities
            ],
            "reduced": phi.reduced,
            "indivisible_type": type_name,
            "indivisible_count": len(phi.indivisible),
        }
    )
    return report, 0


def cmd_analyze(doc: dict) -> tuple[dict, int]:
    d = parse_datum(doc)
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
    phi_k = tuple(generate_roots(rd.roots))
    rr = phi_k_res(d, rd, phi_k)
    cw = coweight_identity_check(d, rd)
    chamber_containment_check(d, rd)
    split = rd.split
    lineality = integer_kernel(rd.sigma_k, width=rd.rank)
    report.update(
        {
            "sigma0": split.sigma0,
            "noncompact": split.noncompact,
            "rank": rd.rank,
            "sigma_k": rd.sigma_k,
            "sigma_k_pr": tuple(map(primitive_vector, rd.sigma_k)),
            "n_sigma": tuple(map(content, rd.sigma_k)),
            "fibers": rd.fibers,
            "wk_type": _wk_type(rd.roots.types),
            "wk_order": weyl_order(rd.roots.types),
            "phi_k": phi_k,
            "phi_k_res": [
                {"root": r, "multiplicity": m} for r, m in rr.multiplicities
            ],
            "phi_k_res_reduced": rr.reduced,
            "valuation_cone": {
                "inequalities": rd.sigma_k,
                "lineality": lineality,
                # present exactly when the cone is strictly convex: minus the coweights
                "extremal_rays": () if lineality else divide(rd.coweights, -rd.coweight_den),
            },
            "coweight_identity": cw,
            "predicates": predicates(d, rd),
        }
    )
    if d.index is not None:
        report["sigma_k_in_beta"] = d.index.simple_roots.fiber_sums(d.sigma_input)
    return report, 0


def _validated_rd(doc: dict) -> RestrictedDatum:
    """The restricted datum of a document whose datum validates."""
    d = parse_datum(doc)
    items = validate(d)
    if not is_valid(items):
        raise InvalidDatum(
            {
                "validation": [
                    {"name": it.name, "passed": it.passed, "detail": it.detail}
                    for it in items
                    if not it.passed
                ],
                "valid": False,
            }
        )
    return restrict_datum(d)


def _strata_report(f: Fan, sp) -> list[dict]:
    return [
        {
            "cone": gens,
            "codim": len(gens),
            "rank": len(node.lattice_basis),
            "sigma": node.sigma_indices,
            "lattice_basis": node.lattice_basis,
            "horospherical": node.horospherical,
        }
        for gens, node in zip(f.generators, sp)
    ]


def cmd_standard_fan(doc: dict) -> tuple[dict, int]:
    rd = _validated_rd(doc)
    f = standard_fan(rd)
    sp = strata(f, rd)
    report = {
        "command": "standard-fan",
        "cones": list(f.generators),
        "strata": _strata_report(f, sp),
        "smooth": all(is_smooth(f)),
    }
    return report, 0


def cmd_fan(doc: dict, fan_path: str, checks, want_strata: bool, saturate: bool) -> tuple[dict, int]:
    fan_doc = _load(fan_path)  # an unreadable fan file exits 2 before validation
    rd = _validated_rd(doc)
    f = parse_fan(fan_doc)
    # each ray once, sorted: the error names the least generator of a wrong width
    _check_width(f.rays, rd.rank, "fan generator")
    issues = fan_validate(f, rd)
    report = {
        "command": "fan",
        "issues": [{"kind": i.kind, "detail": i.detail} for i in issues],
        "fan_valid": not issues,
    }
    if saturate and not issues:
        f = weyl_saturate(f, rd, cap=_orbit_cap())
        report["saturated_cones"] = list(f.generators)
    for check in checks:
        if check == "support":
            report["support"] = all(cone_membership(g, rd) for g in f.rays)
        elif check == "complete":
            if issues:
                report["complete"] = None
            else:
                report["complete"] = is_complete_for(f, rd)
        elif check == "smooth":
            flags = is_smooth(f)
            report["smooth"] = all(flags)
            report["smooth_by_cone"] = [
                {"cone": gens, "smooth": flag} for gens, flag in zip(f.generators, flags)
            ]
    if want_strata and not issues:
        report["strata"] = _strata_report(f, strata(f, rd))
    return report, 1 if issues else 0


def _digits(text: str) -> int | None:
    """The int of ASCII digits with whitespace around them, else None: int()
    would also read "+1", "1_0" and digits of other scripts."""
    digits = text.strip()
    try:
        return int(digits) if digits.isascii() and digits.isdigit() else None
    except ValueError:  # more digits than int() converts (4,300 from Python 3.11)
        return None


def _orbit_cap() -> int | None:
    """The positive integer in SPHERINDEX_ORBIT_CAP, or None when it is unset."""
    env = os.environ.get(ORBIT_CAP_ENV)
    if not env:
        return None
    if not (cap := _digits(env)):
        raise ParseError(f"{ORBIT_CAP_ENV} must be a positive integer, got {env!r}")
    return cap


def cmd_localize(doc: dict, roots: str) -> tuple[dict, int]:
    rd = _validated_rd(doc)
    j = []
    if roots.strip():
        for part in roots.split(","):
            if (t := _digits(part)) is None:
                raise ParseError(f"bad root index {part!r}")
            if not (1 <= t <= len(rd.sigma_k)):
                raise ParseError(f"root index {t} out of range")
            j.append(t - 1)
    loc = localize(rd, j)
    report = {
        "command": "localize",
        "roots": [t + 1 for t in loc.sigma_k_indices],
        "rank": len(loc.xi_basis_in_parent),
        "sigma_k": loc.roots.vectors,
        "wk_type": _wk_type(loc.roots.types),
        "xi_basis_in_parent": loc.xi_basis_in_parent,
        "sigma_K_indices": loc.sigma_K_indices,
        "predicates_rank0": not loc.xi_basis_in_parent,
    }
    return report, 0


def cmd_degenerate(doc: dict) -> tuple[dict, int]:
    rd = _validated_rd(doc)
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
    fibers = [{"face": face, **degeneration_fiber_data(dd, face)} for face in faces(dd.c_bd)]
    report = {
        "command": "degenerate",
        "n_aut": aut.n_aut if aut else [],
        "sigma_aut": sigma_aut,
        "xiZ_basis": dd.xiZ.basis,
        "xiZ_rank": dd.xiZ.rank,
        "xiZ_index": lattice_index(dd.xiZ.basis, 2 * rd.rank) or None,
        "exact_sequence": "verified",
        "boundary_cone": dd.c_bd,
        "fibers": fibers,
    }
    return report, 0


# ---------------------------------------------------------------------------
# the command table: name -> (handler, help, options); the handler takes the
# loaded document and the options as keyword arguments

FORMATS = ("text", "json")

COMMANDS = {
    "analyze": (cmd_analyze, "validate a datum and compute all invariants", {}),
    "restrict-index": (cmd_restrict_index, "restricted root data of a group index", {}),
    "standard-fan": (cmd_standard_fan, "standard fan and strata of a convex datum", {}),
    "fan": (
        cmd_fan,
        "check a user fan against a datum",
        {
            "--fan": dict(required=True, dest="fan_path"),
            "--check": dict(action="append", default=[], choices=["smooth", "complete", "support"], dest="checks"),
            "--strata": dict(action="store_true", dest="want_strata"),
            "--saturate": dict(action="store_true", dest="saturate"),
        },
    ),
    "localize": (cmd_localize, "localize a datum at restricted roots", {"--roots": dict(default="", dest="roots")}),
    "degenerate": (cmd_degenerate, "boundary degeneration lattice data", {}),
}


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser of every command, built once per process."""
    parser = argparse.ArgumentParser(
        prog="spherindex",
        description="exact combinatorics of spherical varieties over non-closed fields",
    )
    parser.add_argument("--format", choices=FORMATS, default="text")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (_, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("path")
        for flag, spec in options.items():
            p.add_argument(flag, **spec)
    return parser


def _canonical_args(argv: list[str]) -> dict | None:
    """``vars(_parser().parse_args(argv))`` for ``[--format text|json] CMD PATH
    [OPTION ...]`` with each flag spelled in full as a key of CMD's options and
    no PATH or value starting with "-"; None for any other argv, which argparse
    reads: help, usage errors and every other spelling."""
    fmt = "text"
    if argv[:1] == ["--format"]:
        fmt, argv = argv[1] if len(argv) > 1 else None, argv[2:]
    if fmt not in FORMATS or len(argv) < 2 or argv[0] not in COMMANDS or argv[1].startswith("-"):
        return None
    table, rest = COMMANDS[argv[0]][2], iter(argv[2:])
    options = {"format": fmt, "cmd": argv[0], "path": argv[1]}
    for spec in table.values():
        options[spec["dest"]] = spec.get("default", False if spec.get("action") == "store_true" else None)
    for flag in rest:
        if (spec := table.get(flag)) is None:
            return None
        if (action := spec.get("action")) == "store_true":
            value = True
        elif (value := next(rest, "-")).startswith("-") or value not in spec.get("choices", (value,)):
            return None  # a missing value reads as "-"
        # a new list per append, as argparse makes: the default in the table stays empty
        options[spec["dest"]] = [*options[spec["dest"]], value] if action == "append" else value
    return options if all(flag in argv for flag, spec in table.items() if spec.get("required")) else None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    options = _canonical_args(argv) or vars(_parser().parse_args(argv))
    name, fmt, path = options.pop("cmd"), options.pop("format"), options.pop("path")
    try:
        report, code = COMMANDS[name][0](_load(path), **options)
    except InvalidDatum as e:
        report, code = {**e.args[0], "command": name}, 1
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TheoremViolation as e:
        print(f"theorem violation: {e}", file=sys.stderr)
        return 3
    except SpherindexError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        emit(report, fmt)
        sys.stdout.flush()
    except OSError as e:  # fd 1 on the null device: the exit flush of what is left is silent
        os.dup2(devnull := os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(e, BrokenPipeError):  # a reader that left is told nothing, as for SIGPIPE
            print(f"error: cannot write report: {e}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
