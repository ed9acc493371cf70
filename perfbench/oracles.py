"""Independent oracles for the benchmark's jobs.

Each oracle reads the JSON report of one job and checks it against what
is known about the input by construction (``Job.facts``) or computed here
without spherindex: root counts by the classical formulas, face lattices of
simplicial fans, unimodularity by determinant.  An oracle returns None when
the report passes and a one-line reason when it does not.
"""

from __future__ import annotations

import json
from fractions import Fraction

from gen import eliminate, face_closure


class OracleFailure(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise OracleFailure(what)


def _det(rows) -> Fraction:
    swaps, pivots = eliminate(rows)
    if len(pivots) < len(rows):
        return Fraction(0)
    det = Fraction((-1) ** swaps)
    for p in pivots:
        det *= p
    return det


def _cover_edges(cones) -> int:
    sets = [frozenset(map(tuple, c)) for c in cones]
    by_set = set(sets)
    return sum(
        1 for s in sets for g in s if s - {g} in by_set
    )


def _check_coordinate_strata(strata, n: int) -> None:
    """Strata of a fan whose rays are -e_j and whose roots are e_i."""
    for node in strata:
        cone = node["cone"]
        used = {next(j for j, x in enumerate(g) if x) for g in cone}
        _require(all(sum(map(abs, g)) == 1 and min(g) == -1 for g in cone), "stratum ray is not -e_j")
        _require(node["codim"] == len(cone), "stratum codim differs from its cone dimension")
        _require(node["rank"] == n - len(cone), "stratum rank is not n - codim")
        _require(node["sigma"] == [i for i in range(n) if i not in used], "vanishing roots of a stratum")
        _require(len(node["lattice_basis"]) == n - len(cone), "stratum lattice has the wrong rank")
        _require(node["horospherical"] == (len(cone) == n), "horospherical flag of a stratum")


def restrict_index(job, r: dict) -> None:
    f = job.facts
    roots = [tuple(x["root"]) for x in r["restricted_roots"]]
    mults = [x["multiplicity"] for x in r["restricted_roots"]]
    _require(r["violations"] == [], "index reported violations")
    _require(r["type"] == f["type"] == r["indivisible_type"], f"type {r['type']}, expected {f['type']}")
    _require(len(roots) == f["restricted_roots"], f"{len(roots)} restricted roots, expected {f['restricted_roots']}")
    _require(sum(mults) == f["multiplicity_sum"], "multiplicities do not add up to |Phi| - |Phi_0|")
    _require(set(roots) == {tuple(-x for x in v) for v in roots}, "restricted roots not closed under negation")
    _require(r["reduced"] is True, "restricted root system reported non-reduced")
    if f["split"]:
        _require(set(mults) == {1}, "split index with a multiplicity other than 1")


def fan_chambers(job, r: dict) -> None:
    faces = face_closure(job.facts["maximal"])
    kinds = {i["kind"] for i in r["issues"]}
    _require("intersection_not_a_face" not in kinds, "chamber fan reported intersection_not_a_face")
    _require(kinds == {"outside_support"}, f"issue kinds {sorted(kinds)}")
    # inequalities are the little simple roots e_i: one issue per positive coordinate
    expected = sum(1 for c in faces for g in c for x in g if x > 0)
    _require(len(r["issues"]) == expected, f"{len(r['issues'])} outside_support issues, expected {expected}")
    _require(r["fan_valid"] is False and r["complete"] is None, "verdict on an invalid fan")
    reported = {tuple(map(tuple, c["cone"])) for c in r["smooth_by_cone"]}
    _require(reported == faces, "cones differ from the face closure of the chambers")
    unimodular = all(abs(_det(c)) == 1 for c in job.facts["maximal"])
    _require(r["smooth"] is unimodular, "smoothness differs from the chamber determinants")
    _require("strata" not in r, "strata reported for an invalid fan")


def fan_standard(job, r: dict) -> None:
    n = job.facts["rank"]
    _require(r["issues"] == [] and r["fan_valid"] is True, "standard fan reported issues")
    _require(r["complete"] is True and r["smooth"] is True, "standard fan not complete and smooth")
    _require(len(r["smooth_by_cone"]) == 2 ** n, "cone count of the standard fan")
    _require(len(r["strata"]) == 2 ** n, f"{len(r['strata'])} strata, expected {2 ** n}")
    edges = _cover_edges([s["cone"] for s in r["strata"]])
    _require(edges == n * 2 ** (n - 1), f"{edges} cover edges, expected {n * 2 ** (n - 1)}")
    _check_coordinate_strata(r["strata"], n)


def standard_fan(job, r: dict) -> None:
    n = job.facts["n_sigma_k"] if "n_sigma_k" in job.facts else job.facts["rank"]
    _require(len(r["cones"]) == 2 ** n, f"{len(r['cones'])} cones, expected {2 ** n}")
    _require(len(r["strata"]) == 2 ** n, f"{len(r['strata'])} strata, expected {2 ** n}")
    edges = _cover_edges(r["cones"])
    _require(edges == n * 2 ** (n - 1), f"{edges} cover edges, expected {n * 2 ** (n - 1)}")
    _require(all(s["codim"] == len(s["cone"]) for s in r["strata"]), "stratum codim")
    if "n_sigma_k" not in job.facts:
        _check_coordinate_strata(r["strata"], n)


def analyze(job, r: dict) -> None:
    f = job.facts
    _require(r["valid"] is True, "valid datum reported invalid")
    _require(all(v["passed"] for v in r["validation"] if v["severity"] == "error"), "failed error check")
    _require(r["rank"] == f["rank"], f"rank {r['rank']}, expected {f['rank']}")
    _require(len(r["sigma_k"]) == f["n_sigma_k"], "number of restricted spherical roots")
    if f["little_roots"] is not None:
        _require(len(r["phi_k"]) == f["little_roots"], f"{len(r['phi_k'])} little roots, expected {f['little_roots']}")
    cone = r["valuation_cone"]
    _require(len(cone["lineality"]) == f["rank"] - f["n_sigma_k"], "lineality dimension")
    _require(len(cone["extremal_rays"]) == (f["n_sigma_k"] if f["convex"] else 0), "extremal ray count")
    _require(r["predicates"]["k_convex"] is f["convex"], "convexity predicate")


def localize(job, r: dict) -> None:
    _require(r["roots"] == [1], "localized at the wrong roots")
    _require(r["rank"] == 1 and len(r["sigma_k"]) == 1, "localization at one root has rank 1")


def degenerate(job, r: dict) -> None:
    f = job.facts
    _require(r["xiZ_rank"] == 2 * f["rank"], "doubled lattice rank")
    _require(r["exact_sequence"] == "verified", "exact sequence not verified")
    _require(len(r["boundary_cone"]) == f["n_sigma_k"], "boundary cone rays")
    _require(len(r["fibers"]) == 2 ** f["n_sigma_k"], "one fiber per face of the boundary cone")
    _require(r["n_aut"] == [], "automorphism multipliers without gamma")


def invalid(job, r: dict) -> None:
    _require(r["valid"] is False, "invalid datum reported valid")
    failed = {v["name"] for v in r["validation"] if not v["passed"]}
    _require(job.facts["failed_check"] in failed, f"check {job.facts['failed_check']} did not fail")


ORACLES = {
    "restrict-index": restrict_index,
    "fan-chambers": fan_chambers,
    "fan-standard": fan_standard,
    "standard-fan": standard_fan,
    "analyze": analyze,
    "localize": localize,
    "degenerate": degenerate,
    "invalid": invalid,
}


def check(job, stdout: str) -> str | None:
    """None when the job's report passes its oracle, else the reason."""
    oracle = ORACLES.get(job.kind)
    if oracle is None:
        return None
    try:
        oracle(job, json.loads(stdout))
    except OracleFailure as e:
        return f"oracle: {e}"
    except (ValueError, KeyError, TypeError, IndexError, StopIteration) as e:
        return f"oracle: malformed report ({type(e).__name__}: {e})"
    return None
