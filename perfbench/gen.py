"""Seeded input generator for the spherindex benchmark.

Builds the datum and fan documents of the three workloads as plain JSON,
without importing spherindex: Cartan data, positive roots and Weyl chamber
fans are computed here with the benchmark's own code.

Every job has a stable name.  The corpus draws its data from a fixed
catalog (independent of the seed), so every job a seed can produce has a
committed reference hash; the seed picks the catalog variant within each
slot and the order of the jobs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

SCHEMA = "1"

# ---------------------------------------------------------------------------
# root-system arithmetic of the benchmark itself


def _edges(family: str, n: int) -> list[tuple[int, int]]:
    if family in "ABCFG":
        return [(i, i + 1) for i in range(n - 1)]
    if family == "D":
        return [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]  # E, Bourbaki numbering
    return list(zip(chain, chain[1:])) + [(1, 3)]


def _scales(family: str, n: int) -> list[int]:
    """Half squared lengths of the simple roots (short roots have 1)."""
    return {
        "B": [2] * (n - 1) + [1],
        "C": [1] * (n - 1) + [2],
        "F": [2, 2, 1, 1],
        "G": [1, 3],
    }.get(family, [1] * n)


def simple_form(family: str, n: int) -> list[list[int]]:
    """Gram matrix of the simple roots, Bourbaki numbering."""
    d = _scales(family, n)
    f = [[0] * n for _ in range(n)]
    for i in range(n):
        f[i][i] = 2 * d[i]
    for i, j in _edges(family, n):
        f[i][j] = f[j][i] = -max(d[i], d[j])
    return f


def _pair(u, f, v) -> int:
    return sum(u[i] * f[i][j] * v[j] for i in range(len(u)) for j in range(len(v)) if f[i][j])


def positive_roots_of(gram) -> list[tuple[int, ...]]:
    """Positive roots, in base coordinates, of the finite root system whose
    base has the given Gram matrix: the reflection closure of the base."""
    n = len(gram)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for v in frontier:
            for j in range(n):
                c = 2 * sum(v[i] * gram[i][j] for i in range(n)) // gram[j][j]
                w = tuple(v[t] - (c if t == j else 0) for t in range(n))
                if any(x > 0 for x in w) and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(seen)


def positive_roots(family: str, n: int) -> list[tuple[int, ...]]:
    """Positive roots in simple-root coordinates."""
    return positive_roots_of(simple_form(family, n))


def root_count(family: str, n: int) -> int:
    """|Phi| of an irreducible system, by the classical formulas."""
    if family == "A":
        return n * (n + 1)
    if family in "BC":
        return 2 * n * n
    if family == "D":
        return 2 * n * (n - 1)
    if family == "E":
        return {6: 72, 7: 126, 8: 240}[n]
    return {"F": 48, "G": 12}[family]


def eliminate(rows) -> tuple[int, list[Fraction]]:
    """Gaussian elimination over the rationals: (row swaps, pivots).

    The pivots stop short of the size when a column has no nonzero entry
    left, that is when the matrix is singular.
    """
    m = [[Fraction(x) for x in r] for r in rows]
    n, swaps, pivots = len(m), 0, []
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k] != 0), None)
        if p is None:
            break
        if p != k:
            m[k], m[p] = m[p], m[k]
            swaps += 1
        pivots.append(m[k][k])
        for i in range(k + 1, n):
            r = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= r * m[k][j]
    return swaps, pivots


def _positive_definite(g) -> bool:
    """A symmetric matrix is positive definite when elimination needs no
    swap and every pivot is positive (its leading minors are positive)."""
    swaps, pivots = eliminate(g)
    return swaps == 0 and len(pivots) == len(g) and all(p > 0 for p in pivots)


def is_finite_base(rows, form) -> bool:
    """Whether rows form the base of a finite root system under form."""
    g = [[_pair(a, form, b) for b in rows] for a in rows]
    for i in range(len(rows)):
        for j in range(len(rows)):
            c = Fraction(2 * g[i][j], g[j][j])
            if c.denominator != 1 or (i != j and c > 0):
                return False
    return _positive_definite(g)


def roots_of_base(gram) -> int:
    """Number of roots of the finite system with the given base Gram matrix."""
    return 2 * len(positive_roots_of(gram))


def _primitive(v) -> tuple[int, ...]:
    g = 0
    for x in v:
        g = gcd(g, int(x))
    return tuple(int(x) // g for x in v)


def chamber_fan(form) -> list[list[tuple[int, ...]]]:
    """Maximal cones of the Weyl chamber fan in dual coordinates.

    The little lattice has the simple roots as basis, so a cocharacter v
    has coordinates <alpha_i, v> and the antidominant chamber is spanned by
    -e_j.  The reflection in alpha_j sends v to v - v_j alpha_j^vee.
    """
    n = len(form)
    cov = [[Fraction(2 * form[k][j], form[j][j]) for k in range(n)] for j in range(n)]

    def reflect(j, v):
        return _primitive([v[k] - v[j] * cov[j][k] for k in range(n)])

    start = frozenset(tuple(-int(i == j) for j in range(n)) for i in range(n))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for c in frontier:
            for j in range(n):
                img = frozenset(reflect(j, v) for v in c)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return sorted(sorted(c) for c in seen)


def face_closure(maximal) -> set[tuple[tuple[int, ...], ...]]:
    out = set()
    for cone in maximal:
        gens = sorted(tuple(g) for g in cone)
        for mask in range(1 << len(gens)):
            out.add(tuple(g for k, g in enumerate(gens) if mask >> k & 1))
    return out


# ---------------------------------------------------------------------------
# documents


def ambient_doc(components, sigma=(), compact=(), star=(), xi=None) -> dict:
    doc = {
        "schema_version": SCHEMA,
        "mode": "ambient",
        "ambient": {"components": [dict(c) for c in components]},
        "compact_simple": list(compact),
        "star_generators": list(star),
        "spherical": {"sigma": [list(r) for r in sigma]},
    }
    if xi is not None:
        doc["spherical"]["xi_basis"] = [list(r) for r in xi]
    return doc


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _split_an(n: int) -> dict:
    return ambient_doc([{"family": "A", "rank": n}], sigma=_identity(n))


@dataclass
class Job:
    """One CLI invocation.

    ``files`` maps a placeholder in ``argv`` to the document written for
    it.  ``expect`` is the exit code the documented contract requires;
    ``facts`` carries what the oracles know about the input by
    construction.  ``hashed`` is false for error-path jobs, which are
    judged by exit code and the absence of a traceback only.
    """

    name: str
    argv: list[str]
    files: dict[str, object]
    expect: int
    kind: str
    facts: dict = field(default_factory=dict)
    hashed: bool = True
    group: str = ""  # (family, rank) of the datum, corpus only


def _component(family: str, n: int, label: str | None = None) -> dict:
    c = {"family": family, "rank": n}
    if label:
        c["label"] = label
    return c


def index_large_jobs() -> list[Job]:
    swap = [[int(j == (i + 6) % 12) for j in range(12)] for i in range(12)]
    specs = [
        # name, components, compact, star, restricted type, compact roots
        ("split-E7", [_component("E", 7)], [], [], ("E", 7), 0),
        ("split-E8", [_component("E", 8)], [], [], ("E", 8), 0),
        ("split-D8", [_component("D", 8)], [], [], ("D", 8), 0),
        ("split-A12", [_component("A", 12)], [], [], ("A", 12), 0),
        ("quasi-E6", [_component("E", 6)], [], ["flip"], ("F", 4), 0),
        ("quasi-D7", [_component("D", 7)], [], ["flip"], ("B", 6), 0),
        ("quasi-A11", [_component("A", 11)], [], ["flip"], ("C", 6), 0),
        ("compact-C8", [_component("C", 8)], ["a1", "a3", "a5", "a7"], [], ("C", 4), 8),
        ("swap-A6xA6", [_component("A", 6, "x"), _component("A", 6, "y")], [], [swap], ("A", 6), 0),
    ]
    jobs = []
    for name, comps, compact, star, rtype, compact_roots in specs:
        ambient = sum(root_count(c["family"], c["rank"]) for c in comps)
        jobs.append(
            Job(
                name=f"restrict-index/{name}",
                argv=["--format", "json", "restrict-index", "@datum"],
                files={"@datum": ambient_doc(comps, compact=compact, star=star)},
                expect=0,
                kind="restrict-index",
                facts={
                    "split": not compact and not star,
                    "type": f"{rtype[0]}{rtype[1]}",
                    "restricted_roots": root_count(*rtype),
                    "multiplicity_sum": ambient - compact_roots,
                    "rank": sum(c["rank"] for c in comps),
                },
            )
        )
    return jobs


# the datum of fixtures/e6.json; its restricted spherical roots are the
# standard basis of the little lattice, with this Gram matrix (type B2)
E6_FIXTURE = ambient_doc(
    [_component("E", 6)],
    sigma=[[1, 0, 1, 1, 1, 1], [0, 1, "1/2", 1, "1/2", 0]],
    star=["flip"],
)
E6_LITTLE_FORM = [[2, -1], [-1, 1]]


def fan_chambers_jobs() -> list[Job]:
    fan_flags = ["--check", "complete", "--check", "smooth", "--strata"]
    jobs = []
    for name, datum, form in [
        ("weyl-A3", _split_an(3), simple_form("A", 3)),
        ("e6-B2", E6_FIXTURE, E6_LITTLE_FORM),
    ]:
        maximal = chamber_fan(form)
        jobs.append(
            Job(
                name=f"fan/{name}",
                argv=["--format", "json", "fan", "@datum", "--fan", "@fan"] + fan_flags,
                files={"@datum": datum, "@fan": {"cones": [[list(g) for g in c] for c in maximal]}},
                expect=1,  # the chambers leave the valuation cone
                kind="fan-chambers",
                facts={"maximal": [[list(g) for g in c] for c in maximal], "rank": len(form)},
            )
        )
    for n in (5, 6):
        datum = _split_an(n)
        std = [[[-int(i == j) for j in range(n)] for i in range(n)]]
        jobs.append(
            Job(
                name=f"fan/standard-A{n}",
                argv=["--format", "json", "fan", "@datum", "--fan", "@fan"] + fan_flags,
                files={"@datum": datum, "@fan": {"cones": std}},
                expect=0,
                kind="fan-standard",
                facts={"rank": n},
            )
        )
        jobs.append(
            Job(
                name=f"standard-fan/split-A{n}",
                argv=["--format", "json", "standard-fan", "@datum"],
                files={"@datum": datum},
                expect=0,
                kind="standard-fan",
                facts={"rank": n},
            )
        )
    return jobs


# ---------------------------------------------------------------------------
# corpus catalog

SPLIT_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
    ("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4),
    ("D", 4), ("D", 5), ("G", 2), ("F", 4), ("E", 6),
]
# diagram involutions as the CLI's "flip" realizes them, 0-based pairs
FLIP_PAIRS = {
    ("A", 2): [(0, 1)], ("A", 3): [(0, 2)], ("A", 4): [(0, 3), (1, 2)],
    ("A", 5): [(0, 4), (1, 3)], ("D", 4): [(2, 3)], ("D", 5): [(3, 4)],
    ("E", 6): [(0, 5), (2, 4)],
}
SWAP_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)]
SHAPES = 6  # data per slot in one corpus, one of each shape
VARIANTS = 3  # catalog data per shape; the seed picks one


def _catalog_rng(slot: str) -> random.Random:
    return random.Random(f"perfbench-catalog-{slot}")


def _random_base(rng: random.Random, family: str, n: int, size: int) -> list[tuple[int, ...]]:
    form = simple_form(family, n)
    positive = positive_roots(family, n)
    while True:
        picks = sorted(rng.sample(positive, size))
        if is_finite_base(picks, form):
            return picks


@dataclass
class Datum:
    """A catalog datum with what is known about it by construction."""

    name: str
    group: str  # family and rank, e.g. "split-A4"
    doc: dict
    rank: int  # rank of the little weight lattice
    n_sigma_k: int
    convex: bool
    little_roots: int | None  # |Phi_k| when known by construction


def _split_datum(rng: random.Random, family: str, n: int, shape: int) -> dict:
    """Spherical roots: a finite-type base of positive roots; every third
    shape enlarges the weight lattice to the root lattice (not convex)."""
    size = 1 + shape % min(4, n)
    base = _random_base(rng, family, n, size)
    enlarge = size < n and shape % 3 == 2
    form = simple_form(family, n)
    gram = [[_pair(a, form, b) for b in base] for a in base]
    return dict(
        doc=ambient_doc([_component(family, n)], sigma=base, xi=_identity(n) if enlarge else None),
        rank=n if enlarge else size,
        n_sigma_k=size,
        convex=not enlarge,
        little_roots=roots_of_base(gram),
    )


def _folded_datum(rng: random.Random, family: str, n: int, shape: int) -> dict:
    """Quasi-split by the diagram flip; spherical roots are orbit sums."""
    perm = {}
    for a, b in FLIP_PAIRS[(family, n)]:
        perm[a], perm[b] = b, a
    orbits = sorted({tuple(sorted({i, perm.get(i, i)})) for i in range(n)})
    size = 1 + shape % min(4, len(orbits))
    chosen = sorted(rng.sample(orbits, size))
    sigma = [[int(i in orbit) for i in range(n)] for orbit in chosen]
    return dict(
        doc=ambient_doc([_component(family, n)], sigma=sigma, star=["flip"]),
        rank=size,
        n_sigma_k=size,
        convex=True,
        little_roots=None,
    )


def _swap_datum(rng: random.Random, family: str, m: int, shape: int) -> dict:
    """Two copies of a split datum glued by the swap, in abstract form."""
    base = _random_base(rng, family, m, 1 + shape % m)
    form = simple_form(family, m)
    g = [[_pair(a, form, b) for b in base] for a in base]
    k = len(base)
    pairing = [[g[i % k][j % k] if (i < k) == (j < k) else 0 for j in range(2 * k)] for i in range(2 * k)]
    swap = [[int(j == (i + k) % (2 * k)) for j in range(2 * k)] for i in range(2 * k)]
    return dict(
        doc={
            "schema_version": SCHEMA,
            "mode": "abstract",
            "abstract": {"rank": 2 * k, "pairing": pairing, "star": [swap], "sigma": _identity(2 * k)},
        },
        rank=k,
        n_sigma_k=k,
        convex=True,
        little_roots=roots_of_base(g),
    )


def catalog() -> dict[str, list[list[Datum]]]:
    """Valid corpus data: slot -> shape -> variants."""
    slots = {}
    for kind, make, types in [
        ("split", _split_datum, SPLIT_TYPES),
        ("folded", _folded_datum, list(FLIP_PAIRS)),
        ("swap", _swap_datum, SWAP_TYPES),
    ]:
        for family, n in types:
            slot = f"{kind}-{family}{n}"
            rng = _catalog_rng(slot)
            slots[slot] = [
                [Datum(name=f"{slot}-s{shape}-v{v}", group=slot, **make(rng, family, n, shape))
                 for v in range(VARIANTS)]
                for shape in range(SHAPES)
            ]
    return slots


def _invalid_jobs() -> list[Job]:
    """Well-formed data that fail validation; the oracle knows which check."""
    out = []
    for family, n in [("A", 3), ("B", 3), ("C", 4), ("D", 4)]:
        slot = f"invalid-{family}{n}"
        comp = [_component(family, n)]
        ident = _identity(n)
        cases = [
            ("dependent", ambient_doc(comp, sigma=[ident[0], ident[1], [1, 1] + [0] * (n - 2)], xi=ident),
             "linearly_independent"),
            ("imprimitive", ambient_doc(comp, sigma=[[2] + [0] * (n - 1)], xi=ident),
             "roots_primitive_in_lattice"),
        ]
        if (family, n) in FLIP_PAIRS:
            p, q = FLIP_PAIRS[(family, n)][0]
            other = next(i for i in range(n) if i not in (p, q))
            cases.append(
                ("unpermuted", ambient_doc(comp, sigma=[ident[p]], star=["flip"], xi=ident),
                 "star_permutes_roots")
            )
            cases.append(
                ("compact-moved",
                 ambient_doc(comp, sigma=[ident[other]], star=["flip"], compact=[f"a{p + 1}"], xi=ident),
                 "index_well_formed")
            )
        for tag, doc, check in cases:
            out.append(
                Job(f"analyze/{slot}-{tag}", ["--format", "json", "analyze", "@datum"],
                    {"@datum": doc}, 1, "invalid", {"failed_check": check}, group=slot)
            )
    return out


def _datum_jobs(d: Datum) -> list[Job]:
    facts = {
        "rank": d.rank,
        "n_sigma_k": d.n_sigma_k,
        "convex": d.convex,
        "little_roots": d.little_roots,
    }
    jobs = [
        Job(f"analyze/{d.name}", ["--format", "json", "analyze", "@datum"],
            {"@datum": d.doc}, 0, "analyze", facts, group=d.group)
    ]
    if d.convex:
        for cmd, extra in [("standard-fan", []), ("localize", ["--roots", "1"]), ("degenerate", [])]:
            jobs.append(
                Job(f"{cmd}/{d.name}", ["--format", "json", cmd, "@datum"] + extra,
                    {"@datum": d.doc}, 0, cmd, facts, group=d.group)
            )
    return jobs


def _malformed_jobs() -> list[Job]:
    """Documents the contract says must exit 2 with no traceback.

    The last four are the known schema holes; at the time of writing they
    escape as tracebacks and so count as failed jobs.
    """
    good = _split_an(3)
    no_mode = {k: v for k, v in good.items() if k != "mode"}
    no_spherical = {k: v for k, v in good.items() if k != "spherical"}
    cases = [
        ("schema-version", "analyze", dict(good, schema_version="9"), []),
        ("missing-mode", "analyze", no_mode, []),
        ("unknown-mode", "analyze", dict(good, mode="weird"), []),
        ("bad-rational", "analyze", ambient_doc([_component("A", 3)], sigma=[["x/y", 0, 0]]), []),
        ("unknown-root", "analyze", ambient_doc([_component("A", 3)], sigma=_identity(3), compact=["a9"]), []),
        ("short-sigma-row", "analyze", ambient_doc([_component("A", 3)], sigma=[[1, 0]]), []),
        ("top-level-list", "analyze", [1, 2], []),
        ("missing-spherical", "analyze", no_spherical, []),
        ("not-json", "analyze", "{not json", []),
        ("root-index-range", "localize", good, ["--roots", "9"]),
        ("component-without-family", "restrict-index",
         {"schema_version": SCHEMA, "mode": "ambient", "ambient": {"components": [{"rank": 3}]},
          "spherical": {"sigma": []}}, []),
        ("abstract-rank-not-int", "analyze",
         {"schema_version": SCHEMA, "mode": "abstract",
          "abstract": {"rank": "x", "pairing": [[2]], "sigma": [[1]]}}, []),
        ("fan-generator-length", "fan", good, ["--fan", "@fan"]),
        ("gamma-row-width", "degenerate", dict(good, gamma=[[1, 0]]), []),
    ]
    jobs = []
    for tag, cmd, doc, extra in cases:
        files = {"@datum": doc}
        if "@fan" in extra:
            files["@fan"] = {"cones": [[[-1, 0, 0], [0, -1]]]}
        jobs.append(
            Job(f"{cmd}/malformed-{tag}", ["--format", "json", cmd, "@datum"] + extra,
                files, 2, "malformed", hashed=False, group="malformed")
        )
    return jobs


def corpus_catalog_jobs() -> list[Job]:
    """Every job the corpus can contain, for the reference hashes."""
    jobs = []
    for shapes in catalog().values():
        for variants in shapes:
            for d in variants:
                jobs += _datum_jobs(d)
    return jobs + _invalid_jobs() + _malformed_jobs()


def corpus_mixed_jobs(seed: int) -> list[Job]:
    """One datum of every catalog shape plus the invalid and malformed
    slices, shuffled as units of one datum and its follow-up commands.

    The seed picks the variant of each shape, so the mix of families, ranks
    and commands, and with it the cost of a pass, is the same for every
    seed; which roots and which order vary.
    """
    rng = random.Random(seed)
    units = []
    for shapes in catalog().values():
        for variants in shapes:
            units.append(_datum_jobs(rng.choice(variants)))
    units += [[j] for j in _invalid_jobs() + _malformed_jobs()]
    rng.shuffle(units)
    return [j for unit in units for j in unit]


def workload_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of a workload; fixed workloads are shuffled by the seed."""
    if workload == "corpus-mixed":
        return corpus_mixed_jobs(seed)
    jobs = {"index-large": index_large_jobs, "fan-chambers": fan_chambers_jobs}[workload]()
    random.Random(seed).shuffle(jobs)
    return jobs


WORKLOADS = ("index-large", "fan-chambers", "corpus-mixed")


def all_reference_jobs() -> list[Job]:
    return index_large_jobs() + fan_chambers_jobs() + corpus_catalog_jobs()


# ---------------------------------------------------------------------------
# materialization


def document_bytes(doc) -> bytes:
    if isinstance(doc, str):  # deliberately broken JSON text
        return doc.encode()
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


def write_inputs(jobs: list[Job], directory: str, write: bool = True) -> list[list[str]]:
    """Write each distinct document once; return the argv of every job.

    With write=False only the argvs are computed: the same paths as a
    previous call with the same jobs wrote.
    """
    if write:
        os.makedirs(directory, exist_ok=True)
        for stale in os.listdir(directory):
            os.remove(os.path.join(directory, stale))
    written: dict[bytes, str] = {}
    argvs = []
    for job in jobs:
        paths = {}
        for key, doc in job.files.items():
            data = document_bytes(doc)
            if data not in written:
                path = os.path.join(directory, f"in{len(written):04d}.json")
                if write:
                    with open(path, "wb") as fh:
                        fh.write(data)
                written[data] = path
            paths[key] = written[data]
        argvs.append([paths.get(a, a) for a in job.argv])
    return argvs


def input_digest(job: Job) -> str:
    """Hash of what the program receives: the argv shape and the documents."""
    h = hashlib.sha256(json.dumps(job.argv).encode())
    for key in sorted(job.files):
        h.update(key.encode() + b"\0" + document_bytes(job.files[key]))
    return h.hexdigest()


def input_properties(workload: str, jobs: list[Job]) -> dict:
    """Input properties the benchmark reports beside the metrics."""
    props: dict = {"jobs": len(jobs)}
    if workload == "index-large":
        props["ranks"] = sorted(j.facts["rank"] for j in jobs)
    elif workload == "fan-chambers":
        props["ranks"] = sorted({j.facts["rank"] for j in jobs})
        props["cone_counts"] = {
            j.name: len(face_closure(j.facts["maximal"])) if "maximal" in j.facts else 2 ** j.facts["rank"]
            for j in sorted(jobs, key=lambda j: j.name)
        }
    else:
        seen, repeats = set(), 0
        for j in jobs:
            repeats += j.group in seen
            seen.add(j.group)
        props["groups"] = len(seen)
        props["repeated_group_share"] = repeats / len(jobs)
        props["little_ranks"] = sorted({j.facts["rank"] for j in jobs if "rank" in j.facts})
        props["by_kind"] = {k: sum(j.kind == k for j in jobs) for k in sorted({j.kind for j in jobs})}
    return props
