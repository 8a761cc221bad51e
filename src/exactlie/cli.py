"""Command line frontend.

Subcommands expose the derivation pipelines (slice, g2, f4, dualpair),
the orbit classifier, and an aggregate `check` that reruns every
verification suite.

Every check is declared once, as a row (name in its subcommand report or
None, name in `exactlie check` or None, verifier).  A verifier returns its
detail text, or raises AssertionError/ValueError when its identity fails;
`_run` turns the rows named in one column into records.  Each verifier
computes what it reads, so a failed identity anywhere in a pipeline is a
failed check.  A subcommand validates its input, runs its rows and then
builds its results (`_report`); `check` runs the check column of each
suite in `SUITES`, one suite at a time.

Output is deterministic for fixed flags and seed; exit code 0 means every
check passed, 1 flags an identity violation, 2 flags invalid input, and 3
an internal error: a verifier raised any other exception (the check is
recorded with status "error" and the run goes on), or a subcommand failed
outside any check (`error: internal: ...` on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache, partial
from random import Random
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import classify as cls
from . import dualpair as dp
from . import f4 as f4mod
from . import g2 as g2mod
from .mpoly import MPoly
from .polymat import (
    PolyMatrix, charpoly_coefficients, det_cofactor, determinant, pfaffian,
)
from .scalar import Scalar
from .slicegeom import (
    HOOK_VARS, MAX_RANK, derived_hook_f, expected_hook_f, hook_factorization,
    hook_pipeline, normalize_to_hook_form,
)

SCHEMA_VERSION = 1

# (name in the subcommand report, name in `exactlie check`, verifier)
Row = Tuple[Optional[str], Optional[str], Callable[[], object]]
SUB, CHECK = 0, 1


def _jsonable(value):
    if isinstance(value, (MPoly,)):
        return value.to_text()
    if isinstance(value, (Scalar, Fraction)):
        return str(value)
    if isinstance(value, PolyMatrix):
        return [_jsonable(value.row(i)) for i in range(value.nrows)]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _check(name: str, status: str, detail: str) -> Dict[str, str]:
    return {"name": name, "status": status, "detail": detail}


def _expect(passed: bool, detail: str = "") -> str:
    """Verifier body of a predicate check: the detail, or AssertionError."""
    if not passed:
        raise AssertionError(detail)
    return detail


def _run(rows: Iterable[Row], column: int) -> List[Dict[str, str]]:
    """One record per row named in `column`, in row order; a verifier runs
    only when its row is named there."""
    records = []
    for row in rows:
        if row[column] is None:
            continue
        try:
            status, detail = "pass", row[2]()
        except (AssertionError, ValueError) as exc:
            status, detail = "fail", exc
        except Exception as exc:
            status, detail = "error", f"{type(exc).__name__}: {exc}"
        detail = "" if detail is None else str(detail)
        records.append(_check(row[column], status, detail))
    return records


def _emit(args, command: str, inputs: Dict, results: Dict, checks: List[Dict]) -> int:
    statuses = {c["status"] for c in checks}
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": _jsonable(inputs),
        "results": _jsonable(results),
        "checks": checks,
        "exit_code": 3 if "error" in statuses else int("fail" in statuses),
    }
    if args.emit == "json":
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        print(f"command: {command}")
        for key in sorted(report["inputs"]):
            print(f"input {key}: {report['inputs'][key]}")
        for key in sorted(report["results"]):
            value = report["results"][key]
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True, separators=(",", ":"))
            print(f"result {key}: {value}")
        for check in checks:
            suffix = f" ({check['detail']})" if check["detail"] else ""
            print(f"check {check['name']}: {check['status']}{suffix}")
        print(f"exit: {report['exit_code']}")
    return report["exit_code"]


def _report(args, command: str, inputs: Dict, rows: Iterable[Row], results) -> int:
    """Run a subcommand's rows, then build its results(); a failed identity
    that a row has recorded leaves them empty, other exceptions propagate."""
    checks = _run(rows, SUB)
    try:
        values = results()
    except (AssertionError, ValueError) as exc:
        if not any(c["detail"] == str(exc) for c in checks if c["status"] == "fail"):
            raise
        values = {}
    return _emit(args, command, inputs, values, checks)


def _fail_input(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _parse_partition(text: str) -> List[int]:
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"orbit {text!r} is not a comma-separated integer list")
    if not parts or any(p <= 0 for p in parts):
        raise ValueError("orbit parts must be positive")
    if any(parts[k] < parts[k + 1] for k in range(len(parts) - 1)):
        raise ValueError("orbit parts must be weakly decreasing")
    return parts


# ---------------------------------------------------------------------------
# hook slice: `slice` and the hook suite
# ---------------------------------------------------------------------------


def _printed_form(n: int) -> str:
    difference = hook_pipeline(n).f - expected_hook_f(n)
    if not difference.is_zero():
        raise AssertionError(f"difference {difference.to_text()}")
    return ""


def _hook_rows(n: int) -> List[Row]:
    return [
        ("derived-form", None, lambda: _expect(hook_pipeline(n).f == derived_hook_f(n))),
        ("printed-reference-match", f"hook-n{n}-printed-form",
         lambda: _printed_form(n)),
        ("factorization", None,
         lambda: hook_factorization(n) and f"degree split checked at n={n}"),
        (None, f"hook-n{n}-factorization", lambda: hook_factorization(n) and "ok"),
        ("normal-form", f"hook-n{n}-normal-form",
         lambda: f"unit {normalize_to_hook_form(hook_pipeline(n).f, n).unit}"),
    ]


def _hook_suite(args) -> List[Row]:
    return [row for n in (2, 3, 4, 5) for row in _hook_rows(n)]


def cmd_slice(args) -> int:
    if args.algebra != "sp":
        return _fail_input("only the symplectic hook family is implemented")
    n = args.rank
    if n < 2:
        return _fail_input(f"slice needs rank >= 2, got rank = {n}")
    if n > MAX_RANK:
        return _fail_input(f"slice is limited to rank <= {MAX_RANK}, got rank = {n}")
    try:
        orbit = _parse_partition(args.orbit)
    except ValueError as exc:
        return _fail_input(str(exc))
    if orbit != [2 * n - 2, 1, 1]:
        return _fail_input(
            f"expected the hook orbit {[2 * n - 2, 1, 1]} for sp_{2 * n}, got {orbit}"
        )
    inputs = {"algebra": "sp", "rank": n, "orbit": orbit}
    return _report(args, "slice", inputs, _hook_rows(n), lambda: {
        "f": hook_pipeline(n).f,
        "eliminations": dict(hook_pipeline(n).eliminations),
        "vars": list(HOOK_VARS),
        "charpoly": hook_pipeline(n).invariants.charpoly,
    })


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _classify_suite(args) -> List[Row]:
    def star_iff_b2_rank():
        return _expect(all(
            row["star"] == (row["b2"] == n)
            for fam, lo in (("B", 2), ("C", 2), ("D", 3))
            for n in range(lo, 7)
            for row in cls.enumerate_orbits(fam, n)
        ))

    def monotonicity():
        mono = all(
            cls.monotonicity_check(fam, n) >= 0 for fam in "BC" for n in range(2, 7)
        )
        return _expect(mono and cls.monotonicity_check("G", 2) == 3)

    def dominance():
        total = sum(cls.dominance_axioms_check(m)["partitions"] for m in range(1, 17))
        return f"{total} partitions"

    return [
        (None, "classify-exception-sets-n-le-8", lambda: _expect(all(
            cls.exception_set_matches(fam, n) for fam in "BC" for n in range(2, 9)
        ))),
        (None, "classify-star-iff-b2-rank", star_iff_b2_rank),
        (None, "classify-monotonicity", monotonicity),
        (None, "classify-dominance-axioms", dominance),
    ]


def _parse_orbit_label(family: str, rank: int, text: str) -> cls.OrbitLabel:
    if family in ("A", "B", "C", "D"):
        return cls.OrbitLabel(family, rank, partition=tuple(_parse_partition(text)))
    return cls.OrbitLabel(family, rank, descriptor=text)


def cmd_classify(args) -> int:
    family, rank = args.algebra, args.rank
    if args.enumerate:
        try:
            table = cls.enumerate_orbits(family, rank)
        except ValueError as exc:
            return _fail_input(str(exc))
        rows = [("star-iff-b2-equals-rank", None,
                 lambda: _expect(all(r["star"] == (r["b2"] == rank) for r in table)))]
        if family in ("B", "C"):
            rows.append(("exception-set-closed-form", None,
                         lambda: _expect(cls.exception_set_matches(family, rank))))
        inputs = {"algebra": family, "rank": rank, "enumerate": True}
        return _emit(args, "classify", inputs, {"table": table}, _run(rows, SUB))
    if not args.orbit:
        return _fail_input("need --orbit or --enumerate")
    try:
        verdict = cls.classify(_parse_orbit_label(family, rank, args.orbit))
    except ValueError as exc:
        return _fail_input(str(exc))
    results = {
        "b2": verdict.b2,
        "star": verdict.star,
        "subregular_singularity": verdict.subregular_singularity,
        "notes": list(verdict.notes),
    }
    rows = [("star-iff-b2-equals-rank", None,
             lambda: _expect(verdict.star == (verdict.b2 == rank)))]
    inputs = {"algebra": family, "rank": rank, "orbit": args.orbit}
    return _emit(args, "classify", inputs, results, _run(rows, SUB))


# ---------------------------------------------------------------------------
# g2
# ---------------------------------------------------------------------------


def _degree_bound(args) -> int:
    return 8 if args.degree_bound is None else args.degree_bound


def _g2_rows(bound: int) -> List[Row]:
    weights = {v: g2mod.SLICE_DEGREES[v] for v in g2mod.VARS7}

    def chi6():
        return "({}, {})".format(*g2mod.chi6_identity_scan())

    def certificates():
        return g2mod.singular_locus_certificates(bound=bound)

    def form_line():
        g2mod.invariant_form()
        return "1-dimensional"

    def chi2_closed():
        g2mod.slice_invariants()
        return "chi2 = -2(u - 3/4(ac - b^2))"

    def s3_model():
        model = g2mod.s3_invariant_model()
        return ", ".join(f"{k}={v}" for k, v in sorted(model.items()))

    return [
        ("jacobi-identity", "g2-jacobi", lambda: f"{g2mod.jacobi_full()} triples"),
        ("embedding-homomorphism", "g2-embedding",
         lambda: f"{g2mod.embedding_homomorphism_full()} pairs"),
        ("invariant-form-line", None, form_line),
        ("slice-structure", "g2-slice-structure",
         lambda: json.dumps(g2mod.slice_structure_check(), sort_keys=True)),
        ("chi2-closed-form", None, chi2_closed),
        ("chi6-identity-reading", None, lambda: f"reading (t4, t5) -> {chi6()}"),
        (None, "g2-chi6-reading", chi6),
        ("invariant-crosscheck", None,
         lambda: f"generic element, {g2mod.chi_crosscheck()} coordinates"),
        ("hypersurface-equals-printed-f", "g2-hypersurface",
         lambda: _expect(g2mod.g2_hypersurface() == g2mod.example_f())),
        ("quasi-homogeneous-degree-12", "g2-quasi-homogeneous-12",
         lambda: _expect(g2mod.g2_hypersurface().quasi_homogeneous_degree(weights) == 12)),
        ("singular-locus-certificates", None, lambda: "bound {} for 7 partials".format(
            max(c.bound for c in certificates().values()))),
        (None, "g2-singular-locus", lambda: f"{len(certificates())} certificates"),
        ("s3-invariant-model", "g2-s3-model", s3_model),
    ]


def _g2_suite(args) -> List[Row]:
    return _g2_rows(_degree_bound(args))


def cmd_g2(args) -> int:
    bound = _degree_bound(args)
    inputs = {"action": "verify", "degree_bound": bound}
    return _report(args, "g2", inputs, _g2_rows(bound), lambda: {
        "f": g2mod.g2_hypersurface(),
        "relations": g2mod.slice_relations(g2mod.VARS7),
        "chi6_reading": list(g2mod.CHI6_READING),
        "s3_model": g2mod.s3_invariant_model(),
    })


# ---------------------------------------------------------------------------
# f4
# ---------------------------------------------------------------------------


def _f4_rows() -> List[Row]:
    def dims(test):
        return lambda: _expect(test(f4mod.f4_grading().dims))

    return [
        ("48-roots", "f4-48-roots", lambda: _expect(len(f4mod.f4_roots().roots) == 48)),
        ("24-positive", None, lambda: _expect(len(f4mod.f4_roots().positives()) == 24)),
        ("highest-root", None,
         lambda: _expect(f4mod.highest_root(f4mod.f4_roots()) == (2, 3, 4, 2))),
        ("reflection-closure", None,
         lambda: f"{f4mod.reflection_closure_check(f4mod.f4_roots())} pairs"),
        ("grade-0-dim-8", None, dims(lambda d: d[0] == 8)),
        ("grade-2-dim-8", None, dims(lambda d: d[2] == 8)),
        (None, "f4-grading-dims", dims(lambda d: d[0] == 8 and d[2] == 8)),
        ("grade-2-arrows", None, lambda: f4mod.grade2_arrows() and "5+3"),
        ("biweights-match-module", None,
         lambda: _expect(f4mod.biweight_multisets_match())),
        ("invariant-hyperplanes", "f4-hyperplanes", lambda: ", ".join(
            str(h["bidegree"]) for h in f4mod.f4_invariant_hyperplanes())),
        ("orbit-dimension", None,
         lambda: json.dumps(f4mod.orbit_dimension_check(), sort_keys=True)),
    ]


def _f4_betti_rows() -> List[Row]:
    def betti(test):
        return lambda: _expect(test(f4mod.f4_betti_subsubregular()))

    return [
        ("two-invariant-hyperplanes", None, betti(lambda b: len(b["components"]) == 2)),
        ("b2-is-4", None, betti(lambda b: b["b2"] == 4)),
        (None, "f4-betti-2+1+1",
         betti(lambda b: b["b2"] == 4 and b["decomposition"] == "2+1+1")),
    ]


def _f4_suite(args) -> List[Row]:
    return _f4_rows() + _f4_betti_rows()


def cmd_f4(args) -> int:
    inputs = {"action": args.action}
    if args.action == "betti":
        return _report(args, "f4", inputs, _f4_betti_rows(), lambda: {
            "b2": f4mod.f4_betti_subsubregular()["b2"],
            "decomposition": f4mod.f4_betti_subsubregular()["decomposition"],
        })
    return _report(args, "f4", inputs, _f4_rows(), lambda: {
        "dims": {str(k): v for k, v in sorted(f4mod.f4_grading().dims.items())},
        "betti": f4mod.f4_betti_subsubregular()["b2"],
    })


# ---------------------------------------------------------------------------
# dualpair
# ---------------------------------------------------------------------------


def _pf_locus_samples(n: int, samples: int, seed: int) -> str:
    rng = Random(seed)
    du, dv = 2 * n - 2, 2 * n
    for _ in range(samples):
        X = PolyMatrix([[rng.randint(-4, 4) for _ in range(dv)] for _ in range(du)])
        if not dp.pfaffian_locus_check(X):
            raise AssertionError("pfaffian locus violated")
    return f"{samples} samples"


def _moment(n: int) -> str:
    return f"constant {dp.moment_identity_check(n)}"


def _dualpair_rows(n: int, element: Callable[[], dp.KPElement], seed: int) -> List[Row]:
    """Rows of one dualpair report; the first computes the witness, which
    kp_find_element checks, and reports its Jordan types."""
    rows = [
        ("witness-jordan-types", None,
         lambda: f"rho {list(element().rho_type)}, pi {list(element().pi_type)}"),
        ("pfaffian-locus", None, lambda: _pf_locus_samples(n, 25, seed)),
        ("equivariance", None,
         lambda: f"{dp.equivariance_check(n, samples=5, seed=seed)} identities"),
        ("rank-chains", None,
         lambda: f"{dp.rank_chain_check(n, samples=10, seed=seed)} samples"),
    ]
    if n <= 4:
        rows.append(("poisson-commutant", None,
                     lambda: f"{dp.commutant_check(n)['pairs']} bracket pairs"))
    if n <= 3:
        rows.append(("moment-identity", None, lambda: _moment(n)))
    return rows


def _witness(n: int, i: int) -> str:
    element = dp.kp_find_element(n, i)
    return f"rho {list(element.rho_type)} pi {list(element.pi_type)}"


def _dualpair_suite(args) -> Iterable[Row]:
    for n, i in ((3, 3), (4, 3), (4, 1), (5, 5)):
        yield (None, f"dualpair-witness-{n}-{i}", partial(_witness, n, i))
    for n in (3, 4):
        yield (None, f"dualpair-pf-locus-n{n}",
               lambda n=n: _pf_locus_samples(n, 100, args.seed))
    for n in (2, 3, 4):
        yield (None, f"dualpair-commutant-n{n}",
               lambda n=n: f"{dp.commutant_check(n)['pairs']} pairs")
    yield (None, "dualpair-moment-identity", lambda: _moment(3))


def cmd_dualpair(args) -> int:
    n, i = args.n, args.i
    if n > dp.MAX_N:
        return _fail_input(f"dualpair is limited to n <= {dp.MAX_N}, got n = {n}")
    inputs = {"n": n, "i": i, "seed": args.seed}
    try:
        dp.kp_validate(n, i)
    except ValueError as exc:
        return _fail_input(str(exc))
    element = lru_cache(maxsize=1)(partial(dp.kp_find_element, n, i))

    def results() -> Dict:
        e = element()
        return {"X0": e.X, "rho_type": list(e.rho_type), "pi_type": list(e.pi_type),
                "moment_constant": dp.MOMENT_CONSTANT}

    return _report(args, "dualpair", inputs, _dualpair_rows(n, element, args.seed), results)


# ---------------------------------------------------------------------------
# kernel suite
# ---------------------------------------------------------------------------


ROUNDTRIP_VARS = ("x", "y", "z")
MALFORMED_TEXTS = (
    "()", "x y", "2 3", "1/0*x", "(1 2)*x", "(sqrt3)*x", "x +", "w", "+x", "x + - y",
)


def roundtrip_polys() -> List[MPoly]:
    """The polynomials kernel-serialization-roundtrip writes and reads back:
    every branch of the coefficient text (units, signs of the leading and
    of a later term, rationals, +-sqrt2, q*sqrt2, a +- b*sqrt2 of either
    sign) on constants, a variable, a power and a product."""
    vars = ROUNDTRIP_VARS
    half, third = Fraction(1, 2), Fraction(1, 3)
    coefs = [Scalar(a, b) for a, b in (
        (1, 0), (-1, 0), (2, 0), (-3, 0), (half, 0), (Fraction(-5, 3), 0),
        (0, 1), (0, -1), (0, Fraction(3, 2)), (0, -2), (1, 1), (2, -1),
        (1, -1), (-half, 3), (3, -2), (-1, -third),
    )]
    monos = ((0, 0, 0), (1, 0, 0), (0, 2, 0), (1, 1, 3))
    polys = [MPoly.zero(vars)]
    polys += [MPoly.monomial(vars, e, c) for e in monos for c in coefs]
    polys += [
        MPoly(vars, {lead: c1, later: c2})
        for lead, later in ((monos[3], monos[2]), (monos[1], monos[0]))
        for c1 in coefs
        for c2 in coefs
    ]
    return polys


def _kernel_suite(args) -> List[Row]:
    rng = Random(args.seed)

    def pf_squares():
        for dim in (2, 4, 6, 8):
            for _ in range(5):
                rows = [[0] * dim for _ in range(dim)]
                for r in range(dim):
                    for c in range(r + 1, dim):
                        v = rng.randint(-5, 5)
                        rows[r][c] = v
                        rows[c][r] = -v
                m = PolyMatrix(rows)
                if pfaffian(m) * pfaffian(m) != determinant(m):
                    raise AssertionError(f"pf^2 != det at dim {dim}")
        return "dims 2..8, 5 samples each"

    def charpoly_vs_cofactor():
        vars = ("t",)
        t = MPoly.variable("t", vars)
        for dim in (1, 2, 3, 4):
            for _ in range(5):
                m = PolyMatrix(
                    [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(dim)]
                )
                poly = MPoly.zero(vars)
                for k, c in enumerate(charpoly_coefficients(m)):
                    poly = poly + c * t ** (dim - k)
                shifted = PolyMatrix([
                    [t * (1 if r == c else 0) - m.entry(r, c) for c in range(dim)]
                    for r in range(dim)
                ])
                if poly != det_cofactor(shifted):
                    raise AssertionError(f"charpoly mismatch at dim {dim}")
        return "dims 1..4, 5 samples each"

    def roundtrip():
        polys = roundtrip_polys()
        for p in polys:
            if MPoly.from_text(p.to_text(), ROUNDTRIP_VARS) != p:
                raise AssertionError(f"text roundtrip fails for {p}")
            if MPoly.from_json(p.to_json()) != p:
                raise AssertionError(f"json roundtrip fails for {p}")
        for text in MALFORMED_TEXTS:
            try:
                MPoly.from_text(text, ROUNDTRIP_VARS)
            except ValueError:
                continue
            raise AssertionError(f"malformed text {text!r} parses")
        return f"{len(polys)} polynomials, {len(MALFORMED_TEXTS)} malformed texts rejected"

    return [
        (None, "kernel-pfaffian-squares-to-det", pf_squares),
        (None, "kernel-charpoly-vs-cofactor", charpoly_vs_cofactor),
        (None, "kernel-serialization-roundtrip", roundtrip),
    ]


# ---------------------------------------------------------------------------
# check (all suites)
# ---------------------------------------------------------------------------

# suite name -> the rows it runs for the parsed arguments; `check` runs the
# suites in name order and each suite's rows in table order
SUITES = {
    "classify": _classify_suite,
    "dualpair": _dualpair_suite,
    "f4": _f4_suite,
    "g2": _g2_suite,
    "hook": _hook_suite,
    "kernel": _kernel_suite,
}


def cmd_check(args) -> int:
    checks: List[Dict] = []
    for name in sorted(SUITES):
        checks.extend(_run(SUITES[name](args), CHECK))
    failures = [c for c in checks if c["status"] != "pass"]
    results = {
        "suites": sorted(SUITES),
        "total": len(checks),
        "failures": len(failures),
        "first_failure": failures[0]["name"] if failures else None,
    }
    inputs = {"seed": args.seed, "degree_bound": args.degree_bound}
    return _emit(args, "check", inputs, results, checks)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_REQUIRED_INT = {"type": int, "required": True}

# (subcommand, help, handler, its arguments after the three common ones)
COMMANDS = (
    ("slice", "hook slice hypersurface derivation", cmd_slice, (
        ("--algebra", {"required": True}), ("--rank", _REQUIRED_INT),
        ("--orbit", {"required": True}),
    )),
    ("classify", "second Betti numbers by orbit", cmd_classify, (
        ("--algebra", {"required": True, "choices": tuple("ABCDEFG")}),
        ("--rank", _REQUIRED_INT), ("--orbit", {}),
        ("--enumerate", {"action": "store_true"}),
    )),
    ("g2", "rank-2 exceptional algebra suite", cmd_g2,
     (("action", {"choices": ("verify",)}),)),
    ("f4", "rank-4 exceptional algebra suite", cmd_f4,
     (("action", {"choices": ("betti", "verify")}),)),
    ("dualpair", "orthogonal-symplectic moment maps", cmd_dualpair,
     (("--n", _REQUIRED_INT), ("--i", _REQUIRED_INT))),
    ("check", "run every verification suite", cmd_check, ()),
)


def _add_common(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # The same three options live on the main parser (with real defaults)
    # and on every subparser (defaulting to SUPPRESS so they refine rather
    # than clobber); both `--emit json slice ...` and `slice ... --emit
    # json` work.
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument(
        "--emit", choices=("text", "json"), **(kw or {"default": "text"})
    )
    parser.add_argument("--seed", type=int, **(kw or {"default": 0}))
    parser.add_argument("--degree-bound", type=int, **(kw or {"default": None}))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactlie",
        description="exact computations around nilpotent slices",
    )
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, fn, arguments in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        _add_common(p, suppress=True)
        for flag, kw in arguments:
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    if args.degree_bound is not None and args.degree_bound < 0:
        return _fail_input(f"--degree-bound must be >= 0, got {args.degree_bound}")
    try:
        return args.fn(args)
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
