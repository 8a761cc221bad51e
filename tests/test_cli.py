"""End-to-end checks of the command line frontend.

main() is called in-process with an argv list; stdout is inspected via
capsys.  Exit code conventions: 0 all checks pass, 1 an identity check
failed, 2 invalid input, 3 an internal error.
"""

import hashlib
import json

import pytest

from exactlie import cli, f4, g2, slicegeom
from exactlie import dualpair as dp
from exactlie.cli import SUITES, build_parser, main
from exactlie.polymat import PolyMatrix
from exactlie.slicegeom import MAX_RANK


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, _ = run(capsys, ["--emit", "json"] + argv)
    return code, json.loads(out)


def test_slice_rank_2_passes(capsys):
    code, out, _ = run(capsys, ["slice", "--algebra", "sp", "--rank", "2", "--orbit", "2,1,1"])
    assert code == 0
    assert "check printed-reference-match: pass" in out


def test_slice_rank_4_coefficient_120(capsys):
    code, report = run_json(
        capsys, ["slice", "--algebra", "sp", "--rank", "4", "--orbit", "6,1,1"]
    )
    assert code == 0
    assert "120*a^2*x" in report["results"]["f"]
    assert report["exit_code"] == 0


def test_slice_rank_3_reports_sign_mismatch(capsys):
    # the derivation and the fixed-minus reference disagree at odd n;
    # the difference polynomial must be surfaced, not hidden
    code, report = run_json(
        capsys, ["slice", "--algebra", "sp", "--rank", "3", "--orbit", "4,1,1"]
    )
    assert code == 1
    failing = [c for c in report["checks"] if c["status"] == "fail"]
    assert len(failing) == 1
    assert failing[0]["name"] == "printed-reference-match"
    assert "difference" in failing[0]["detail"]
    assert "y^6" in failing[0]["detail"]


def test_slice_malformed_orbit(capsys):
    code, out, err = run(capsys, ["slice", "--algebra", "sp", "--rank", "3", "--orbit", "1,6,1"])
    assert code == 2
    assert "weakly decreasing" in err


def test_slice_wrong_orbit_for_rank(capsys):
    code, _, err = run(capsys, ["slice", "--algebra", "sp", "--rank", "3", "--orbit", "2,1,1"])
    assert code == 2
    assert "hook orbit" in err


@pytest.mark.parametrize("rank", [-1, 0, 1])
def test_slice_rank_below_two_rejected(capsys, rank):
    argv = ["slice", "--algebra", "sp", "--rank", str(rank), "--orbit", "4,1,1"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: slice needs rank >= 2, got rank = {rank}\n"


def test_slice_rank_above_the_limit_rejected(capsys):
    assert MAX_RANK == 20
    code, out, err = run(capsys, ["slice", "--algebra", "sp", "--rank", "21", "--orbit", "40,1,1"])
    assert (code, out) == (2, "")
    assert err == "error: slice is limited to rank <= 20, got rank = 21\n"


def test_classify_enumerate_c4(capsys):
    code, report = run_json(capsys, ["classify", "--algebra", "C", "--rank", "4", "--enumerate"])
    assert code == 0
    rows = report["results"]["table"]
    row = next(r for r in rows if r["partition"] == [4, 4])
    assert row["b2"] == 5
    assert row["star"] is False


def test_classify_enumerate_rank_above_the_limit_rejected(capsys):
    code, out, err = run(capsys, ["classify", "--algebra", "C", "--rank", "40", "--enumerate"])
    assert code == 2
    assert out == ""
    assert err == "error: enumeration is limited to rank <= 20, got C40\n"


def test_classify_single_orbit(capsys):
    code, report = run_json(
        capsys, ["classify", "--algebra", "B", "--rank", "3", "--orbit", "5,1,1"]
    )
    assert code == 0
    assert report["results"]["b2"] == 5
    assert report["results"]["star"] is False
    assert report["results"]["subregular_singularity"] == "A5"


def test_classify_regular_rejected(capsys):
    code, _, err = run(capsys, ["classify", "--algebra", "C", "--rank", "4", "--orbit", "8"])
    assert code == 2
    assert "regular" in err


def test_classify_g2_dims(capsys):
    code, report = run_json(
        capsys, ["classify", "--algebra", "G", "--rank", "2", "--orbit", "dim:8"]
    )
    assert code == 0
    assert report["results"]["b2"] == 3


@pytest.mark.parametrize("label", ["dim:abc", "dim:", "dims:8"])
def test_classify_g2_malformed_label(capsys, label):
    # the label's grammar is reported, not the integer parser's message
    code, out, err = run(capsys, ["classify", "--algebra", "G", "--rank", "2", "--orbit", label])
    assert code == 2
    assert out == ""
    assert err == "error: G2 orbits are labelled dim:<k>\n"


def test_f4_betti_json(capsys):
    code, report = run_json(capsys, ["f4", "betti"])
    assert code == 0
    assert report["results"] == {"b2": 4, "decomposition": "2+1+1"}


def test_f4_verify(capsys):
    code, report = run_json(capsys, ["f4", "verify"])
    assert code == 0
    assert report["results"]["dims"]["0"] == 8
    assert report["results"]["dims"]["2"] == 8


def run_json_digest(capsys, argv):
    """run_json, plus the sha256 of the JSON stdout as printed."""
    code, out, _ = run(capsys, ["--emit", "json"] + argv)
    return code, json.loads(out), hashlib.sha256(out.encode()).hexdigest()


G2_VERIFY = [
    "jacobi-identity",
    "embedding-homomorphism",
    "invariant-form-line",
    "slice-structure",
    "chi2-closed-form",
    "chi6-identity-reading",
    "invariant-crosscheck",
    "hypersurface-equals-printed-f",
    "quasi-homogeneous-degree-12",
    "singular-locus-certificates",
    "s3-invariant-model",
]


def test_g2_verify(capsys):
    code, report, digest = run_json_digest(capsys, ["g2", "verify"])
    # the s3_model values are Fractions, so JSON strings; any change to
    # the report's bytes shows here
    assert digest == "b2ac2fd0469830f2e450f8c9a91d078d44f0ee5fdcb7121e6e40851ae38d83b2"
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert "jacobi-identity" in names
    assert "chi6-identity-reading" in names
    assert all(c["status"] == "pass" for c in report["checks"])
    assert names == G2_VERIFY


def test_dualpair_witness_types(capsys):
    code, report = run_json(capsys, ["dualpair", "--n", "3", "--i", "3"])
    assert code == 0
    assert report["results"]["rho_type"] == [3, 3]
    assert report["results"]["pi_type"] == [2, 2]
    assert report["results"]["moment_constant"] == "1"


def test_dualpair_n_above_the_limit_rejected(capsys):
    assert dp.MAX_N == 8
    code, out, err = run(capsys, ["dualpair", "--n", "9", "--i", "1"])
    assert code == 2
    assert out == ""
    assert err == "error: dualpair is limited to n <= 8, got n = 9\n"


def test_dualpair_invalid_i(capsys):
    code, _, err = run(capsys, ["dualpair", "--n", "4", "--i", "2"])
    assert code == 2
    assert "odd" in err


# (n, i) in {0, 1, 2, 4, 9} x {0, 1, 2, 3, 5} but for the four valid pairs
# (2, 1), (2, 2), (4, 1) and (4, 3)
DUALPAIR_INVALID = [
    (n, i) for n in (0, 1, 2, 4, 9) for i in (0, 1, 2, 3, 5)
    if (n, i) not in {(2, 1), (2, 2), (4, 1), (4, 3)}
]


@pytest.mark.parametrize("n,i", DUALPAIR_INVALID)
def test_dualpair_input_errors_are_pinned(capsys, n, i):
    # the n bound first, then kp_find_element's own checks on n and i,
    # each reported in its words
    if n > dp.MAX_N:
        want = f"dualpair is limited to n <= 8, got n = {n}"
    elif n < 2:
        want = "need n >= 2"
    else:
        want = "need 1 <= i <= n with i odd or i = n"
    code, out, err = run(capsys, ["dualpair", "--n", str(n), "--i", str(i)])
    assert (code, out, err) == (2, "", f"error: {want}\n")


def test_json_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, ["--emit", "json", "dualpair", "--n", "3", "--i", "1"])
    _, out2, _ = run(capsys, ["--emit", "json", "dualpair", "--n", "3", "--i", "1"])
    assert out1 == out2
    _, out3, _ = run(capsys, ["--emit", "json", "--seed", "0", "classify", "--algebra", "D", "--rank", "4", "--enumerate"])
    _, out4, _ = run(capsys, ["classify", "--algebra", "D", "--rank", "4", "--enumerate", "--emit", "json"])
    assert out3 == out4


def test_global_flags_both_positions(capsys):
    code1, r1 = run_json(capsys, ["f4", "betti"])
    code2, out2, _ = run(capsys, ["f4", "betti", "--emit", "json"])
    assert code1 == code2 == 0
    assert r1 == json.loads(out2)


CHECK_NAMES = [
    "classify-exception-sets-n-le-8",
    "classify-star-iff-b2-rank",
    "classify-monotonicity",
    "classify-dominance-axioms",
    "dualpair-witness-3-3",
    "dualpair-witness-4-3",
    "dualpair-witness-4-1",
    "dualpair-witness-5-5",
    "dualpair-pf-locus-n3",
    "dualpair-pf-locus-n4",
    "dualpair-commutant-n2",
    "dualpair-commutant-n3",
    "dualpair-commutant-n4",
    "dualpair-moment-identity",
    "f4-48-roots",
    "f4-grading-dims",
    "f4-hyperplanes",
    "f4-betti-2+1+1",
    "g2-jacobi",
    "g2-embedding",
    "g2-slice-structure",
    "g2-chi6-reading",
    "g2-hypersurface",
    "g2-quasi-homogeneous-12",
    "g2-singular-locus",
    "g2-s3-model",
    "hook-n2-printed-form",
    "hook-n2-factorization",
    "hook-n2-normal-form",
    "hook-n3-printed-form",
    "hook-n3-factorization",
    "hook-n3-normal-form",
    "hook-n4-printed-form",
    "hook-n4-factorization",
    "hook-n4-normal-form",
    "hook-n5-printed-form",
    "hook-n5-factorization",
    "hook-n5-normal-form",
    "kernel-pfaffian-squares-to-det",
    "kernel-charpoly-vs-cofactor",
    "kernel-serialization-roundtrip",
]


def test_check_aggregates_all_suites(capsys):
    code, report, digest = run_json_digest(capsys, ["check"])
    assert digest == "4e895272efc100e9fd01a6bd693ac4abbc1afcd346d6fdc9def1898670527451"
    # two known failures: the odd-n sign of the hook reference form
    assert code == 1
    fails = [c["name"] for c in report["checks"] if c["status"] == "fail"]
    assert fails == ["hook-n3-printed-form", "hook-n5-printed-form"]
    assert report["results"]["first_failure"] == "hook-n3-printed-form"
    assert report["results"]["suites"] == [
        "classify",
        "dualpair",
        "f4",
        "g2",
        "hook",
        "kernel",
    ]
    detail = next(c for c in report["checks"] if c["name"] == "hook-n3-printed-form")
    assert "difference" in detail["detail"]
    assert [c["name"] for c in report["checks"]] == CHECK_NAMES
    assert report["results"]["total"] == 41


SLICE = ["derived-form", "printed-reference-match", "factorization", "normal-form"]
F4_VERIFY = [
    "48-roots",
    "24-positive",
    "highest-root",
    "reflection-closure",
    "grade-0-dim-8",
    "grade-2-dim-8",
    "grade-2-arrows",
    "biweights-match-module",
    "invariant-hyperplanes",
    "orbit-dimension",
]
DUALPAIR = ["witness-jordan-types", "pfaffian-locus", "equivariance", "rank-chains"]


def passing(names):
    return [(name, "pass") for name in names]


# sha256 of each pinned case's canonical JSON stdout, keyed by its argv, so
# that any change to the report's bytes shows here
REPORT_DIGESTS = {
    "slice --algebra sp --rank 2 --orbit 2,1,1":
        "7153292e1f75d24abf4dc807f73fc02d3a80c402ddac4630205d9ef7e84f582e",
    "slice --algebra sp --rank 3 --orbit 4,1,1":
        "991417f660d9d8068dcbbd61d1aef1f43050aa6fa536cda99a3459e2ee64dff0",
    "slice --algebra sp --rank 6 --orbit 10,1,1":
        "2358ea3b565d05cd3165093bb04e02cc4bc1b190ac1ee7bd0f1528b72daf9c29",
    "classify --algebra C --rank 4 --enumerate":
        "89e0fb242151bad7bb4ac62882481b5897b041d4f7002419c237bd642742f63e",
    "classify --algebra G --rank 2 --enumerate":
        "84543f5b9121fa8cf6b7910d63eb443485e17b49905a1341ed7b677db5352923",
    "classify --algebra F --rank 4 --enumerate":
        "db2aa7dbe85a06c3c3840b720a629254d26174449fef775564952bdf57390248",
    "classify --algebra E --rank 7 --enumerate":
        "33026ed363ff1cc13153d5c4aac29daea8aa4dd82c93b0a11e47a5da5a7b2f0a",
    "classify --algebra B --rank 3 --orbit 5,1,1":
        "39618528f385ed348919b503c0f5809e79bf9ec11f13017c4dfcb363a3c81dd1",
    "f4 betti":
        "e3a887168d209ccb42a04963cbb54eb24caa3a4a158e58749cb2ef91bd2b95cf",
    "f4 verify":
        "99b33a8618d2d337d3e7eac80df12f802b2677d2b332debdae26bdba5f6325ed",
    "dualpair --n 3 --i 3":
        "7a32854a6a7aa8d50957a7a59a4eb1297f5c92808e31977dec59ca57e205ad6f",
    "dualpair --n 5 --i 5":
        "e4c0532f3d845c45ac10cc0b9abf21e5969a453120b1f62d2c138ad644f70dea",
    "dualpair --n 4 --i 1":
        "82adde08b2848e6d80922649fb377e706a8c8d9fff556c70ddacc715e2766bc8",
    "dualpair --n 4 --i 4":
        "2b5cc5073ffb5b39188f389129abfd0b7d657453c91fb94c47f01febf24ca450",
    "dualpair --n 2 --i 2":
        "4c3fe93a269f2cd96690f260213133eb707cf216089c3a1dec377604f2164c5c",
}


@pytest.mark.parametrize(
    "argv, exit_code, checks",
    [
        (
            ["slice", "--algebra", "sp", "--rank", "2", "--orbit", "2,1,1"],
            0,
            passing(SLICE),
        ),
        (
            ["slice", "--algebra", "sp", "--rank", "3", "--orbit", "4,1,1"],
            1,
            [
                ("derived-form", "pass"),
                ("printed-reference-match", "fail"),
                ("factorization", "pass"),
                ("normal-form", "pass"),
            ],
        ),
        # n = 6: an sp(12) basis, the largest pinned
        (
            ["slice", "--algebra", "sp", "--rank", "6", "--orbit", "10,1,1"],
            0,
            passing(SLICE),
        ),
        (
            ["classify", "--algebra", "C", "--rank", "4", "--enumerate"],
            0,
            passing(["star-iff-b2-equals-rank", "exception-set-closed-form"]),
        ),
        # the families labelled by descriptor instead of partition
        (
            ["classify", "--algebra", "G", "--rank", "2", "--enumerate"],
            0,
            passing(["star-iff-b2-equals-rank"]),
        ),
        (
            ["classify", "--algebra", "F", "--rank", "4", "--enumerate"],
            0,
            passing(["star-iff-b2-equals-rank"]),
        ),
        (
            ["classify", "--algebra", "E", "--rank", "7", "--enumerate"],
            0,
            passing(["star-iff-b2-equals-rank"]),
        ),
        (
            ["classify", "--algebra", "B", "--rank", "3", "--orbit", "5,1,1"],
            0,
            passing(["star-iff-b2-equals-rank"]),
        ),
        (["f4", "betti"], 0, passing(["two-invariant-hyperplanes", "b2-is-4"])),
        (["f4", "verify"], 0, passing(F4_VERIFY)),
        (
            ["dualpair", "--n", "3", "--i", "3"],
            0,
            passing(DUALPAIR + ["poisson-commutant", "moment-identity"]),
        ),
        # n = 5: the commutant (n <= 4) and moment (n <= 3) rows drop out
        (["dualpair", "--n", "5", "--i", "5"], 0, passing(DUALPAIR)),
        # i = 1 (pi has one block) and even i = n; n = 4 keeps the commutant row
        (["dualpair", "--n", "4", "--i", "1"], 0, passing(DUALPAIR + ["poisson-commutant"])),
        (["dualpair", "--n", "4", "--i", "4"], 0, passing(DUALPAIR + ["poisson-commutant"])),
        # n = 2: sp(2), where the equivariance generator's (0, 1) is its own
        # partner
        (
            ["dualpair", "--n", "2", "--i", "2"],
            0,
            passing(DUALPAIR + ["poisson-commutant", "moment-identity"]),
        ),
    ],
)
def test_report_check_lists_are_pinned(capsys, argv, exit_code, checks):
    code, out, _ = run(capsys, ["--emit", "json"] + argv)
    report = json.loads(out)
    assert code == report["exit_code"] == exit_code
    assert [(c["name"], c["status"]) for c in report["checks"]] == checks
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS[" ".join(argv)]


def test_internal_error_in_a_check_is_recorded_and_exits_3(capsys, monkeypatch):
    def broken(system):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr("exactlie.f4.reflection_closure_check", broken)
    code, report = run_json(capsys, ["f4", "verify"])
    assert code == report["exit_code"] == 3
    by_name = {c["name"]: c for c in report["checks"]}
    assert [c["name"] for c in report["checks"]] == F4_VERIFY
    assert by_name["reflection-closure"]["status"] == "error"
    detail = by_name["reflection-closure"]["detail"]
    assert detail == "ZeroDivisionError: division by zero"
    others = [c for c in report["checks"] if c["name"] != "reflection-closure"]
    assert len(others) == 9
    assert all(c["status"] == "pass" for c in others)


def test_internal_error_outside_checks_exits_3(capsys, monkeypatch):
    def broken():
        raise RuntimeError("table lost")

    monkeypatch.setattr("exactlie.f4.f4_betti_subsubregular", broken)
    code, out, err = run(capsys, ["f4", "betti"])
    assert code == 3
    assert out == ""
    assert err == "error: internal: RuntimeError: table lost\n"


# the cached pipelines; a test that perturbs what they compute must empty
# them, or it reads a result another test has left behind
CACHED = (
    g2.g2_hypersurface, g2.slice_invariants, f4.f4_roots, slicegeom.hook_pipeline,
)


@pytest.fixture
def fresh_pipelines():
    for cached in CACHED:
        cached.cache_clear()
    yield
    for cached in CACHED:
        cached.cache_clear()


def off_by_one_example_f(monkeypatch):
    printed = g2.example_f
    monkeypatch.setattr(g2, "example_f", lambda vars=g2.VARS7: printed(vars) + 1)


def test_a_failed_pipeline_identity_fails_its_checks(capsys, monkeypatch, fresh_pipelines):
    # g2_hypersurface asserts its result against example_f; the checks
    # that read the hypersurface fail, and every other check still runs
    off_by_one_example_f(monkeypatch)
    code, report = run_json(capsys, ["check"])
    assert code == report["exit_code"] == 1
    assert [c["name"] for c in report["checks"]] == CHECK_NAMES
    fails = [c["name"] for c in report["checks"] if c["status"] == "fail"]
    assert fails == [
        "g2-hypersurface", "g2-quasi-homogeneous-12", "g2-singular-locus",
        "hook-n3-printed-form", "hook-n5-printed-form",
    ]
    assert all(c["status"] in ("pass", "fail") for c in report["checks"])
    by_name = {c["name"]: c for c in report["checks"]}
    detail = "slice hypersurface differs from the quotient model"
    assert by_name["g2-hypersurface"]["detail"] == detail


def test_g2_verify_reports_a_failed_pipeline_identity(capsys, monkeypatch, fresh_pipelines):
    off_by_one_example_f(monkeypatch)
    code, out, err = run(capsys, ["g2", "verify"])
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[:3] == ["command: g2", "input action: verify", "input degree_bound: 8"]
    assert not any(line.startswith("result ") for line in lines)
    assert [line.split(":")[0][len("check "):] for line in lines[3:-1]] == G2_VERIFY
    failed = [line for line in lines if ": fail" in line]
    assert failed == [
        "check hypersurface-equals-printed-f: fail"
        " (slice hypersurface differs from the quotient model)",
        "check quasi-homogeneous-degree-12: fail"
        " (slice hypersurface differs from the quotient model)",
        "check singular-locus-certificates: fail"
        " (slice hypersurface differs from the quotient model)",
    ]
    assert lines[-1] == "exit: 1"


def test_f4_verify_reports_a_failed_grading(capsys, monkeypatch, fresh_pipelines):
    monkeypatch.setattr(f4, "GRADE2_DIAGRAM", f4.GRADE2_DIAGRAM[1:])
    code, report = run_json(capsys, ["f4", "verify"])
    assert code == report["exit_code"] == 1
    assert report["results"] == {}
    assert [c["name"] for c in report["checks"]] == F4_VERIFY
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert status["grade-0-dim-8"] == status["orbit-dimension"] == "fail"
    assert status["48-roots"] == status["reflection-closure"] == "pass"


def test_dualpair_reports_a_wrong_witness_in_its_row(capsys, monkeypatch):
    # a rank-deficient witness fails its own row, the other rows still
    # run, and the results stay empty; input validation comes first
    monkeypatch.setattr(dp, "_witness", lambda n, i: PolyMatrix.zeros(2 * n - 2, 2 * n))
    code, report = run_json(capsys, ["dualpair", "--n", "3", "--i", "3"])
    assert code == report["exit_code"] == 1
    assert report["results"] == {}
    checks = [(c["name"], c["status"], c["detail"]) for c in report["checks"]]
    assert checks[0] == ("witness-jordan-types", "fail", "witness is not surjective")
    assert [c[:2] for c in checks[1:]] == passing(
        DUALPAIR[1:] + ["poisson-commutant", "moment-identity"]
    )
    code, _, err = run(capsys, ["dualpair", "--n", "4", "--i", "2"])
    assert (code, err) == (2, "error: need 1 <= i <= n with i odd or i = n\n")


def test_suites_build_their_rows_without_running_a_pipeline(monkeypatch):
    # every pipeline runs inside a verifier, where a failure is a record
    def refuse(*args):
        raise RuntimeError("a pipeline ran before its check")

    producers = (
        (slicegeom, "hook_pipeline"), (cli, "hook_pipeline"), (g2, "g2_hypersurface"),
        (f4, "f4_roots"), (f4, "f4_grading"), (f4, "f4_betti_subsubregular"),
    )
    for owner, name in producers:
        monkeypatch.setattr(owner, name, refuse)
    args = build_parser().parse_args(["check"])
    for name, suite in SUITES.items():
        assert list(suite(args)), name


def test_degree_bound_zero_is_used_not_replaced(capsys, monkeypatch):
    # the Jacobi sweep is stubbed; the certificates run for real
    monkeypatch.setattr("exactlie.g2.jacobi_full", lambda: 2744)
    code, report = run_json(capsys, ["g2", "verify", "--degree-bound", "0"])
    assert code == 0
    assert report["inputs"]["degree_bound"] == 0
    by_name = {c["name"]: c for c in report["checks"]}
    # nothing is found at bound 0, so every certificate comes from the retry
    detail = by_name["singular-locus-certificates"]["detail"]
    assert detail == "bound 12 for 7 partials"


def test_huge_degree_bound_costs_no_more_than_the_default(capsys):
    # the certificate ansatz is graded: each cofactor has exactly the
    # weighted degree that its target and generator leave, so a bound past
    # that degree adds no column and the option needs no upper limit
    _, default = run_json(capsys, ["g2", "verify"])
    code, report = run_json(capsys, ["g2", "verify", "--degree-bound", str(10**18)])
    assert code == 0
    assert report["inputs"]["degree_bound"] == 10**18

    def statuses(r):
        return [(c["name"], c["status"]) for c in r["checks"]]

    assert statuses(report) == statuses(default)
    assert all(status == "pass" for _, status in statuses(report))


def test_negative_degree_bound_rejected(capsys):
    code, out, err = run(capsys, ["g2", "verify", "--degree-bound", "-1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "--degree-bound" in err
    code, _, err = run(capsys, ["--degree-bound", "-3", "check"])
    assert code == 2
    assert "--degree-bound" in err
