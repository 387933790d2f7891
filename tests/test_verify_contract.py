"""The verify report contract: the exact bytes of a passing run, and what
a failing run prints when one kernel is broken on purpose."""

from pathlib import Path

import pytest

from tring import cli, mtilde, rt0, superops, verify

GOLDEN = Path(__file__).parent / "golden" / "verify_all_small.json"
SMALL_BOUNDS = ("--max-degree", "2", "--max-n", "3", "--max-arity", "2", "--dim", "2")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def fail_lines(out: str) -> list[str]:
    return [line for line in out.splitlines() if line.startswith("FAIL")]


def test_verify_all_small_bounds_golden(capsys):
    code, out = run_cli(capsys, "verify", "all", "--json", *SMALL_BOUNDS)
    assert code == 0
    assert out == GOLDEN.read_text()


def test_broken_odot_fails_odot_suite(capsys, monkeypatch):
    odot = rt0.odot
    monkeypatch.setattr(rt0, "odot", lambda x, y: odot(y, x))
    code, out = run_cli(capsys, "verify", "odot", "--max-degree", "2", "--max-n", "3")
    assert code == 1
    assert fail_lines(out) == [
        "FAIL left_t0_linearity a<=3, monomial degrees<=3  [a=1 x=1 y=1]",
        "FAIL degree_raising all pairs, total degree<=2  [x=1 y=t0]",
        "FAIL concatenation_consistency 20 seeded pairs, t0-free right factor"
        "  [f=t0^2 g=t1^2*t2^2]",
        "FAIL unit_insertion_leading_term 63 monomials, degree<=5  [t0]",
    ]
    assert out.endswith("suite=odot passed=2 failed=4 total=6 seed=0\n")


def test_unsigned_compose_fails_super_suite(capsys, monkeypatch):
    def unsigned(space, v, w, j):
        factor = space.pairing[v[j]][w[0]]
        return (factor, v[:j] + w[1:] + v[j + 1 :]) if factor else None

    monkeypatch.setattr(superops, "_compose_raw", unsigned)
    code, out = run_cli(capsys, "verify", "super", "--dim", "2", "--max-arity", "2")
    assert code == 1
    assert fail_lines(out) == [
        "FAIL axiom1 mixed dim=2 arity<=2 checked=360  [m=2 n=2 j=1 pi=(0, 2, 1)"
        " rho=(0, 1, 2) v=(0, 0, 0) w=(1, 0, 0)]",
        "FAIL axiom2 mixed dim=2 arity<=2 checked=72  [m=2 n=2 v=(0, 0, 0) w=(1, 0, 0)]",
        "FAIL axiom3 mixed dim=2 arity<=2 checked=288  [k=2 l=2 m=2 i=1 j=2"
        " a=(0, 0, 0) b=(1, 0, 0) c=(1, 0, 0)]",
    ]
    assert out.endswith("suite=super passed=9 failed=3 total=12 seed=0\n")


def test_vanishing_contraction_fails_super_suite(capsys, monkeypatch):
    # a composition that cannot be formed fails its case; it is neither an
    # internal crash nor equal to another one that cannot be formed
    compose_raw = superops._compose_raw

    def vanishing(space, v, w, j):
        return None if len(v) + len(w) - 2 >= 4 else compose_raw(space, v, w, j)

    monkeypatch.setattr(superops, "_compose_raw", vanishing)
    code, out = run_cli(capsys, "verify", "super", "--dim", "2", "--max-arity", "2")
    assert code == 1
    assert [line for line in fail_lines(out) if "mixed dim=2" in line] == [
        "FAIL axiom1 mixed dim=2 arity<=2 checked=360  [m=2 n=2 j=1 pi=(0, 1, 2)"
        " rho=(0, 1, 2) v=(0, 0, 0) w=(1, 0, 0)]",
        "FAIL axiom2 mixed dim=2 arity<=2 checked=72  [m=2 n=2 v=(0, 0, 0) w=(1, 0, 0)]",
        "FAIL axiom3 mixed dim=2 arity<=2 checked=288  [k=2 l=1 m=2 i=1 j=2"
        " a=(0, 0, 0) b=(1, 0) c=(1, 0, 0)]",
        "FAIL axiom4 mixed dim=2 arity<=2 checked=1200  [k=1 l=2 m=2 i=1 j=1"
        " a=(0, 0) b=(1, 0, 0) c=(1, 0, 0)]",
    ]
    assert out.endswith("suite=super passed=0 failed=12 total=12 seed=0\n")


def test_negated_compose_fails_vowa_suite(capsys, monkeypatch):
    # a failing report still counts the whole case set, and names the
    # smallest failing pairing of the first failing block
    compose_raw = superops._compose_raw

    def negated(space, v, w, j):
        out = compose_raw(space, v, w, j)
        if out is None or len(out[1]) < 4:
            return out
        return -out[0], out[1]

    monkeypatch.setattr(superops, "_compose_raw", negated)
    code, out = run_cli(capsys, "verify", "vowa", "--dim", "2")
    assert code == 1
    assert fail_lines(out) == [
        "FAIL pairing_exchange mixed dim=1 arity<=3 checked=18  [m=1 n=3 j=1"
        " v=(0, 0) w=(0, 0, 0, 0) alpha=(0, 0, 0, 0)]",
        "FAIL pairing_exchange mixed dim=2 arity<=3 checked=53312  [m=1 n=3 j=1"
        " v=(0, 0) w=(1, 0, 0, 0) alpha=(1, 1, 1, 1)]",
        "FAIL pairing_exchange even dim=2 arity<=2 checked=2880  [m=2 n=2 j=1"
        " v=(0, 0, 0) w=(0, 0, 0) alpha=(0, 0, 0, 0)]",
    ]
    assert out.endswith("suite=vowa passed=0 failed=3 total=3 seed=0\n")


def test_doubled_slot_insertion_fails_mtilde_suites(capsys, monkeypatch):
    compose = mtilde.compose

    def doubled(x, y, j, base):
        out = compose(x, y, j, base)
        return out.scale(2) if x.arity >= 2 and y.arity == 1 else out

    monkeypatch.setattr(mtilde, "compose", doubled)
    code, out = run_cli(
        capsys, "verify", "operad-axioms", "--max-arity", "2", "--max-degree", "1"
    )
    assert code == 1
    assert fail_lines(out) == [
        "FAIL axiom2 base=trivial arity<=2 slot-degree<=1 checked=49"
        "  [m=1 n=2 x=1 y=1*one(1,1,1)]",
        "FAIL axiom4 base=trivial arity<=2 slot-degree<=1 checked=847"
        "  [k=2 l=1 m=1 i=1 j=1 a=1*one(1,1,1) b=1 c=1]",
    ]
    code, out = run_cli(capsys, "verify", "important", "--max-degree", "2")
    assert code == 1
    assert fail_lines(out) == [
        "FAIL psi_to_phi_exchange base=trivial n=2 sum(d)+sum(e)<=3 (162 instances)"
        "  [n=2 d=(0, 0, 1) e=(0, 0, 0) j=2]",
        "FAIL psi_to_phi_exchange base=trivial n=3 sum(d)+sum(e)<=3 (363 instances)"
        "  [n=3 d=(0, 0, 0, 1) e=(0, 0, 0, 0) j=3]",
        "FAIL psi_to_phi_exchange base=rank2 n=2 sum(d)+sum(e)<=3 (162 instances)"
        "  [n=2 d=(0, 0, 1) e=(0, 0, 0) j=2]",
    ]


def test_first_failing_case_is_reported(capsys, monkeypatch):
    monkeypatch.setattr(verify, "enumerate_increasing_maps", lambda n, d: [])
    code, out = run_cli(capsys, "verify", "ring")
    assert code == 1
    assert fail_lines(out) == ["FAIL increasing_map_counts n<=4 d<=6  [n=0 d=0]"]


def test_failing_check_keeps_later_draws(monkeypatch):
    def families(broken: bool) -> list:
        drawn = []
        draw = verify._random_relement

        def recording(rng):
            drawn.append(draw(rng))
            return drawn[-1]

        with monkeypatch.context() as patch:
            patch.setattr(verify, "_random_relement", recording)
            if broken:
                patch.setattr(verify, "parse_polynomial", lambda text: verify.Polynomial.zero())
            report = verify.run_suite("ring", verify.Bounds(seed=3))
        failed = [c.id for c in report.checks if not c.passed]
        assert failed == (["parse_print_roundtrip"] if broken else [])
        return [f.to_pairs() for f in drawn]

    assert families(broken=True) == families(broken=False)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["identity", "--seed", "-5", "--json"], "seed must be >= 0, got -5"),
        (["dim", "--max-degree", "-3"], "max-degree must be >= 0, got -3"),
        (["odot", "--max-n", "-1"], "max-n must be >= 0, got -1"),
        (["operad-axioms", "--max-arity", "0"], "max-arity must be >= 1, got 0"),
        (["super", "--dim", "7"], "dim must be in 1..6, got 7"),
        (["vowa", "--dim", "0"], "dim must be in 1..6, got 0"),
        # a 2^30-row word-basis matrix, refused before it is built
        (["structure", "--max-degree", "30"], "max-degree must be <= 10, got 30"),
        (["operad-axioms", "--max-arity", "5"], "max-arity must be <= 4, got 5"),
        # identity at --max-n 16 took 8 s and 247 MB
        (["identity", "--max-n", "16"], "max-n must be <= 12, got 16"),
    ],
)
def test_invalid_bounds_exit_2_before_any_suite_runs(capsys, monkeypatch, argv, message):
    def never(bounds):
        raise AssertionError("a suite ran")

    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, never)
    code = cli.main(["verify", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_lowest_and_benchmark_bounds_stay_valid():
    verify.Bounds(max_degree=0, max_n=0, max_arity=1, dim=1, seed=0)
    verify.Bounds(
        max_degree=verify.MAX_DEGREE, max_n=verify.MAX_N, max_arity=verify.MAX_ARITY, dim=6
    )
    verify.Bounds(max_degree=2, dim=6)
    verify.Bounds(max_degree=1)
