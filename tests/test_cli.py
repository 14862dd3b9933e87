import dataclasses
import json
from itertools import product

import pytest

from quivergrass.cli import main
from quivergrass.errors import NonPolynomialCount
from quivergrass.fpoly import FPolynomial
from quivergrass.kronecker import (
    build_kronecker,
    kronecker_quiver,
    preinjective,
    preprojective,
)
from quivergrass.model import (
    Quiver,
    Representation,
    dual_representation,
    save_representation,
)
from quivergrass.sampler import sample_general_rep


@pytest.fixture
def pr2_file(tmp_path):
    path = tmp_path / "kron_pr2.json"
    save_representation(build_kronecker(preprojective(2)), path)
    return str(path)


@pytest.fixture
def point_file(tmp_path):
    path = tmp_path / "point.json"
    save_representation(Representation(Quiver(1, ()), (1,), ()), path)
    return str(path)


@pytest.fixture
def example4_file(tmp_path):
    path = tmp_path / "example4.json"
    save_representation(sample_general_rep(kronecker_quiver(4), (3, 4), 42, 5), path)
    return str(path)


def test_euler_command(pr2_file, capsys):
    assert main(["euler", "--rep", pr2_file, "--e", "0,1"]) == 0
    assert capsys.readouterr().out.strip() == "chi = 2"


def test_euler_point(point_file, capsys):
    assert main(["euler", "--rep", point_file, "--e", "0"]) == 0
    assert capsys.readouterr().out.strip() == "chi = 1"




def test_euler_json_payload(pr2_file, capsys):
    assert main(["euler", "--rep", pr2_file, "--e", "0,1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["chi"] == 2
    assert payload["counting_polynomial"] == [1, 1]
    assert payload["degree_bound"] == 1


@pytest.fixture
def inj4_file(tmp_path):
    path = tmp_path / "kron_inj4.json"
    save_representation(build_kronecker(preinjective(4)), path)
    return str(path)


def test_euler_verbose(inj4_file, capsys):
    # inj(4) at (1, 1) is constrained by both arrows, so it is sampled: the
    # palindrome of degree <(1, 1), (3, 2)> = 1 settles it at three primes
    assert main(["euler", "--rep", inj4_file, "--e", "1,1", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "chi = 2" in out
    assert "counting polynomial: 1 + q" in out
    assert "sample primes: 3, 5, 7" in out
    assert "degree bound: 3 (fitted degree 1)" in out


def test_euler_verbose_names_why_a_rigid_empty_e_samples_no_prime(inj4_file, capsys):
    # inj(4) is rigid with dims (4, 3), and <(1, 0), (3, 3)> = 3 - 2 * 1 * 3 < 0;
    # each arrow (rank 3) forces only dim U_2 >= 0 at e_1 = 1
    assert main(["euler", "--rep", inj4_file, "--e", "1,0", "--verbose"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "chi = 0"
    assert "sample primes: none (M is rigid and <e, d - e> = -3 < 0)" in out


def test_euler_verbose_names_the_arrow_that_rules_e_out(inj4_file, capsys):
    # an arrow of rank 3 out of dimension 4 maps a 3-dimensional U_1 onto at
    # least 2 dimensions, more than e_2 = 0
    assert main(["euler", "--rep", inj4_file, "--e", "3,0", "--verbose"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "chi = 0"
    assert "sample primes: none (arrow 1 -> 2 of rank 3 forces dim U_2 >= 2 > e_2 = 0)" in out


def test_euler_verbose_says_when_no_arrow_constrains_e(pr2_file, capsys):
    # at e_1 = 0 every subspace of the 2-dimensional vertex is a subrepresentation
    assert main(["euler", "--rep", pr2_file, "--e", "0,1", "--verbose"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["chi = 2", "counting polynomial: 1 + q"]
    assert ("sample primes: none (no arrow constrains e: Gr_e(M) is a product of "
            "Grassmannians)") in out
    assert "degree bound: 1 (fitted degree 1)" in out


def test_euler_json_of_a_rigid_empty_e_has_no_samples(inj4_file, capsys):
    assert main(["euler", "--rep", inj4_file, "--e", "1,0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["chi"], payload["counting_polynomial"], payload["samples"]) == (0, [], [])


def test_euler_missing_file(capsys):
    assert main(["euler", "--rep", "no-such.json", "--e", "0,1"]) == 2


def test_euler_bad_vector(pr2_file, capsys):
    assert main(["euler", "--rep", pr2_file, "--e", "9,9"]) == 2


def test_fpoly_refuses_a_non_integer_entry(tmp_path, capsys):
    # the 0.5 used to be read as 0, and fpoly printed the zero map's polynomial
    path = tmp_path / "half.json"
    path.write_text('{"vertices": 2, "arrows": [[1, 2]], "dims": [1, 1], "matrices": [[[0.5]]]}')
    assert main(["fpoly", "--rep", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad representation document: matrices value 0.5 is not an integer\n"


QUARTIC_HINT = "hint: for the plane-quartic family use the `example4` command"


def test_euler_nonpolynomial_exit(example4_file, capsys):
    assert main(["euler", "--rep", example4_file, "--e", "1,3"]) == 3
    err = capsys.readouterr().err
    assert QUARTIC_HINT in err


def test_fpoly_nonpolynomial_exit(example4_file, capsys):
    # (1, 3) is the first e of the box whose counts are rejected, by the pair
    # of its counts at 3 and 5
    assert main(["fpoly", "--rep", example4_file]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: point counts at dimension vector (1, 3) sampled at primes 3, 5: "
                   "the counts 7 at 3 and 6 at 5 differ by -1, which 5 - 3 does not divide, "
                   "so they are not polynomial in q", QUARTIC_HINT]


def test_nonpolynomial_exit_off_the_quartic_shape_has_no_hint(capsys):
    # this D4 input is rigid: the e whose counts hit a bad-reduction prime
    # (ROADMAP item 1) have <e, d - e> < 0 and settle with no sample, so it
    # exits 0 with the F-polynomial of the center-line formula; the exit-3
    # path without a hint is guarded on the dual quartic below
    argv = ["dynkin", "--type", "D4", "--coxeter", "1,2,3,4", "--root", "1,2,1,1",
            "--mode", "bruteforce"]
    assert main(argv) == 0
    out = capsys.readouterr().out.strip()
    assert out == ("1 + u2 + u1 + 2*u1*u2 + u1*u2*u4 + u1*u2*u3 + u1*u2^2 + u1*u2^2*u4"
                   " + u1*u2^2*u3 + u1*u2^2*u3*u4")


def test_nonpolynomial_exit_on_the_dual_quartic_has_no_hint(tmp_path, capsys):
    # Gr_(2,1) of the dual is Gr_(1,3) of the quartic input, on the opposite quiver
    path = tmp_path / "dual_quartic.json"
    rep = sample_general_rep(kronecker_quiver(4), (3, 4), 42, 5)
    save_representation(dual_representation(rep), path)
    assert main(["euler", "--rep", str(path), "--e", "2,1"]) == 3
    err = capsys.readouterr().err
    assert "not polynomial in q" in err
    assert "hint" not in err


def _identity_arrow(n):
    """One arrow 1 -> 2 with the n x n identity: U_2 must contain U_1."""
    identity = [[int(r == c) for c in range(n)] for r in range(n)]
    return Representation(Quiver(2, ((0, 1),)), (n, n), (identity,))


def test_euler_cap_exit(tmp_path, capsys):
    path = tmp_path / "big.json"
    save_representation(_identity_arrow(6), path)
    assert main(["euler", "--rep", str(path), "--e", "3,3", "--cap", "1000"]) == 4


def test_cap_exit_names_the_prime_and_dimension_vector(tmp_path, capsys):
    path = tmp_path / "big.json"
    save_representation(_identity_arrow(6), path)
    assert main(["euler", "--rep", str(path), "--e", "2,3", "--cap", "1000"]) == 4
    assert "p = 3, dimension vector (2, 3)" in capsys.readouterr().err


def test_cap_exit_reports_the_estimate_it_compared(tmp_path, capsys):
    # reg(4, 0) at (2, 2) searches one vertex: Gr(2, 4) has 130 points over
    # F_3 and 806 over F_5, the number each walk is compared with
    path = tmp_path / "reg4.json"
    shift = [[int(c == r + 1) for c in range(4)] for r in range(4)]
    save_representation(Representation(kronecker_quiver(2), (4, 4),
                                       ([[int(c == r) for c in range(4)] for r in range(4)],
                                        shift)), path)
    argv = ["euler", "--rep", str(path), "--e", "2,2", "--cap"]
    assert main(argv + ["20"]) == 4
    assert capsys.readouterr().err == ("error: search size estimate 130 exceeds cap 20: "
                                       "p = 3, dimension vector (2, 2)\n")
    assert main(argv + ["1000"]) == 4  # within the cap at p = 5, out of budget mid-walk
    assert capsys.readouterr().err == ("error: enumeration visited more than cap 1000 "
                                       "candidates (estimate 806): p = 5, dimension vector "
                                       "(2, 2)\n")


def test_euler_bad_cap_is_a_usage_error(pr2_file, capsys):
    assert main(["euler", "--rep", pr2_file, "--e", "0,1", "--cap", "abc"]) == 2
    assert "'abc'" in capsys.readouterr().err


def test_negative_cap_is_a_usage_error(tmp_path, monkeypatch, capsys):
    argv = ["kronecker", "reg", "--m", "2", "--lambda", "1"]
    assert main(argv + ["--cap", "-3"]) == 2
    assert "--cap '-3'" in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cap": -3}))
    assert main(argv + ["--config", str(config)]) == 2
    assert "--cap '-3'" in capsys.readouterr().err
    monkeypatch.setenv("QUIVERGRASS_CAP", "-3")
    assert main(argv) == 2
    assert "QUIVERGRASS_CAP='-3'" in capsys.readouterr().err


def test_cap_env_override(tmp_path, monkeypatch, capsys):
    path = tmp_path / "big.json"
    save_representation(_identity_arrow(6), path)
    monkeypatch.setenv("QUIVERGRASS_CAP", "1000")
    assert main(["euler", "--rep", str(path), "--e", "3,3"]) == 4


def test_fpoly_command(pr2_file, capsys):
    assert main(["fpoly", "--rep", pr2_file]) == 0
    assert capsys.readouterr().out.strip() == "1 + 2*u2 + u2^2 + u1*u2^2"


def test_fpoly_zero(tmp_path, capsys):
    path = tmp_path / "zero.json"
    save_representation(Representation(Quiver(1, ()), (0,), ()), path)
    assert main(["fpoly", "--rep", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_fpoly_json_round_trip(pr2_file, capsys):
    assert main(["fpoly", "--rep", pr2_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    poly = FPolynomial.from_json_dict(doc)
    assert poly.coefficient((1, 2)) == 1
    assert poly.constant_term == 1


def test_kronecker_both(capsys):
    assert main(["kronecker", "pr", "--m", "3", "--mode", "both"]) == 0
    out = capsys.readouterr().out
    assert "MISMATCH" not in out
    assert "e=(1,2)" in out


def test_kronecker_regular_inf(capsys):
    assert main(["kronecker", "reg", "--m", "1", "--lambda", "inf",
                 "--mode", "both"]) == 0
    assert "MISMATCH" not in capsys.readouterr().out


def test_kronecker_formula_table(capsys):
    assert main(["kronecker", "pr", "--m", "1", "--mode", "formula"]) == 0
    out = capsys.readouterr().out
    assert "e=(0,1)" in out and "bruteforce" not in out


def test_kronecker_table_samples_the_box_once(monkeypatch, capsys):
    import quivergrass.euler as eu
    settle = eu._settle
    calls = []

    def counted(rep, bounds, cap):
        calls.append(sorted(bounds))
        return settle(rep, bounds, cap)

    monkeypatch.setattr(eu, "_settle", counted)
    assert main(["kronecker", "inj", "--m", "3", "--mode", "both"]) == 0
    assert "MISMATCH" not in capsys.readouterr().out
    assert calls == [[(e1, e2) for e1 in range(4) for e2 in range(3)]]


def test_kronecker_mismatch_exit(monkeypatch, capsys):
    import quivergrass.cli as cli_mod
    monkeypatch.setattr(cli_mod.kr, "kronecker_chi", lambda kind, e: 99)
    assert main(["kronecker", "pr", "--m", "1", "--mode", "both"]) == 5
    assert "MISMATCH" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["pr", "inj"])
def test_kronecker_lambda_is_refused_outside_reg(kind, tmp_path, capsys):
    assert main(["kronecker", kind, "--m", "2", "--lambda", "garbage"]) == 2
    assert capsys.readouterr().err.strip() == f"error: {kind} takes no --lambda"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": 1}))
    assert main(["kronecker", kind, "--m", "2", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.strip() == f"error: {kind} takes no --lambda"


def test_config_lambda_key_sets_the_regular_parameter(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": "inf"}))
    assert main(["kronecker", "reg", "--m", "1", "--mode", "formula",
                 "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "kind=reg m=1 lambda=inf"


def test_dynkin_both_mismatch_exit(monkeypatch, capsys):
    import quivergrass.dynkin as dk
    monkeypatch.setattr(dk, "f_polynomial_via_minor",
                        lambda *args: FPolynomial(2, {(0, 0): 1}))
    argv = ["dynkin", "--type", "A2", "--coxeter", "1,2", "--root", "1,1", "--mode", "both"]
    assert main(argv) == 5
    assert capsys.readouterr().out.splitlines()[-1] == "MISMATCH"
    assert main(argv + ["--json"]) == 5
    doc = json.loads(capsys.readouterr().out)
    assert doc["match"] is False and doc["minor"] != doc["bruteforce"]


def test_dynkin_both(capsys):
    assert main(["dynkin", "--type", "A2", "--coxeter", "1,2", "--root", "1,1",
                 "--mode", "both"]) == 0
    out = capsys.readouterr().out
    assert "1 + u1 + u1*u2" in out
    assert "ok" in out


def test_dynkin_minor_only(capsys):
    assert main(["dynkin", "--type", "A1", "--coxeter", "1", "--root", "1",
                 "--mode", "minor"]) == 0
    assert capsys.readouterr().out.strip() == "1 + u1"


def test_dynkin_type_d_minor_is_out_of_scope(capsys):
    # gamma of the highest root lies in the orbit of omega_2, which is not minuscule
    assert main(["dynkin", "--type", "D4", "--coxeter", "1,2,3,4",
                 "--root", "1,2,1,1", "--mode", "minor"]) == 6
    assert "not minuscule in D4" in capsys.readouterr().err


def test_dynkin_type_d_both_routes_agree(capsys):
    assert main(["dynkin", "--type", "D4", "--coxeter", "1,2,3,4", "--root", "1,1,1,1",
                 "--mode", "both"]) == 0
    out = capsys.readouterr().out
    assert "minor:      1 + u1 + u1*u2 + u1*u2*u4 + u1*u2*u3 + u1*u2*u3*u4" in out
    assert out.splitlines()[-1] == "ok"


def test_dynkin_type_e_minor(capsys):
    assert main(["dynkin", "--type", "E6", "--coxeter", "1,2,3,4,5,6",
                 "--root", "1,1,1,1,1,1", "--mode", "minor"]) == 0
    assert capsys.readouterr().out.strip() == (
        "1 + u2 + u1 + u1*u3 + u1*u2 + u1*u2*u3 + u1*u2*u3*u4 + u1*u2*u3*u4*u5"
        " + u1*u2*u3*u4*u5*u6")


@pytest.mark.parametrize("label,word,root,mode", [
    ("A6", "1,2,3,4,5,6", "1,1,1,1,1,1", "both"),
    ("D5", "1,2,3,4,5", "1,1,1,1,1", "bruteforce"),
    ("E6", "1,2,3,4,5,6", "1,1,1,1,1,1", "both"),
    ("E6", "1,2,3,4,5,6", "1,1,1,1,1,1", "bruteforce"),
])
def test_dynkin_brute_force_limits(label, word, root, mode, capsys):
    # the cap guards size; brute force alone runs on every type, type E
    # included, since its seeded draws are certified (Ringel's theorem)
    code = main(["dynkin", "--type", label, "--coxeter", word, "--root", root,
                 "--mode", mode])
    captured = capsys.readouterr()
    assert code == 0
    if mode == "both":
        assert captured.out.splitlines()[-1] == "ok"


def test_dynkin_both_runs_the_minor_route_first(capsys):
    # the minor route refuses this non-minuscule root (exit 6) before brute
    # force, which alone reaches it (below)
    assert main(["dynkin", "--type", "E6", "--coxeter", "1,2,3,4,5,6",
                 "--root", "1,2,2,3,2,1", "--mode", "both"]) == 6
    assert "not minuscule" in capsys.readouterr().err


def test_dynkin_brute_force_alone_gives_every_draw_one_answer(capsys):
    # seed 0's draw of this E6 root has End jumps at 5, 7 and 11, where
    # held-out primes alone rejected it (exit 3); seed 2's has none
    argv = ["dynkin", "--type", "E6", "--coxeter", "1,2,3,4,5,6", "--root", "1,2,2,3,2,1",
            "--mode", "bruteforce"]
    outs = []
    for seed in ([], ["--seed", "2"]):
        assert main(argv + seed) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[0].startswith("1 + ")


def test_dynkin_bad_root(capsys):
    assert main(["dynkin", "--type", "A2", "--coxeter", "1,2", "--root", "2,0",
                 "--mode", "minor"]) == 2


@pytest.mark.parametrize("argv", [
    ["kronecker", "pr", "--m", "abc"],
    ["dynkin", "--type", "A2", "--coxeter", "1,2", "--root", "1,1", "--seed", "x"],
    ["example4", "--seed", "x"],
    ["example4", "--bound", "1"],
    ["dynkin", "--type", "A0", "--coxeter", "1", "--root", "1", "--mode", "minor"],
])
def test_bad_integer_flags_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv,message", [
    (["euler", "--rep", "pr2.json", "--e", "0,x"], "expected comma-separated integers, got '0,x'"),
    (["dynkin", "--type", "A2", "--coxeter", "1,2", "--root", "1,"],
     "expected comma-separated integers, got '1,'"),
    (["dynkin", "--type", "B3", "--coxeter", "1,2,3", "--root", "1,1,1"],
     "bad type label 'B3'; expected e.g. A3 or D4"),
    (["kronecker", "reg", "--m", "2", "--lambda", "1/0"],
     "bad lambda '1/0'; expected a rational or 'inf'"),
    (["euler", "--config", "absent.json"],
     "cannot read config absent.json: [Errno 2] No such file or directory: 'absent.json'"),
    (["euler", "--config", "list.json"], "config document must be a JSON object"),
    (["euler", "--rep", "pr2.json"], "euler needs --rep and --e"),
    (["fpoly"], "fpoly needs --rep"),
    (["kronecker", "pr"], "kronecker needs --m"),
    (["dynkin", "--type", "A2", "--coxeter", "1,2"], "dynkin needs --type, --coxeter and --root"),
    (["kronecker", "reg", "--m", "0"], "m must be >= 1"),
    (["dynkin", "--type", "D3", "--coxeter", "1,2,3", "--root", "1,1,1"],
     "type D needs rank >= 4"),
    (["dynkin", "--type", "E9", "--coxeter", "1,2,3,4,5,6,7,8,9", "--root", "1,1,1,1,1,1,1,1,1"],
     "type E needs rank 6, 7 or 8"),
    (["dynkin", "--type", "A3", "--coxeter", "1,1,2", "--root", "1,1,1"],
     "--coxeter 1,1,2 is not a permutation of 1..3"),
], ids=["bad-e", "bad-root", "bad-type", "bad-lambda", "config-unreadable",
        "config-not-object", "euler-needs", "fpoly-needs", "kronecker-needs", "dynkin-needs",
        "m-zero", "D3", "E9", "coxeter-not-permutation"])
def test_usage_errors_exit_2_and_say_what_is_wrong(argv, message, tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.chdir(tmp_path)
    save_representation(build_kronecker(preprojective(2)), "pr2.json")
    (tmp_path / "list.json").write_text("[1]")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("doc,detail", [
    ('{"vertices": 2, "arrows": [[1, 2]], "dims": [1, -1], "matrices": [[]]}',
     "negative dimension -1 at vertex 2"),
    ('{"vertices": 2, "arrows": [[1, 2]], "dims": [1], "matrices": [[]]}',
     "1 dims for 2 vertices"),
    ('{"vertices": 2, "arrows": [[1, 2], [1, 2]], "dims": [1, 1], "matrices": [[[1]]]}',
     "1 matrices for 2 arrows"),
], ids=["negative", "too-few-dims", "too-few-matrices"])
def test_a_bad_dimension_vector_or_matrix_count_names_no_arrow(doc, detail, tmp_path, capsys):
    # each used to read "matrix shape mismatch at arrow -1"
    path = tmp_path / "rep.json"
    path.write_text(doc)
    assert main(["fpoly", "--rep", str(path)]) == 2
    assert capsys.readouterr().err == f"error: shape mismatch: {detail}\n"


def test_a_wrong_matrix_shape_names_its_arrow_from_1(tmp_path, capsys):
    # used to read "at arrow 0"; files number arrows, like vertices, from 1
    path = tmp_path / "rep.json"
    path.write_text('{"vertices": 2, "arrows": [[1, 2]], "dims": [1, 2], "matrices": [[[1]]]}')
    assert main(["fpoly", "--rep", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: matrix shape mismatch at arrow 1: expected 2x1, got 1x1\n"


@pytest.mark.parametrize("argv,modes", [
    (["kronecker", "pr", "--m", "3"], "formula, bruteforce, both"),
    (["dynkin", "--type", "A2", "--coxeter", "1,2", "--root", "1,1"], "minor, bruteforce, both"),
], ids=["kronecker", "dynkin"])
def test_flag_mode_outside_the_modes_reads_as_from_a_config(argv, modes, capsys):
    # one check serves the flag and --config, so both print the same line
    assert main(argv + ["--mode", "bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad --mode 'bogus'; expected one of {modes}\n"


def _refuse_the_box(monkeypatch):
    def refused(rep, cap=None):
        for e in product(*(range(d + 1) for d in rep.dims)):
            yield e, None, NonPolynomialCount(f"refused at {e}")
    monkeypatch.setattr("quivergrass.euler.iter_box_chi", refused)


def _refuse_the_fpolynomial(monkeypatch):
    def refused(rep, cap=None):
        raise NonPolynomialCount("refused")
    monkeypatch.setattr("quivergrass.euler.f_polynomial", refused)


@pytest.mark.parametrize("argv,patch,code,out,err", [
    # an unknown config key is ignored
    (["euler", "--rep", "pr2.json", "--e", "0,1", "--config", "unknown.json"], None, 0,
     "chi = 2\n", ""),
    # a refusal from a command without --rep gets no example4 hint
    (["dynkin", "--type", "A2", "--coxeter", "1,2", "--root", "1,1", "--mode", "bruteforce"],
     _refuse_the_fpolynomial, 3, "", "error: refused\n"),
    # a box refusal inside `kronecker` ends the table and exits 3
    (["kronecker", "pr", "--m", "2", "--mode", "bruteforce"], _refuse_the_box, 3, "",
     "error: refused at (0, 0)\n"),
], ids=["config-unknown-key", "refusal-without-rep", "kronecker-box-refusal"])
def test_cli_paths_no_other_test_reaches(argv, patch, code, out, err, tmp_path, monkeypatch,
                                         capsys):
    monkeypatch.chdir(tmp_path)
    save_representation(build_kronecker(preprojective(2)), "pr2.json")
    (tmp_path / "unknown.json").write_text('{"no_such_flag": [1]}')
    if patch is not None:
        patch(monkeypatch)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


def test_example4_full(capsys):
    assert main(["example4", "--seed", "42", "--primes", "5,7,11"]) == 0
    out = capsys.readouterr().out
    assert "chi = -4" in out
    assert "p=5: smooth" in out


def test_example4_no_primes(capsys):
    assert main(["example4", "--seed", "42", "--primes", ""]) == 0
    out = capsys.readouterr().out
    assert "chi withheld" in out
    assert "quartic:" in out


def test_example4_json(capsys):
    assert main(["example4", "--seed", "42", "--primes", "5", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["chi"] == -4
    assert doc["point_count_match"]["5"]["match"]


def test_example4_degenerate_form_exit(monkeypatch, capsys):
    import quivergrass.sampler as sp
    from quivergrass.errors import DegenerateForm

    def degenerate(*args):
        raise DegenerateForm("determinantal form vanished identically; resample")

    monkeypatch.setattr(sp, "example4_verify", degenerate)
    assert main(["example4"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("degenerate: determinantal form vanished identically; "
                            "resample; try another --seed\n")


def test_example4_count_mismatch_names_the_prime_and_both_counts(monkeypatch, capsys):
    import quivergrass.sampler as sp
    from quivergrass.errors import CountMismatch

    counted = sp.count_subreps

    def off_by_one(rep, e, cap):
        point_count = counted(rep, e, cap)
        return dataclasses.replace(point_count, count=point_count.count + 1)

    monkeypatch.setattr(sp, "count_subreps", off_by_one)
    with pytest.raises(CountMismatch) as err:
        sp.example4_verify(sp.sample_general_rep(kronecker_quiver(4), (3, 4), 42), (5,))
    assert err.value.prime == 5
    assert str(err.value) == "point-count mismatch at p = 5: curve has 6 points, Grassmannian 7"
    assert main(["example4", "--primes", "5"]) == 5
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {err.value}\n"


def test_config_defaults_and_flag_precedence(pr2_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rep": pr2_file, "e": "0,1"}))
    assert main(["euler", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.strip() == "chi = 2"
    # explicit flag wins over the config value
    assert main(["euler", "--config", str(cfg), "--e", "1,2"]) == 0
    assert capsys.readouterr().out.strip() == "chi = 1"


def test_determinism_repeated_runs(capsys):
    assert main(["example4", "--seed", "7", "--primes", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["example4", "--seed", "7", "--primes", "5"]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("doc,message", [
    ({"json": "true"}, "error: config key 'json' takes true or false, got \"true\""),
    ({"json": 1}, "error: config key 'json' takes true or false, got 1"),
    ({"cap": True}, "error: config key 'cap' takes a string or a number, got true"),
    ({"e": False}, "error: config key 'e' takes a string or a number, got false"),
    # each used to reach the flag as its Python repr, e.g. "bad --cap '[3]'"
    ({"cap": [3]}, "error: config key 'cap' takes a string or a number, got [3]"),
    ({"cap": None}, "error: config key 'cap' takes a string or a number, got null"),
    ({"e": {}}, "error: config key 'e' takes a string or a number, got {}"),
], ids=["json-string", "json-number", "cap-bool", "e-bool", "cap-list", "cap-null",
        "e-object"])
def test_config_refuses_a_value_of_the_wrong_type(doc, message, pr2_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["euler", "--rep", pr2_file, "--e", "0,1", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.strip() == message


def test_config_booleans_set_boolean_flags(pr2_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"json": True, "verbose": False, "cap": 1000}))
    assert main(["euler", "--rep", pr2_file, "--e", "0,1", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["chi"] == 2


@pytest.mark.parametrize("argv", [
    ["kronecker", "pr", "--m", "2"],
    ["dynkin", "--type", "A2", "--coxeter", "1,2", "--root", "1,1"],
], ids=["kronecker", "dynkin"])
def test_config_mode_outside_the_choices_is_a_usage_error(argv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "bogus"}))
    assert main(argv + ["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: bad --mode 'bogus'")
