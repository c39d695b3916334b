"""End-to-end tests for the grassdef command line: text and JSON output,
exit codes, seeding, and the size cap."""

import json

import pytest

from grassdef.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_text(capsys):
    code, out, err = run(capsys, "bound", "--grass", "4", "29")
    assert code == 0
    assert out.strip() == "G(4,29): not h-defective for h ≤ 37 (branch large_n, raw 36)"


def test_bound_json_is_byte_deterministic(capsys):
    code, out, _ = run(capsys, "--json", "bound", "--grass", "4", "29")
    assert code == 0
    assert out.strip() == (
        '{"branch":"large_n","max_h":37,"raw_value":36,"rule":"grass",'
        '"shape":"G(4,29)","statement":"not h-defective for h \\u2264 37"}'
    )


def test_bound_rules(capsys):
    _, out, _ = run(capsys, "--json", "bound", "--grass", "4", "29", "--rule", "linear")
    assert json.loads(out)["max_h"] == 13
    _, out, _ = run(capsys, "--json", "bound", "--grass", "4", "29", "--rule", "aop")
    assert json.loads(out)["max_h"] == 9
    _, out, _ = run(capsys, "--json", "bound", "--sv", "1,1:2,2")
    assert json.loads(out)["max_h"] == 2


def test_bound_precondition_exit_code(capsys):
    code, out, err = run(capsys, "bound", "--grass", "1", "4")
    assert code == 2
    assert out == ""
    assert err.strip() == (
        "error: the bound needs r >= 2; secant varieties of Grassmannians"
        " of lines are understood classically"
    )


def test_secant_text(capsys):
    code, out, _ = run(capsys, "secant", "--grass", "1", "4", "--h", "2")
    assert code == 0
    assert out.strip() == "G(1,4) h=2: expected 9, computed 9, defect 0 -> CertifiedNonDefective"


def test_secant_json(capsys):
    code, out, _ = run(capsys, "--json", "secant", "--grass", "1", "4", "--h", "2")
    assert code == 0
    assert out.strip() == (
        '{"computed":9,"defect":0,"elapsed_ms":null,"expected":9,"h":2,'
        '"prime":4611686018427387847,"seed":1729,"shape":"G(1,4)",'
        '"trials":[9,9,9],"verdict":"CertifiedNonDefective"}'
    )


def test_secant_defective_case(capsys):
    code, out, _ = run(capsys, "secant", "--sv", "2:2", "--h", "2")
    assert code == 0
    assert "SV(2;2) h=2: expected 5, computed 4, defect 1 -> DefectEvidence" in out
    # a deficit over one specialization is evidence, not a certificate
    assert "bounds the generic rank from below" in out


def test_secant_seed_flag_and_env(capsys, monkeypatch):
    _, out1, _ = run(capsys, "--json", "secant", "--grass", "1", "4", "--h", "2", "--seed", "7")
    assert json.loads(out1)["seed"] == 7
    monkeypatch.setenv("GRASSDEF_SEED", "99")
    _, out2, _ = run(capsys, "--json", "secant", "--grass", "1", "4", "--h", "2")
    assert json.loads(out2)["seed"] == 99
    # an explicit flag wins over the environment
    _, out3, _ = run(capsys, "--json", "secant", "--grass", "1", "4", "--h", "2", "--seed", "7")
    assert json.loads(out3)["seed"] == 7


def test_secant_random_seed(capsys):
    _, out, _ = run(capsys, "--json", "secant", "--grass", "1", "4", "--h", "1", "--seed", "random")
    seed = json.loads(out)["seed"]
    assert isinstance(seed, int) and 0 <= seed < 1 << 64


def test_secant_trials_flag(capsys):
    _, out, _ = run(capsys, "--json", "secant", "--grass", "1", "4", "--h", "2", "--trials", "1")
    assert len(json.loads(out)["trials"]) == 1


def test_secant_cap_exceeded(capsys):
    code, out, err = run(capsys, "secant", "--grass", "7", "15", "--h", "20")
    assert code == 3
    assert out == ""
    assert err.strip() == (
        "cap exceeded: the Terracini matrix of G(7,15) at 20 point(s) needs"
        " about 16731000 entries, above the cap of 16000000"
    )


def test_secant_sv_cap_counts_index_length(capsys):
    # 100001 coordinates with index tuples of length 100000
    code, out, err = run(capsys, "secant", "--sv", "1:100000", "--h", "1")
    assert code == 3
    assert out == ""
    assert err.strip() == (
        "cap exceeded: the Terracini matrix of SV(1;100000) at 1 point(s) needs"
        " about 10000100000 entries, above the cap of 16000000"
    )


@pytest.mark.parametrize("r, n, computed", [(5, 11, 73), (6, 13, 99)])
def test_secant_large_grassmannians_under_the_cap(capsys, r, n, computed):
    code, out, _ = run(
        capsys, "--json", "secant", "--grass", str(r), str(n), "--h", "2", "--trials", "1"
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["computed"] == computed
    assert cert["verdict"] == "CertifiedNonDefective"


def test_oscproj_grass(capsys):
    code, out, _ = run(
        capsys, "oscproj", "--grass", "2", "7",
        "--centers", "0,1,2;3,4,5", "--orders", "1,1",
    )
    assert code == 0
    assert out.strip() == (
        "G(2,7) osculating projection: survivors 24,"
        " restricted rank 16 -> GenericallyFinite"
    )


def test_oscproj_sv(capsys):
    code, out, _ = run(capsys, "oscproj", "--sv", "1,1:2,2", "--centers", "0", "--orders", "2")
    assert code == 0
    assert out.strip() == (
        "SV(1,1;2,2) osculating projection: survivors 3,"
        " restricted rank 3 -> GenericallyFinite"
    )


def test_oscproj_validation_exit_code(capsys):
    code, _, err = run(
        capsys, "oscproj", "--grass", "2", "5",
        "--centers", "0,1,2;2,3,4", "--orders", "1,1",
    )
    assert code == 2
    assert err.startswith("error:")


def test_tangproj_generically_finite(capsys):
    code, out, _ = run(capsys, "tangproj", "--grass", "2", "6", "--h", "1")
    assert code == 0
    assert out.strip() == (
        "G(2,6) tangential projection at h=1: center rank 13,"
        " joint rank 26 -> GenericallyFinite"
    )


def test_tangproj_hypothesis_violated(capsys):
    code, out, _ = run(capsys, "tangproj", "--grass", "1", "4", "--h", "1")
    assert code == 0
    assert "-> HypothesisViolated" in out
    assert "the finiteness question is void" in out


def test_spherical_subcommand(capsys):
    code, out, _ = run(capsys, "spherical", "--grass", "1", "5", "--k", "3")
    assert code == 0
    assert out.splitlines()[0] == (
        "G(1,5) blown up at k=3 general points: spherical"
        " (rule=three-point-lines, f=0)"
    )
    _, out, _ = run(capsys, "--json", "spherical", "--proj", "4", "--k", "5")
    payload = json.loads(out)
    assert payload["spherical"] is True and payload["rule"] == "toric"


def test_effcone_subcommand(capsys):
    code, out, _ = run(capsys, "effcone", "--grass", "2", "5", "--k", "2")
    assert code == 0
    assert out.strip() == (
        "Eff of G(2,5) blown up at k=2 general points:"
        " E1, E2, H-3E1, H-3E2 [proven, two-point-effective-cone-minimal-n]"
    )
    _, out, _ = run(capsys, "--json", "effcone", "--grass", "2", "7", "--k", "2")
    payload = json.loads(out)
    assert payload["status"] == "unknown" and payload["generators"] == []


SMOKE_MATRIX = [
    ("bound", "--grass", "2", "7"),
    ("bound", "--sv", "1,1:2,2"),
    ("secant", "--grass", "1", "4", "--h", "2"),
    ("oscproj", "--grass", "2", "5", "--centers", "0,1,2", "--orders", "1"),
    ("tangproj", "--grass", "2", "6", "--h", "1"),
    ("schubert", "dim", "--r", "2", "--n", "5", "--lambda", "2,2,1"),
    ("schubert", "sing", "--r", "4", "--n", "9", "--lambda", "2,2,2,1,0"),
    ("schubert", "mult", "--r", "4", "--n", "9", "--lambda", "2,2,2,1,0", "--mu", "3,3,3,3,2"),
    ("schubert", "contains", "--r", "2", "--n", "5", "--lambda", "1,0,0", "--mu", "2,2,0"),
    ("schubert", "degree", "--r", "1", "--n", "4"),
    ("classify", "--grass", "1", "4", "--k", "3"),
    ("classify", "--quadric", "3", "--k", "6"),
    ("classify", "--proj", "3", "--k", "7"),
    ("chambers", "--n", "5"),
    ("spherical", "--grass", "2", "9", "--k", "2"),
    ("effcone", "--grass", "1", "5", "--k", "3"),
    ("limit-hyperplane", "--D", "3", "--s", "3", "--sbar", "0", "--k1", "0", "--k2", "1"),
]


@pytest.mark.parametrize("argv", SMOKE_MATRIX, ids=lambda a: " ".join(a))
def test_json_round_trip_and_determinism(capsys, argv):
    code, first, err = run(capsys, "--json", *argv)
    assert code == 0 and err == ""
    payload = json.loads(first)
    # parse(emit(report)) reproduces the emitted bytes, and a second run
    # with the same seed reproduces them again
    assert json.dumps(payload, sort_keys=True, separators=(",", ":")) == first.strip()
    _, second, _ = run(capsys, "--json", *argv)
    assert second == first


def test_schubert_mult(capsys):
    code, out, _ = run(
        capsys, "schubert", "mult", "--r", "4", "--n", "9",
        "--lambda", "2,2,2,1,0", "--mu", "3,3,3,3,2",
    )
    assert code == 0
    assert out.strip() == "14"


def test_schubert_degree(capsys):
    _, out, _ = run(capsys, "schubert", "degree", "--r", "1", "--n", "4")
    assert out.strip().endswith("5")
    _, out, _ = run(capsys, "--json", "schubert", "degree", "--r", "1", "--n", "5")
    assert json.loads(out)["degree"] == 14


def test_schubert_dim_with_diagram(capsys):
    code, out, _ = run(capsys, "schubert", "dim", "--r", "2", "--n", "5", "--lambda", "2,2,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Sigma_(2,2,1) in G(2,5): dim 4, codim 5"
    assert lines[1:] == ["#", "#", "##"]


def test_schubert_sing(capsys):
    _, out, _ = run(
        capsys, "--json", "schubert", "sing",
        "--r", "4", "--n", "9", "--lambda", "2,2,2,1,0",
    )
    payload = json.loads(out)
    assert payload["components"] == [[3, 3, 3, 3, 0], [2, 2, 2, 2, 2]]
    assert payload["lambda"] == [2, 2, 2, 1, 0]


def test_schubert_contains(capsys):
    code, out, _ = run(
        capsys, "schubert", "contains", "--r", "2", "--n", "5",
        "--lambda", "1,0,0", "--mu", "2,2,0",
    )
    assert code == 0
    assert out.strip() == "True"


def test_classify_grassmannian(capsys):
    code, out, _ = run(capsys, "classify", "--grass", "1", "4", "--k", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "G(1,4) blown up at k=3 general points"
    assert lines[1] == "anticanonical 5H-5E1-5E2-5E3, top self-intersection 31250"
    assert lines[2] == "verdict: WeakFanoOnly, MDS=KnownMDS(weakFano)"
    assert lines[3] == "spherical: no (rule=too-many-points, f=0)"


def test_classify_quadric_omits_mds_and_spherical(capsys):
    code, out, _ = run(capsys, "classify", "--quadric", "3", "--k", "6")
    assert code == 0
    assert "verdict: WeakFanoOnly" in out
    assert "MDS" not in out
    assert "spherical" not in out
    assert "top self-intersection 6" in out


def test_classify_projective(capsys):
    _, out, _ = run(capsys, "classify", "--proj", "3", "--k", "7")
    assert "verdict: WeakFanoOnly, MDS=KnownMDS(rank2-catalog)" in out
    assert "spherical: no (rule=beyond-toric-range, f=1)" in out


def test_chambers(capsys):
    code, out, _ = run(capsys, "chambers", "--n", "5")
    assert code == 0
    assert "walls: E1, H, H-E1, H-2E1" in out
    assert "flip model Fano: yes" in out
    assert "flip anticanonical 6H-7E1" in out
    assert "fibration target G(1,3)" in out
    assert (
        "chamber [E1, H] model G(1,5): divisorial contraction of E,"
        " the blow-down to the ambient Grassmannian"
    ) in out


def test_limit_hyperplane(capsys):
    code, out, _ = run(
        capsys, "limit-hyperplane",
        "--D", "3", "--s", "3", "--sbar", "0", "--k1", "0", "--k2", "1",
    )
    assert code == 0
    assert out.strip() == "coefficients: (3, -2, 1, 0)"


def test_limit_hyperplane_validation(capsys):
    code, _, err = run(
        capsys, "limit-hyperplane",
        "--D", "2", "--s", "1", "--sbar", "0", "--k1", "1", "--k2", "1",
    )
    assert code == 2
    assert err.startswith("error:")


def test_unknown_subcommand_exits_nonzero(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code not in (0, None)


def test_missing_required_flag_exits_nonzero(capsys):
    code = main(["secant", "--grass", "1", "4"])
    capsys.readouterr()
    assert code not in (0, None)
