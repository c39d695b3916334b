"""End-to-end tests for the grassdef command line: text and JSON output,
exit codes, seeding, and the size cap."""

import json
import time

import pytest

import grassdef.cli
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
    # --rule grass is the default for --grass
    assert run(capsys, "bound", "--grass", "4", "29", "--rule", "grass") == run(capsys, "bound", "--grass", "4", "29")


def test_bound_precondition_exit_code(capsys):
    code, out, err = run(capsys, "bound", "--grass", "1", "4")
    assert code == 2
    assert out == ""
    assert err.strip() == (
        "error: the bound needs r >= 2; secant varieties of Grassmannians"
        " of lines are understood classically"
    )


def test_dual_grassmannians_answer_as_normalized(capsys):
    # G(r, n) is answered as G(n-r-1, n) when n < 2r + 1, under that label
    for dual, normal in (
        (("bound", "--grass", "6", "11"), ("bound", "--grass", "4", "11")),
        (("spherical", "--grass", "3", "5", "--k", "1"), ("spherical", "--grass", "1", "5", "--k", "1")),
        (("effcone", "--grass", "3", "5", "--k", "1"), ("effcone", "--grass", "1", "5", "--k", "1")),
    ):
        for prefix in ((), ("--json",)):
            code, out, _ = run(capsys, *prefix, *dual)
            assert code == 0
            assert out == run(capsys, *prefix, *normal)[1]
    _, out, _ = run(capsys, "--json", "effcone", "--grass", "3", "5", "--k", "1")
    assert json.loads(out)["r"] == 1


def test_secant_refuses_a_modulus_from_2_64(capsys):
    # a composite strong pseudoprime to the twelve Miller-Rabin bases
    argv = ("secant", "--grass", "1", "4", "--h", "2", "--prime", "318665857834031151167461")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.strip() == "error: the modulus must lie below 2^64"


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


def test_malformed_seed_variable_fails_only_the_oracle_subcommands(capsys, monkeypatch):
    # bound, schubert and chambers take no seed: they answer as with the
    # variable unset, while secant refuses the value
    monkeypatch.delenv("GRASSDEF_SEED", raising=False)
    seedless = [
        ("bound", "--grass", "4", "29"),
        ("--json", "bound", "--grass", "4", "29"),
        ("schubert", "degree", "--r", "1", "--n", "3"),
        ("chambers", "--n", "4"),
    ]
    unset = [run(capsys, *argv) for argv in seedless]
    assert all(code == 0 and out and not err for code, out, err in unset)
    assert unset[0][1].strip() == "G(4,29): not h-defective for h ≤ 37 (branch large_n, raw 36)"
    monkeypatch.setenv("GRASSDEF_SEED", "abc")
    assert [run(capsys, *argv) for argv in seedless] == unset
    code, out, err = run(capsys, "secant", "--grass", "1", "4", "--h", "2")
    assert (code, out) == (2, "")
    assert err.strip() == "error: seed must be an integer or 'random', got 'abc'"


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


def test_fano_table_disagreement_exit_code(capsys, monkeypatch):
    # an internal inconsistency exits with 4 and one line, not a traceback
    from grassdef import birational

    table = birational._fano_table
    monkeypatch.setattr(birational, "_fano_table", lambda ambient, k: not table(ambient, k))
    code, out, err = run(capsys, "classify", "--grass", "1", "4", "--k", "4")
    assert code == 4
    assert out == ""
    assert err == (
        "internal error: computed verdict WeakFanoOnly disagrees with the"
        " classification table Fano for G(1,4) at k = 4\n"
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


def test_spherical_refuses_a_projective_dimension_below_one_by_n(capsys):
    # classify refuses --proj in the same terms, at its own lower bound 2
    for n in ("0", "-3"):
        code, out, err = run(capsys, "spherical", "--proj", n, "--k", "1")
        assert (code, out) == (2, "")
        assert err == f"error: n must be at least 1, got {n}\n"
    code, out, _ = run(capsys, "spherical", "--proj", "1", "--k", "1")
    assert code == 0
    assert out.startswith("P1 blown up at k=1 general points: spherical (rule=toric, f=0)")


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
    (
        ("bound", "--grass", "2", "7"),
        (
            '{"branch":"even_r","max_h":3,"raw_value":2,"rule":"grass",'
            '"shape":"G(2,7)","statement":"not h-defective for h \\u2264 3"}'
        ),
    ),
    (
        ("bound", "--sv", "1,1:2,2"),
        (
            '{"branch":"sv","max_h":2,"raw_value":1,"rule":"sv",'
            '"shape":"SV(1,1;2,2)","statement":"not h-defective for h \\u2264 2"}'
        ),
    ),
    (
        ("secant", "--grass", "1", "4", "--h", "2"),
        (
            '{"computed":9,"defect":0,"elapsed_ms":null,"expected":9,"h":2,'
            '"prime":4611686018427387847,"seed":1729,"shape":"G(1,4)",'
            '"trials":[9,9,9],"verdict":"CertifiedNonDefective"}'
        ),
    ),
    (
        # the bench's heaviest secant case: tangent rows at [I | A] at six points
        ("secant", "--grass", "4", "9", "--h", "8", "--trials", "1"),
        (
            '{"computed":207,"defect":0,"elapsed_ms":null,"expected":207,"h":8,'
            '"prime":4611686018427387847,"seed":1729,"shape":"G(4,9)",'
            '"trials":[207],"verdict":"CertifiedNonDefective"}'
        ),
    ),
    (
        # certified below the column count by the packing's five balls alone
        ("secant", "--grass", "3", "9", "--h", "5"),
        (
            '{"computed":124,"defect":0,"elapsed_ms":null,"expected":124,"h":5,'
            '"prime":4611686018427387847,"seed":1729,"shape":"G(3,9)",'
            '"trials":[124,124,124],"verdict":"CertifiedNonDefective"}'
        ),
    ),
    (
        ("secant", "--grass", "3", "7", "--h", "4"),
        (
            '{"computed":63,"defect":4,"elapsed_ms":null,"expected":67,"h":4,'
            '"prime":4611686018427387847,"seed":1729,"shape":"G(3,7)",'
            '"trials":[63,63,63],"verdict":"DefectEvidence"}'
        ),
    ),
    (
        ("secant", "--grass", "2", "8", "--h", "4", "--prime", "rational", "--trials", "1"),
        (
            '{"computed":73,"defect":2,"elapsed_ms":null,"expected":75,"h":4,'
            '"prime":"rational","seed":1729,"shape":"G(2,8)","trials":[73],'
            '"verdict":"DefectEvidence"}'
        ),
    ),
    (
        # rational and certified: decided modulo p on the survivor columns,
        # with no fraction-free pass
        ("secant", "--grass", "4", "9", "--h", "8", "--prime", "rational", "--trials", "1"),
        (
            '{"computed":207,"defect":0,"elapsed_ms":null,"expected":207,"h":8,'
            '"prime":"rational","seed":1729,"shape":"G(4,9)","trials":[207],'
            '"verdict":"CertifiedNonDefective"}'
        ),
    ),
    (
        # the exact branch of the rank kernel: SV(3;4) is 1-defective at h=9
        ("secant", "--sv", "3:4", "--h", "9", "--prime", "rational", "--trials", "1"),
        (
            '{"computed":33,"defect":1,"elapsed_ms":null,"expected":34,"h":9,'
            '"prime":"rational","seed":1729,"shape":"SV(3;4)","trials":[33],'
            '"verdict":"DefectEvidence"}'
        ),
    ),
    (
        # a three-factor Segre-Veronese stack over Q: sampled rows read from
        # the exponent vectors, with the held x_{j,0} row of every factor
        ("secant", "--sv", "2,2,2:1,1,1", "--h", "4", "--prime", "rational", "--trials", "1"),
        (
            '{"computed":25,"defect":1,"elapsed_ms":null,"expected":26,"h":4,'
            '"prime":"rational","seed":1729,"shape":"SV(2,2,2;1,1,1)","trials":[25],'
            '"verdict":"DefectEvidence"}'
        ),
    ),
    # paper-scale rows decided on the coordinate packing: ten disjoint balls
    # fill the expected span, so no random point is drawn
    (
        ("secant", "--grass", "4", "11", "--h", "10", "--trials", "1"),
        (
            '{"computed":359,"defect":0,"elapsed_ms":null,"expected":359,"h":10,'
            '"prime":4611686018427387847,"seed":1729,"shape":"G(4,11)","trials":[359],'
            '"verdict":"CertifiedNonDefective"}'
        ),
    ),
    (
        ("secant", "--grass", "5", "13", "--h", "10", "--trials", "1"),
        (
            '{"computed":489,"defect":0,"elapsed_ms":null,"expected":489,"h":10,'
            '"prime":4611686018427387847,"seed":1729,"shape":"G(5,13)","trials":[489],'
            '"verdict":"CertifiedNonDefective"}'
        ),
    ),
    (
        # alpha = 5 coordinate points, one random point per trial
        ("secant", "--grass", "2", "14", "--h", "6"),
        (
            '{"computed":221,"defect":0,"elapsed_ms":null,"expected":221,"h":6,'
            '"prime":4611686018427387847,"seed":1729,"shape":"G(2,14)","trials":[221,221,221],'
            '"verdict":"CertifiedNonDefective"}'
        ),
    ),
    (
        # the rational normal curve, a one-factor Segre-Veronese shape
        ("secant", "--sv", "1:6", "--h", "3"),
        (
            '{"computed":5,"defect":0,"elapsed_ms":null,"expected":5,"h":3,'
            '"prime":4611686018427387847,"seed":1729,"shape":"SV(1;6)","trials":[5,5,5],'
            '"verdict":"CertifiedNonDefective"}'
        ),
    ),
    (
        ("oscproj", "--sv", "1:7", "--centers", "0;1", "--orders", "2,2"),
        (
            '{"ambient_dim":7,"kind":"osculating","note":"","restricted_rank":2,'
            '"shape":"SV(1;7)","status":"GenericallyFinite","survivors":2,"variety_dim":1}'
        ),
    ),
    (
        ("oscproj", "--grass", "2", "5", "--centers", "0,1,2", "--orders", "1"),
        (
            '{"ambient_dim":19,"kind":"osculating","note":"","restricted_rank":10,'
            '"shape":"G(2,5)","status":"GenericallyFinite","survivors":10,'
            '"variety_dim":9}'
        ),
    ),
    (
        # nothing survives: restricted_rank stays in the JSON as null
        ("oscproj", "--grass", "2", "5", "--centers", "0,1,2", "--orders", "3"),
        (
            '{"ambient_dim":19,"kind":"osculating","note":"every coordinate lies '
            'in the span of the osculating centers","restricted_rank":null,'
            '"shape":"G(2,5)","status":"ConstantMap","survivors":0,"variety_dim":9}'
        ),
    ),
    (
        ("tangproj", "--grass", "2", "6", "--h", "1"),
        (
            '{"ambient_dim":34,"center_rank":13,"h":1,"joint_rank":26,'
            '"kind":"tangential","note":"","shape":"G(2,6)",'
            '"status":"GenericallyFinite","variety_dim":12}'
        ),
    ),
    (
        ("tangproj", "--grass", "2", "6", "--h", "3"),
        (
            '{"ambient_dim":34,"center_rank":34,"h":3,"joint_rank":35,'
            '"kind":"tangential","note":"the projection away from a span of '
            'dimension 33 lands in a projective space of dimension 0, smaller '
            'than dim X = 12; the finiteness question is void","shape":"G(2,6)",'
            '"status":"HypothesisViolated","variety_dim":12}'
        ),
    ),
    (
        ("tangproj", "--grass", "3", "8", "--h", "2"),
        (
            '{"ambient_dim":125,"center_rank":42,"h":2,"joint_rank":63,'
            '"kind":"tangential","note":"","shape":"G(3,8)",'
            '"status":"GenericallyFinite","variety_dim":20}'
        ),
    ),
    (
        # alpha = 3: all three centers are coordinate points
        ("tangproj", "--grass", "2", "8", "--h", "3"),
        (
            '{"ambient_dim":83,"center_rank":57,"h":3,"joint_rank":74,'
            '"kind":"tangential","note":"rank over a random specialization only '
            'bounds the generic rank from below; matching the expected dimension '
            'is a certificate, a deficit is evidence of defectivity but not a '
            'proof","shape":"G(2,8)","status":"FiberEvidence","variety_dim":18}'
        ),
    ),
    (
        # rational and finite: decided modulo p on the survivor columns
        (
            "oscproj", "--grass", "2", "7", "--centers", "0,1,2;3,4,5", "--orders", "1,1",
            "--prime", "rational", "--trials", "1",
        ),
        (
            '{"ambient_dim":55,"kind":"osculating","note":"","restricted_rank":16,'
            '"shape":"G(2,7)","status":"GenericallyFinite","survivors":24,'
            '"variety_dim":15}'
        ),
    ),
    (
        ("schubert", "dim", "--r", "2", "--n", "5", "--lambda", "2,2,1"),
        (
            '{"codim":5,"complementary":[1,1,2],"dim":4,"lambda":[2,2,1],"n":5,'
            '"r":2}'
        ),
    ),
    (
        ("schubert", "sing", "--r", "4", "--n", "9", "--lambda", "2,2,2,1,0"),
        '{"components":[[3,3,3,3,0],[2,2,2,2,2]],"lambda":[2,2,2,1,0]}',
    ),
    (
        ("schubert", "mult", "--r", "4", "--n", "9", "--lambda", "2,2,2,1,0", "--mu", "3,3,3,3,2"),
        '{"lambda":[2,2,2,1,0],"mu":[3,3,3,3,2],"multiplicity":14}',
    ),
    # no block split: the whole 5 x 5 determinant is eliminated
    (
        ("schubert", "mult", "--r", "4", "--n", "9", "--lambda", "4,3,3,1,0", "--mu", "5,5,5,5,5"),
        '{"lambda":[4,3,3,1,0],"mu":[5,5,5,5,5],"multiplicity":195}',
    ),
    (
        ("schubert", "contains", "--r", "2", "--n", "5", "--lambda", "1,0,0", "--mu", "2,2,0"),
        '{"contains":true,"lambda":[1,0,0],"mu":[2,2,0]}',
    ),
    (
        ("schubert", "degree", "--r", "1", "--n", "4"),
        '{"degree":5,"n":4,"r":1}',
    ),
    (
        ("classify", "--grass", "1", "4", "--k", "3"),
        (
            '{"ambient":"G(1,4)","anticanonical":"5H-5E1-5E2-5E3",'
            '"cone_status":"proven","k":3,'
            '"mds":{"note":"the blow-up is weak Fano, and weak Fano varieties are '
            'Mori dream spaces","reason":"weakFano","verdict":"KnownMDS"},'
            '"min_pairing":0,"source":"computed+table","spherical":{"f_value":0,'
            '"rule":"too-many-points","spherical":false},"top_anticanonical":31250,'
            '"verdict":"WeakFanoOnly"}'
        ),
    ),
    (
        ("classify", "--quadric", "3", "--k", "6"),
        (
            '{"ambient":"Q3","anticanonical":"3H-2E1-2E2-2E3-2E4-2E5-2E6",'
            '"cone_status":"proven","k":6,"mds":null,"min_pairing":0,'
            '"source":"computed+table","spherical":null,"top_anticanonical":6,'
            '"verdict":"WeakFanoOnly"}'
        ),
    ),
    (
        ("classify", "--proj", "3", "--k", "7"),
        (
            '{"ambient":"P3","anticanonical":"4H-2E1-2E2-2E3-2E4-2E5-2E6-2E7",'
            '"cone_status":"unknown","k":7,'
            '"mds":{"note":"inside the complete classification of Mori dream '
            'blow-ups of projective space at general points",'
            '"reason":"rank2-catalog","verdict":"KnownMDS"},"min_pairing":null,'
            '"source":"table","spherical":{"f_value":1,"rule":"beyond-toric-range",'
            '"spherical":false},"top_anticanonical":8,"verdict":"WeakFanoOnly"}'
        ),
    ),
    (
        ("chambers", "--n", "5"),
        (
            '{"chambers":[{"contraction":"divisorial contraction of E, the '
            'blow-down to the ambient Grassmannian","model":"G(1,5)","rays":["E1",'
            '"H"]},{"contraction":"the nef chamber of the blow-up itself",'
            '"model":"G(1,5)_1","rays":["H","H-E1"]},'
            '{"contraction":"nef chamber of the flip, an isomorphism in '
            'codimension two; the outer wall H-2E gives a fibration onto G(1,3) '
            'with P^4 fibers","model":"G(1,5)_1+","rays":["H-E1","H-2E1"]}],'
            '"effective":["E1","H-2E1"],"fano_flip_model":true,'
            '"fibration_target":"G(1,3)","flip_anticanonical":"6H-7E1",'
            '"movable":["H","H-2E1"],"n":5,"nef":["H","H-E1"],"note":"",'
            '"walls":["E1","H","H-E1","H-2E1"]}'
        ),
    ),
    (
        ("spherical", "--grass", "2", "9", "--k", "2"),
        (
            '{"evidence":"for r >= 2 and n >= 4r + 1 the general two-point orbit '
            'has codimension r(r-1)/2 = 1 > 0","f_value":0,"k":2,"n":9,"r":2,'
            '"rule":"orbit-codimension","spherical":false}'
        ),
    ),
    (
        ("effcone", "--grass", "1", "5", "--k", "3"),
        (
            '{"generators":["E1","E2","E3","H-2E1-2E2","H-2E1-2E3","H-2E2-2E3"],'
            '"k":3,"n":5,"note":"","provenance":"three-point-effective-cone-g15",'
            '"r":1,"status":"proven"}'
        ),
    ),
    (
        ("limit-hyperplane", "--D", "3", "--s", "3", "--sbar", "0", "--k1", "0", "--k2", "1"),
        '{"coeffs":[3,-2,1,0],"trivial":false}',
    ),
]


@pytest.mark.parametrize("argv, expected", SMOKE_MATRIX, ids=[" ".join(a) for a, _ in SMOKE_MATRIX])
def test_json_round_trip_and_determinism(capsys, argv, expected):
    code, first, err = run(capsys, "--json", *argv)
    assert code == 0 and err == ""
    # the pinned bytes; parse(emit(report)) reproduces them, and a second
    # run with the same seed reproduces them again
    assert first.strip() == expected
    assert json.dumps(json.loads(first), sort_keys=True, separators=(",", ":")) == expected
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (("classify", "--proj", "3", "--k", "-1"), "k must be at least 0, got -1"),
        (("bound", "--sv", "2,2:1,1", "--rule", "aop"), "--rule applies to --grass only; --sv has the one rule sv"),
    ],
)
def test_invalid_arguments_exit_2_with_one_error_line(capsys, argv, message):
    for prefix in ((), ("--json",)):
        assert run(capsys, *prefix, *argv) == (2, "", f"error: {message}\n")


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


PARSER_REUSE_CALLS = [
    ("--json", "bound", "--grass", "4", "29"),
    # argparse errors: a missing required flag, an unknown subcommand
    ("secant", "--grass", "1", "4"),
    ("frobnicate",),
    ("--help",),
    ("schubert", "mult", "--help"),
    # refusals by ValueError after parsing
    ("classify", "--proj", "0", "--k", "1"),
    ("spherical", "--proj", "0", "--k", "1"),
    ("schubert", "mult", "--r", "1", "--n", "4", "--lambda", "2,1", "--mu", "3,2"),
    ("schubert", "dim", "--r", "1", "--n", "4", "--lambda", "2,1"),
    ("secant", "--grass", "1", "4", "--h", "2", "--seed", "7"),
    ("--json", "oscproj", "--sv", "1:7", "--centers", "0;1", "--orders", "2,2"),
    ("bound", "--grass", "4", "29"),
]


def test_in_process_calls_share_one_parser_and_answer_as_a_fresh_one(capsys, monkeypatch):
    cli = grassdef.cli
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [run(capsys, *argv) for argv in PARSER_REUSE_CALLS]
    assert [code for code, _, _ in fresh] == [0, 2, 2, 0, 0, 2, 2, 0, 0, 0, 0, 0]
    monkeypatch.undo()

    builds = []
    build = cli.build_parser

    def spy():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", spy)
    cli._parser.cache_clear()
    try:
        shared = [run(capsys, *argv) for argv in PARSER_REUSE_CALLS * 2]
    finally:
        cli._parser.cache_clear()
    assert shared == fresh * 2
    assert len(builds) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        # in range for P^300, but its C(500, 2) + 500 curve classes of length 500
        # are counted against the cap before any is built
        (
            ("classify", "--proj", "300", "--k", "500"),
            "the Mori cone of P300 at k = 500 (125250 curve classes) needs about"
            " 62625000 entries, above the cap of 16000000",
        ),
        (
            ("classify", "--grass", "1", "4", "--k", "100000000"),
            "the anticanonical class of G(1,4) at k = 100000000 needs about"
            " 100000000 entries, above the cap of 16000000",
        ),
        # results longer than the 4300 digits Python prints an integer with
        (
            ("classify", "--grass", "1", "3000", "--k", "1"),
            "D^5998 on G(1,3000) at k = 1 has about 24461 digits, above the limit"
            " of 4300 on printed integers",
        ),
        (
            ("schubert", "degree", "--r", "200", "--n", "1000"),
            "the degree of G(200,1000) has about 344387 digits, above the limit"
            " of 4300 on printed integers",
        ),
        (
            ("spherical", "--proj", "1" + "0" * 3000, "--k", "1"),
            "the count f(r, n) = (n - 2r - 2)(n - 4r - 1)/2 has about 6000 digits,"
            " above the limit of 4300 on printed integers",
        ),
        (
            ("bound", "--sv", f"{10**399}:{10**399}"),
            "the sv bound has about 528676 digits, above the limit of 4300 on printed integers",
        ),
        (
            ("bound", "--grass", "1000", str(10**4000)),
            "the large_n bound at r = 1000 has about 35973 digits, above the limit"
            " of 4300 on printed integers",
        ),
        # the s + 1 coefficients of the trivial section, and the q x (q + 1)
        # collision system for q = s - D + k2 + 1 = 99998
        (
            ("limit-hyperplane", "--D", "20000000", "--s", "19999999", "--sbar", "0", "--k1", "0", "--k2", "0"),
            "the limit hyperplane at s = 19999999 needs about 20000000 entries, above the cap of 16000000",
        ),
        (
            ("limit-hyperplane", "--D", "100000", "--s", "99999", "--sbar", "100000", "--k1", "0", "--k2", "99998"),
            "the limit hyperplane at s = 99999 needs about 9999800002 entries, above the cap of 16000000",
        ),
        # the (r + 1)(n - r) cells of the picture, and the r + 1 parts of a
        # partition before they are padded
        (
            ("schubert", "dim", "--r", "5000", "--n", "10001", "--lambda", "0"),
            "a Ferrers diagram of 5001 rows needs about 25010001 entries, above the cap of 16000000",
        ),
        (
            ("schubert", "sing", "--r", "20000000", "--n", "40000001", "--lambda", "0"),
            "a partition of r + 1 parts needs about 20000001 entries, above the cap of 16000000",
        ),
        # 15,436,200 entries pass the cap, but C(s, q) C(sbar + q, q) bounds
        # the coefficients of q = 3799 by a number of 21686 digits
        (
            ("limit-hyperplane", "--D", "1000000", "--s", "999999", "--sbar", "1000000", "--k1", "0", "--k2", "3799"),
            "the limit hyperplane at s = 999999 has about 21686 digits, above the limit of 4300 on printed integers",
        ),
    ],
)
def test_cap_refuses_large_blow_ups_and_degrees_quickly(capsys, argv, message):
    for prefix in ((), ("--json",)):
        start = time.perf_counter()
        code, out, err = run(capsys, *prefix, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (3, "", f"cap exceeded: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("classify", "--proj", "1" + "0" * 3000, "--k", "0"), "int too large to convert to float"),
        # the diagram cap counts the 2n - 3 cells before any overflows; a
        # count of more than 20 digits is given as a power of ten
        (
            ("schubert", "dim", "--r", "1", "--n", "1" + "0" * 3000, "--lambda", "1"),
            "a Ferrers diagram of 2 rows needs about 10^3000 entries, above the cap of 16000000",
        ),
        (
            ("schubert", "dim", "--r", "1", "--n", "1" + "0" * 3000, "--lambda", "0"),
            "a Ferrers diagram of 2 rows needs about 10^3000 entries, above the cap of 16000000",
        ),
        (
            ("schubert", "dim", "--r", "1", "--n", "9" * 4300, "--lambda", "1"),
            "a Ferrers diagram of 2 rows needs about 10^4300 entries, above the cap of 16000000",
        ),
    ],
    ids=["classify", "schubert-dim", "schubert-dim-lambda-0", "schubert-dim-4301-digit-count"],
)
def test_an_overflow_of_a_huge_argument_is_a_refusal_not_an_internal_error(capsys, argv, message):
    assert run(capsys, *argv) == (3, "", f"cap exceeded: {message}\n")


def test_classify_answers_a_huge_k_out_of_the_cone_range_by_the_table(capsys):
    # the 2k curve classes of length k are never built outside their range
    start = time.perf_counter()
    code, out, _ = run(capsys, "--json", "classify", "--grass", "1", "4", "--k", "100000")
    assert time.perf_counter() - start < 5.0
    payload = json.loads(out)
    assert code == 0
    assert (payload["verdict"], payload["source"], payload["cone_status"]) == ("Neither", "table", "unknown")
    assert payload["top_anticanonical"] == 5**6 * (5 - 100000)


# subcommands -> grassdef submodules none of them may load in a fresh process
IMPORT_BUDGET = [
    (
        [
            ("bound", "--grass", "4", "29"),
            ("bound", "--sv", "1,1:2,2"),
            ("limit-hyperplane", "--D", "5", "--s", "5", "--sbar", "1", "--k1", "2", "--k2", "1"),
        ],
        {"oracle", "birational", "schubert"},
    ),
    (
        [
            ("schubert", "mult", "--r", "4", "--n", "9", "--lambda", "2,2,2,1,0", "--mu", "3,3,3,3,2"),
            ("schubert", "degree", "--r", "2", "--n", "5"),
            ("classify", "--grass", "1", "4", "--k", "3"),
            ("chambers", "--n", "5"),
            ("spherical", "--grass", "1", "5", "--k", "2"),
            ("effcone", "--grass", "1", "5", "--k", "3"),
        ],
        {"oracle"},
    ),
    (
        [
            ("secant", "--grass", "1", "4", "--h", "2"),
            ("oscproj", "--sv", "1:7", "--centers", "0;1", "--orders", "2,2"),
            ("tangproj", "--grass", "2", "8", "--h", "3", "--trials", "1"),
        ],
        {"birational", "schubert"},
    ),
]


@pytest.mark.parametrize("calls, unused", IMPORT_BUDGET, ids=["bound", "closed-form", "oracle"])
def test_each_subcommand_family_loads_only_its_layers(fresh_python, calls, unused):
    child = (
        "import json, sys\n"
        "from grassdef.cli import main\n"
        "codes = [main(['--json', *argv]) for argv in json.loads(sys.argv[1])]\n"
        "loaded = sorted(m.split('.')[1] for m in sys.modules if m.startswith('grassdef.'))\n"
        "print(json.dumps([codes, loaded]), file=sys.stderr)\n"
    )
    proc = fresh_python(child, json.dumps(calls))
    codes, loaded = json.loads(proc.stderr.strip().splitlines()[-1])
    assert codes == [0] * len(calls)
    assert "cli" in loaded and "indices" in loaded
    assert not unused & set(loaded), loaded
