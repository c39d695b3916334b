"""The scripts under scripts/ run end to end on small ranges and print
exactly the pinned tables."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(capsys, name, *argv):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(list(argv)) == 0
    return capsys.readouterr().out


BOUND_TABLE = """\
     shape  grass  linear   aop   branch
    G(2,5)      2       2     2   even_r
    G(2,6)      2       2     2   even_r
    G(2,7)      3       3     2   even_r
    G(2,8)      3       3     3   even_r
    G(2,9)      4       4     3   even_r
   G(2,10)      4       4     3   even_r
   G(2,11)      5       5     4  large_n *
   G(2,12)      5       5     4  large_n
    G(3,7)      2       2     2    odd_r
    G(3,8)      3       3     2    odd_r
    G(3,9)      3       3     3    odd_r
   G(3,10)      3       3     3    odd_r
   G(3,11)      4       4     3    odd_r
   G(3,12)      4       4     4    odd_r
"""


BOUND_TABLE_TIES = """\
     shape  grass  linear   aop   branch
    G(2,5)      2       2     2   even_r
    G(2,6)      2       2     2   even_r
    G(2,8)      3       3     3   even_r
    G(3,7)      2       2     2    odd_r
    G(3,9)      3       3     3    odd_r
   G(3,10)      3       3     3    odd_r
   G(3,12)      4       4     4    odd_r
   G(3,13)      4       4     4    odd_r
   G(3,14)      4       4     4    odd_r
   G(3,15)      5       5     5    odd_r
   G(3,16)      5       5     5    odd_r
   G(3,17)      5       5     5    odd_r
   G(3,18)      5       5     6    odd_r
   G(3,19)      6       6     6  large_n *
   G(3,20)      6       6     6  large_n
"""


CLASSIFY_GRASS = """\
G(1,4): dim 6, degree 5, index 5
  k=0: Fano          (-K)^dim=78125    [computed+table] MDS=KnownMDS(spherical)
  k=1: WeakFanoOnly  (-K)^dim=62500    [computed+table] MDS=KnownMDS(spherical) spherical=yes(one-point)
  k=2: WeakFanoOnly  (-K)^dim=46875    [computed+table] MDS=KnownMDS(spherical) spherical=yes(two-point)
  k=3: WeakFanoOnly  (-K)^dim=31250    [computed+table] MDS=KnownMDS(weakFano) spherical=no(too-many-points)
  k=4: WeakFanoOnly  (-K)^dim=15625    [computed+table] MDS=KnownMDS(weakFano) spherical=no(too-many-points)
  k=5: Neither       (-K)^dim=0        [table] MDS=Unknown spherical=no(too-many-points)
chambers of G(1,4) blown up at one point:
  walls: E1, H, H-E1, H-2E1
  [E1, H] -> G(1,4)
  [H, H-E1] -> G(1,4)_1
  [H-E1, H-2E1] -> G(1,4)_1+
  note: for n = 4 the anticanonical class of the flip is proportional to the wall H-E, so the flip is weak Fano but not Fano
"""


CLASSIFY_QUADRIC = """\
Q3: dim 3, degree 2, index 3
  k=0: Fano          (-K)^dim=54       [computed+table]
  k=1: Fano          (-K)^dim=46       [computed+table]
  k=2: Fano          (-K)^dim=38       [computed+table]
  k=3: WeakFanoOnly  (-K)^dim=30       [computed+table]
"""


CLASSIFY_PROJ = """\
P3: dim 3, degree 1, index 4
  k=0: Fano          (-K)^dim=64       [computed+table] MDS=KnownMDS(spherical)
  k=1: Fano          (-K)^dim=56       [computed+table] MDS=KnownMDS(spherical) spherical=yes(toric)
  k=2: WeakFanoOnly  (-K)^dim=48       [computed+table] MDS=KnownMDS(spherical) spherical=yes(toric)
  k=3: WeakFanoOnly  (-K)^dim=40       [computed+table] MDS=KnownMDS(spherical) spherical=yes(toric)
"""


DEFECTIVITY_SCAN = """\
G(1,3) h=1: computed 4, expected 4, defect 0, CertifiedNonDefective (T s)
G(1,3) h=2: computed 5, expected 5, defect 0, CertifiedNonDefective (T s)
G(1,4) h=1: computed 6, expected 6, defect 0, CertifiedNonDefective (T s)
G(1,4) h=2: computed 9, expected 9, defect 0, CertifiedNonDefective (T s)
G(1,5) h=1: computed 8, expected 8, defect 0, CertifiedNonDefective (T s)
G(1,5) h=2: computed 13, expected 14, defect 1, DefectEvidence (T s)
G(1,5) h=3: computed 14, expected 14, defect 0, CertifiedNonDefective (T s)
G(1,6) h=1: computed 10, expected 10, defect 0, CertifiedNonDefective (T s)
G(1,6) h=2: computed 17, expected 20, defect 3, DefectEvidence (T s)
G(1,6) h=3: computed 20, expected 20, defect 0, CertifiedNonDefective (T s)
G(2,5) h=1: computed 9, expected 9, defect 0, CertifiedNonDefective (T s)
G(2,5) h=2: computed 19, expected 19, defect 0, CertifiedNonDefective (T s)
G(2,6) h=1: computed 12, expected 12, defect 0, CertifiedNonDefective (T s)
G(2,6) h=2: computed 25, expected 25, defect 0, CertifiedNonDefective (T s)
G(2,6) h=3: computed 33, expected 34, defect 1, DefectEvidence (T s)

defect evidence:
  G(1,5) h=2: defect 1
  G(1,6) h=2: defect 3
  G(2,6) h=3: defect 1
"""


CASES = [
    (("bound_table", "--r-min", "2", "--r-max", "3", "--n-max", "12"), BOUND_TABLE),
    (("bound_table", "--r-max", "3", "--n-max", "20", "--only-ties"), BOUND_TABLE_TIES),
    (
        ("classification_report", "--r", "1", "--n", "4", "--k-max", "5", "--chambers"),
        CLASSIFY_GRASS,
    ),
    (
        ("classification_report", "--kind", "quadric", "--n", "3", "--k-max", "3"),
        CLASSIFY_QUADRIC,
    ),
    (
        ("classification_report", "--kind", "proj", "--n", "3", "--k-max", "3"),
        CLASSIFY_PROJ,
    ),
    (
        ("defectivity_scan", "--r-max", "2", "--n-max", "6", "--h-cap", "3"),
        DEFECTIVITY_SCAN,
    ),
]


@pytest.mark.parametrize("argv, expected", CASES, ids=[" ".join(argv) for argv, _ in CASES])
def test_script_output(capsys, argv, expected):
    out = run_script(capsys, *argv)
    # the scan prints the wall time of each oracle call
    assert re.sub(r"\(\d+\.\d\d s\)", "(T s)", out) == expected


def test_script_runs_from_any_directory(tmp_path):
    # -I -S: neither PYTHONPATH nor an installed package finds grassdef, so
    # the script must locate src/ from its own path
    result = subprocess.run(
        [sys.executable, "-I", "-S", str(SCRIPTS / "bound_table.py"), "--r-max", "2", "--n-max", "6"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "".join(BOUND_TABLE.splitlines(keepends=True)[:3])
