"""Import budget: the table verbs run on numpy alone.

scipy is imported only inside the functions that need it (the Gaussian
and Student CDFs, the geometric omega = 0 assignment face, the Poisson
pmf, tails and grid), so ``import tabcop``, the ``analyze``, ``copula``
and ``couple`` verbs, the binomial, geometric and Goodman families, the
geometric grid at omega != 0 and the bivariate Binomial pmf never load
it.  The Gaussian and Student CDFs need only ``scipy.special`` and
``scipy.integrate``, never ``scipy.stats``.  Each check runs in a fresh
interpreter, since the test session itself has scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import contextlib, io, json, sys
import tabcop, tabcop.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

report = {"import": scipy_modules()}
with contextlib.redirect_stdout(io.StringIO()):
    report["analyze"] = tabcop.cli.run(["analyze", "--input", sys.argv[1]])
    report["copula"] = tabcop.cli.run(["copula", "--input", sys.argv[1],
                                       "--out", sys.argv[2]])
    report["couple"] = tabcop.cli.run(["couple", "--copula", sys.argv[2],
                                       "--row-margins", "0.603,0.397",
                                       "--col-margins", "0.475,0.525"])
report["verbs"] = scipy_modules()
families = [
    ["family", "--name", "binomial", "--N", "40", "--omega", "2.5"],
    ["family", "--name", "geometric", "--N", "6", "--omega", "0.5"],
    ["family", "--name", "goodman", "--shape", "3x4", "--theta", "2"],
    ["grid", "--name", "geometric", "--N", "8", "--omega", "2"],
]
with contextlib.redirect_stdout(io.StringIO()):
    report["family_codes"] = [tabcop.cli.run(argv) for argv in families]
tabcop.bivariate_binomial_pmf(40, tabcop.bernoulli_copula(2.5))
report["families"] = scipy_modules()
spec = tabcop.ContinuousCopulaSpec("gaussian", {"rho": 0.5})
report["gaussian_is_copula"] = tabcop.is_copula_pmf(tabcop.discretize_copula(spec, 4, 4))
report["after_gaussian"] = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    report["student_code"] = tabcop.cli.run(["family", "--name", "student", "--rho", "0.5",
                                             "--df", "4", "--shape", "4x4"])
report["stats_after_student"] = [m for m in scipy_modules() if m.startswith("scipy.stats")]
print(json.dumps(report))
"""


def test_cli_verbs_load_no_scipy(tmp_path):
    lin = tmp_path / "lin.csv"
    lin.write_text("26,1\n5,18\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(lin), str(tmp_path / "lincop.csv")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["import"] == []
    assert (report["analyze"], report["copula"], report["couple"]) == (0, 0, 0)
    assert report["verbs"] == []
    assert report["family_codes"] == [0, 0, 0, 0]
    assert report["families"] == []
    assert report["gaussian_is_copula"] is True
    assert report["after_gaussian"]
    assert report["student_code"] == 0
    assert report["stats_after_student"] == []
