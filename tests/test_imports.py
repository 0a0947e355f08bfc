"""Import budget: the table verbs, the Gaussian copula and the Poisson tables run without scipy.

scipy is imported only inside the functions that need it (the Student
quantiles and the Gaussian CDF's lower tail), so ``import tabcop``, the
``analyze``, ``copula`` and ``couple`` verbs, the binomial, geometric and
Goodman families, the geometric and Poisson grids (omega = 0 included),
the truncated Poisson margin, the bivariate Binomial and Poisson pmfs,
the Poisson drift diagnostic, the independence, FGM, Clayton, Gumbel,
Frank and Gaussian CDFs and the ``family --name gaussian`` verb never
load it.  Those calls run with every scipy import made to raise and
recorded, so a fallback import inside an exception handler is seen too.
The Gaussian CDF takes its normal quantiles from ``statistics``, which
``import tabcop`` does not load either.  The Student CDF, the
``family --name student`` verb included, loads ``scipy.special`` for its
t quantiles and never ``scipy.integrate``: those calls run with only
``scipy.integrate`` made to raise and recorded.  Below about 1e-6 the
Gaussian CDF takes a conditional integral that loads ``scipy.special``
and ``scipy.integrate``; none of these loads ``scipy.stats``.  Each check
runs in a fresh interpreter, since the test session itself has scipy
loaded.
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

class Blocker:
    # raises on every import of the package ``root`` or below, and records
    # it, caught or not
    def __init__(self, root):
        self.root, self.attempts = root, []

    def find_spec(self, name, path=None, target=None):
        if name == self.root or name.startswith(self.root + "."):
            self.attempts.append(name)
            raise ImportError(f"{name} is blocked")
        return None

report = {"import": scipy_modules(), "statistics": "statistics" in sys.modules}
no_scipy = Blocker("scipy")
sys.meta_path.insert(0, no_scipy)
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
    ["family", "--name", "geometric", "--N", "8", "--omega", "0"],
    ["family", "--name", "goodman", "--shape", "3x4", "--theta", "2"],
    ["grid", "--name", "geometric", "--N", "8", "--omega", "2"],
    ["grid", "--name", "geometric", "--N", "8", "--omega", "0"],
]
with contextlib.redirect_stdout(io.StringIO()):
    report["family_codes"] = [tabcop.cli.run(argv) for argv in families]
tabcop.bivariate_binomial_pmf(40, tabcop.bernoulli_copula(2.5))
for name, params in (("independence", {}), ("fgm", {"theta": 0.5}), ("clayton", {"theta": 2.0}),
                     ("gumbel", {"theta": 2.0}), ("frank", {"theta": -3.0})):
    spec = tabcop.ContinuousCopulaSpec(name, params)
    tabcop.discretize_copula(spec, 5, 5)
    tabcop.copula_cdf(spec, 0.3, 0.6)
report["families"] = scipy_modules()
spec = tabcop.ContinuousCopulaSpec("gaussian", {"rho": 0.5})
report["gaussian_is_copula"] = tabcop.is_copula_pmf(tabcop.discretize_copula(spec, 4, 4))
tabcop.copula_cdf(spec, 0.3, 0.6)
with contextlib.redirect_stdout(io.StringIO()):
    report["gaussian_code"] = tabcop.cli.run(["family", "--name", "gaussian", "--rho", "0.5",
                                              "--shape", "15x15"])
report["after_gaussian"] = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    report["poisson_code"] = tabcop.cli.run(["grid", "--name", "poisson", "--N", "32",
                                              "--omega", "1"])
report["poisson_margin"] = tabcop.truncated_poisson_margin(2.0, 40).sum()
report["poisson_pmf"] = tabcop.bivariate_poisson_pmf(1.0, 0.5, 0.7, 24).values.sum()
report["poisson_drift"] = tabcop.infinite.upsilon_truncation_drift(0.2, 12)
report["after_poisson"] = scipy_modules()
report["blocked"] = no_scipy.attempts
sys.meta_path.remove(no_scipy)
no_integrate = Blocker("scipy.integrate")
sys.meta_path.insert(0, no_integrate)
with contextlib.redirect_stdout(io.StringIO()):
    report["student_code"] = tabcop.cli.run(["family", "--name", "student", "--rho", "0.5",
                                             "--df", "4", "--shape", "15x15"])
student = tabcop.ContinuousCopulaSpec("student", {"rho": 0.5, "df": 4.0})
report["student_cdf"] = tabcop.copula_cdf(student, 0.3, 0.6)
report["after_student"] = scipy_modules()
report["integrate_blocked"] = no_integrate.attempts
sys.meta_path.remove(no_integrate)
report["gaussian_tail"] = tabcop.copula_cdf(spec, 1e-30, 0.7)
report["after_gaussian_tail"] = scipy_modules()
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
    assert report["family_codes"] == [0] * 6
    assert report["families"] == []
    assert report["statistics"] is False
    assert report["gaussian_is_copula"] is True
    assert report["gaussian_code"] == 0
    assert report["after_gaussian"] == []
    assert report["poisson_code"] == 0
    assert abs(report["poisson_margin"] - 1.0) <= 1e-15
    assert abs(report["poisson_pmf"] - 1.0) <= 1e-14
    assert 0.0 < report["poisson_drift"] < 1.0
    assert report["after_poisson"] == []
    assert report["blocked"] == []
    assert report["student_code"] == 0
    assert 0.3 * 0.6 < report["student_cdf"] < 0.3
    assert "scipy.special" in report["after_student"]
    assert [m for m in report["after_student"] if m.startswith("scipy.integrate")] == []
    assert report["integrate_blocked"] == []
    assert 0.0 < report["gaussian_tail"] < 1e-30
    assert "scipy.special" in report["after_gaussian_tail"]
    assert "scipy.integrate" in report["after_gaussian_tail"]
    assert [m for m in report["after_gaussian_tail"] if m.startswith("scipy.stats")] == []
