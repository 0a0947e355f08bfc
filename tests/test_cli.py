import json

import numpy as np
import pytest

from tabcop import scaling
from tabcop.cli import run
from tabcop.pmf_core import parse_table

from conftest import LIN_COUNTS


def write_lin(tmp_path):
    path = tmp_path / "lin.csv"
    path.write_text("26,1\n5,18\n")
    return str(path)


def read_matrix(text):
    return np.array(parse_table(text, "csv_counts"))


class TestAnalyze:
    def test_lin_report(self, tmp_path, capsys):
        code = run(["analyze", "--input", write_lin(tmp_path), "--format", "counts"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["omega_matrix"][0][0] == pytest.approx(93.6, abs=1e-9)
        assert report["upsilon"] == pytest.approx(0.813, abs=5e-4)
        assert report["classification"]["class"] == "A"
        assert report["diagnostics"]["class"] == "A"
        assert set(report["diagnostics"]) == {
            "iterations", "margin_error", "class", "rate", "forced_zeros",
            "method", "newton_steps",
        }
        np.testing.assert_allclose(report["pmf"], LIN_COUNTS / 50.0, atol=1e-15)

    def test_infeasible_exits_2(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        path.write_text("0,0,1\n0,0,1\n1,1,1\n")
        code = run(["analyze", "--input", str(path)])
        assert code == 2
        report = json.loads(capsys.readouterr().out)
        assert report["classification"]["class"] == "C"
        assert report["copula_pmf"] is None
        assert report["upsilon"] is None

    def test_forced_zero_table(self, tmp_path, capsys):
        path = tmp_path / "b2.csv"
        path.write_text("0,3\n3,4\n")
        assert run(["analyze", "--input", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["classification"]["class"] == "B2"
        assert report["classification"]["forced_zeros"] == [[1, 1]]
        assert report["diagnostics"]["forced_zeros"] == [[1, 1]]
        np.testing.assert_allclose(
            report["copula_pmf"], [[0.0, 0.5], [0.5, 0.0]], atol=1e-12
        )
        assert report["upsilon"] == -1.0

    def test_omega_sentinels(self, tmp_path, capsys):
        path = tmp_path / "z.csv"
        path.write_text("0.25,0.25,0\n0.25,0,0.25\n")
        code = run(["analyze", "--input", str(path), "--format", "probs"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["omega_matrix"][0][0] == 0.0
        assert report["omega_matrix"][0][1] == "inf"

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("26,1\n5,18\n"))
        assert run(["analyze", "--input", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["omega_matrix"][0][0] == \
            pytest.approx(93.6, abs=1e-9)


    @pytest.mark.parametrize("table, tag, code", [
        ("26,1\n5,18\n", "A", 0),
        ("0,3\n3,4\n", "B2", 0),
        ("0,0,1\n0,0,1\n1,1,1\n", "C", 2),
    ])
    def test_classifies_once(self, tmp_path, capsys, monkeypatch, table, tag, code):
        calls = []
        classify = scaling.classify_existence

        def counted(*args):
            calls.append(args)
            return classify(*args)

        monkeypatch.setattr(scaling, "classify_existence", counted)
        path = tmp_path / "t.csv"
        path.write_text(table)
        assert run(["analyze", "--input", str(path)]) == code
        assert json.loads(capsys.readouterr().out)["classification"]["class"] == tag
        assert len(calls) == 1


class TestCopulaAndCouple:
    def test_copula_csv(self, tmp_path, capsys):
        assert run(["copula", "--input", write_lin(tmp_path)]) == 0
        cop = read_matrix(capsys.readouterr().out)
        np.testing.assert_allclose(cop, [[0.453, 0.047], [0.047, 0.453]], atol=5e-4)

    def test_couple_reproduces_completed_table(self, tmp_path, capsys):
        cop_path = tmp_path / "cop.csv"
        assert run(["copula", "--input", write_lin(tmp_path),
                    "--out", str(cop_path)]) == 0
        assert run([
            "couple", "--copula", str(cop_path),
            "--row-margins", "0.603,0.397", "--col-margins", "0.475,0.525",
        ]) == 0
        coupled = read_matrix(capsys.readouterr().out)
        np.testing.assert_allclose(
            coupled, [[0.462, 0.141], [0.013, 0.383]], atol=1e-3
        )

    def test_round_trip(self, tmp_path, capsys):
        lin = write_lin(tmp_path)
        cop_path = tmp_path / "cop.csv"
        assert run(["copula", "--input", lin, "--out", str(cop_path)]) == 0
        assert run([
            "couple", "--copula", str(cop_path),
            "--row-margins", "0.54,0.46", "--col-margins", "0.62,0.38",
        ]) == 0
        back = read_matrix(capsys.readouterr().out)
        np.testing.assert_allclose(back, LIN_COUNTS / 50.0, atol=1e-9)

    def test_full_precision_round_trip(self, tmp_path, capsys):
        from tabcop import scaling
        from tabcop.pmf_core import from_counts

        assert run(["copula", "--input", write_lin(tmp_path)]) == 0
        printed = read_matrix(capsys.readouterr().out)
        exact, _ = scaling.copula_pmf(from_counts(LIN_COUNTS))
        # 17 significant digits survive the text round trip bit-exactly
        np.testing.assert_array_equal(printed, exact.values)


class TestFamilyVerb:
    def test_goodman_independence(self, capsys):
        assert run(["family", "--name", "goodman", "--theta", "1",
                    "--shape", "3x3"]) == 0
        out = read_matrix(capsys.readouterr().out)
        np.testing.assert_array_equal(out, np.full((3, 3), 1 / 9))

    def test_bernoulli_family(self, capsys):
        assert run(["family", "--name", "bernoulli", "--omega", "93.6"]) == 0
        out = read_matrix(capsys.readouterr().out)
        np.testing.assert_allclose(out, [[0.453, 0.047], [0.047, 0.453]], atol=5e-4)

    def test_binomial_family(self, capsys):
        assert run(["family", "--name", "binomial", "--N", "2",
                    "--omega", "2.0"]) == 0
        assert read_matrix(capsys.readouterr().out).shape == (3, 3)

    def test_geometric_inf_omega(self, capsys):
        assert run(["family", "--name", "geometric", "--N", "3",
                    "--omega", "inf"]) == 0
        out = read_matrix(capsys.readouterr().out)
        np.testing.assert_allclose(out, np.eye(3) / 3, atol=1e-12)

    def test_gaussian_family(self, capsys):
        assert run(["family", "--name", "gaussian", "--rho", "-0.5",
                    "--shape", "3x3"]) == 0
        out = read_matrix(capsys.readouterr().out)
        assert out.shape == (3, 3)
        assert np.abs(out.sum(axis=1) - 1 / 3).max() < 1e-12

    def test_missing_parameter_exits_1(self, capsys):
        assert run(["family", "--name", "goodman", "--shape", "3x3"]) == 1
        assert "requires" in capsys.readouterr().err


class TestGridAndPlot:
    def test_grid_then_heatmap(self, tmp_path):
        grid_path = tmp_path / "g.txt"
        assert run(["grid", "--name", "geometric", "--omega", "2", "--N", "8",
                    "--out", str(grid_path)]) == 0
        ppm_path = tmp_path / "g.ppm"
        assert run(["plot", "--kind", "heatmap", "--grid", str(grid_path),
                    "--out", str(ppm_path)]) == 0
        data = ppm_path.read_bytes()
        assert data.startswith(b"P6\n8 8\n255\n")

    def test_poisson_grid_guard(self, capsys):
        assert run(["grid", "--name", "poisson", "--omega", "0.2",
                    "--N", "4"]) == 1
        assert "increase" in capsys.readouterr().err

    def test_confetti_from_csv(self, tmp_path):
        cop_path = tmp_path / "cop.csv"
        run(["copula", "--input", write_lin(tmp_path), "--out", str(cop_path)])
        svg_path = tmp_path / "c.svg"
        assert run(["plot", "--kind", "confetti", "--input", str(cop_path),
                    "--out", str(svg_path)]) == 0
        assert svg_path.read_text().startswith("<?xml")

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        cop_path = tmp_path / "cop.csv"
        run(["copula", "--input", write_lin(tmp_path), "--out", str(cop_path)])
        run(["plot", "--kind", "confetti", "--input", str(cop_path), "--out", str(a)])
        run(["plot", "--kind", "confetti", "--input", str(cop_path), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestErrorPaths:
    def test_missing_file(self, capsys):
        assert run(["analyze", "--input", "/nonexistent/table.csv"]) == 1
        assert "error" in capsys.readouterr().err

    def test_ragged_table(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n")
        assert run(["analyze", "--input", str(path)]) == 1

    def test_couple_with_non_copula(self, tmp_path, capsys):
        path = tmp_path / "notcop.csv"
        path.write_text("0.52,0.02\n0.10,0.36\n")
        assert run(["couple", "--copula", str(path),
                    "--row-margins", "0.5,0.5", "--col-margins", "0.5,0.5"]) == 1
