"""Command line interface: subcommands, formats, exit codes, determinism."""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from meanlab import cli
from meanlab import expr as ex

EBM_WITNESS = [
    "check-equality",
    "--f", "sin(x)", "--g", "cos(x)", "--F", "x", "--G", "1",
    "--measure", "ebm", "--lo", "-0.7", "--hi", "0.7", "--grid", "10",
]


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0, err
    return json.loads(out)


class TestEval:
    def test_geometric_mean_text(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["eval", "--f", "log(x)", "--g", "1", "--measure", "ebm",
             "--x", "1", "--y", "4"],
        )
        assert code == 0
        assert out.strip() == "2.0"

    def test_json_envelope(self, capsys):
        doc = run_json(
            capsys,
            ["eval", "--f", "log(x)", "--g", "1", "--measure", "ebm",
             "--x", "1", "--y", "4"],
        )
        assert doc["schema"] == "meanlab-report/1"
        assert doc["command"] == "eval"
        assert doc["version"]
        assert doc["result"]["value"] == pytest.approx(2.0, abs=1e-10)
        assert doc["config"]["measure"] == {"type": "atoms", "atoms": [[0.0, 0.5], [1.0, 0.5]]}

    def test_default_interval_pads_hull(self, capsys):
        doc = run_json(
            capsys,
            ["eval", "--f", "x", "--g", "1", "--x", "2", "--y", "3"],
        )
        # pad is 0.05 * (span + 1) around the hull of the arguments
        assert doc["config"]["lo"] == pytest.approx(2.0 - 0.1)
        assert doc["config"]["hi"] == pytest.approx(3.0 + 0.1)

    def test_explicit_interval_respected(self, capsys):
        doc = run_json(
            capsys,
            ["eval", "--f", "x", "--g", "1", "--x", "2", "--y", "3",
             "--lo", "1", "--hi", "5"],
        )
        assert doc["config"]["lo"] == 1.0 and doc["config"]["hi"] == 5.0

    @pytest.mark.parametrize("argv", [
        # y lies past the one end given
        ["--f", "sin(x)", "--g", "cos(x)", "--x", "0.1", "--y", "0.5", "--hi", "0.3"],
        # log is inadmissible on (-1, 2.1)
        ["--f", "log(x)", "--g", "1", "--x", "0.5", "--y", "2", "--lo", "-1"],
    ])
    def test_one_interval_end_alone_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, ["eval", *argv])
        assert (code, out) == (2, "")
        assert "ValueError" in err and "--lo and --hi go together" in err

    def test_parse_error_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, ["eval", "--f", "bogus(", "--g", "1", "--x", "1", "--y", "2"]
        )
        assert code == 2
        assert "ParseError" in err

    def test_zero_divisor_exits_2_at_its_point(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["eval", "--f", "1/x", "--g", "1", "--x", "-0.5", "--y", "0.5", "--lo", "-1", "--hi", "1"],
        )
        assert (code, out) == (2, "")
        assert err.strip() == (
            "error (NonSmooth): function not smooth to the requested order at 0.0: division by zero at 0.0"
        )

    def test_point_outside_interval_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["eval", "--f", "x", "--g", "1", "--x", "0.1", "--y", "0.9",
             "--lo", "0.2", "--hi", "1.0"],
        )
        assert code == 2
        assert "OutOfInterval" in err

    @pytest.mark.parametrize("lo, hi", [("-inf", "inf"), ("-1.7e308", "1.7e308")])
    def test_interval_with_an_infinite_end_or_width_exits_2(self, capsys, lo, hi):
        argv = ["eval", "--f", "x", "--g", "1", "--x", "0", "--y", "1", f"--lo={lo}", f"--hi={hi}"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.strip() == (
            f"error (ValueError): interval ({float(lo)!r}, {float(hi)!r}) has an infinite end or width"
        )


class TestMoments:
    def test_lebesgue_text_with_regime(self, capsys):
        code, out, err = run_cli(capsys, ["moments", "--measure", "lebesgue", "--nmax", "6"])
        assert code == 0
        assert "mu2 = 0.0833333333333333" in out
        assert "regime = even_symmetric" in out
        # p = 3 mu2^2 / mu4 - 1 = 2/3; the float formula lands within a few
        # ulp of it, and the floats nearest 2/3 print as 0.66666666666666x
        p_line = next(line for line in out.splitlines() if line.startswith("p = "))
        assert abs(float(p_line[len("p = "):]) - 2.0 / 3.0) <= 4e-16

    def test_small_nmax_skips_regime(self, capsys):
        code, out, err = run_cli(capsys, ["moments", "--measure", "ebm", "--nmax", "4"])
        assert code == 0
        assert "regime" not in out
        assert "mu4 = 0.0625" in out

    def test_json_values(self, capsys):
        doc = run_json(capsys, ["moments", "--measure", "lebesgue", "--nmax", "6"])
        mu = doc["result"]["mu"]
        assert mu[2] == pytest.approx(1.0 / 12.0, abs=1e-14)
        assert mu[4] == pytest.approx(1.0 / 80.0, abs=1e-14)
        assert mu[6] == pytest.approx(1.0 / 448.0, abs=1e-14)
        assert doc["result"]["regime"]["p"] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_unknown_preset_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["moments", "--measure", "nope"])
        assert code == 2
        assert "unknown measure preset" in err

    def test_malformed_measure_json_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["moments", "--measure", '{"type": "atoms"}'])
        assert code == 2
        assert "error (ValueError)" in err and "'atoms'" in err

    def test_quadrature_order_above_the_bound_exits_2(self, capsys):
        spec = '{"type": "density", "rho": "1", "order": 101}'
        code, out, err = run_cli(capsys, ["moments", "--measure", spec])
        assert (code, out) == (2, "")
        assert err.strip() == "error (ValueError): quadrature order 101 is above 100"

    @pytest.mark.parametrize("order", ["1", "101", "true", '"7"'])
    def test_bad_lebesgue_order_exits_2(self, capsys, order):
        spec = f'{{"type": "lebesgue", "order": {order}}}'
        code, out, err = run_cli(capsys, ["moments", "--measure", spec])
        assert (code, out) == (2, "")
        assert err.startswith("error (ValueError): ")

    def test_unknown_measure_key_exits_2(self, capsys):
        argv = ["eval", "--f", "log(x)", "--g", "1.3", "--x", "1.25", "--y", "2.9",
                "--lo", "1.2", "--hi", "3.0", "--measure", '{"type": "lebesgue", "ordr": 7}']
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error (ValueError): measure type 'lebesgue' takes no key 'ordr'")

    def test_boolean_atom_location_exits_2(self, capsys):
        spec = '{"type": "atoms", "atoms": [[true, 0.5], [0, 0.5]]}'
        argv = [a if a != "ebm" else spec for a in EBM_WITNESS]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert "error (ValueError)" in err and "[True, 0.5]" in err


class TestClassify:
    def test_binary_symmetric(self, capsys):
        doc = run_json(capsys, ["classify", "--measure", "ebm"])
        assert doc["result"]["regime"] == "even_symmetric"
        assert doc["result"]["p"] == pytest.approx(2.0, abs=1e-14)

    def test_json_measure_argument(self, capsys):
        spec = json.dumps({"type": "atoms", "atoms": [[0.0, 0.3], [0.7, 0.7]]})
        doc = run_json(capsys, ["classify", "--measure", spec])
        assert doc["result"]["regime"] == "mu3_nonzero"


class TestDerivatives:
    def test_closed_form_values(self, capsys):
        doc = run_json(
            capsys,
            ["derivatives", "--f", "log(x)", "--g", "1", "--measure", "ebm",
             "--x", "1", "--lo", "0.25", "--hi", "4"],
        )
        ms = doc["result"]["closed_form"]
        assert ms[1] == pytest.approx(-0.25, abs=1e-12)
        assert ms[3] == pytest.approx(-3.0 / 16.0, abs=1e-12)
        assert ms[5] == pytest.approx(-45.0 / 64.0, abs=1e-12)
        assert "numeric" not in doc["result"]

    def test_numeric_cross_check(self, capsys):
        doc = run_json(
            capsys,
            ["derivatives", "--f", "log(x)", "--g", "1", "--measure", "ebm",
             "--x", "1", "--lo", "0.25", "--hi", "4", "--numeric", "--radius", "0.5"],
        )
        closed = doc["result"]["closed_form"]
        numeric = doc["result"]["numeric"]
        assert numeric[1] == pytest.approx(closed[1], abs=1e-6)
        assert doc["config"]["radius"] == 0.5

    @pytest.mark.parametrize("radius", ["1e-300", "1e-40", "nan", "inf", "-0.1", "1e60"])
    def test_unusable_radius_exits_2(self, capsys, radius):
        code, out, err = run_cli(capsys, [
            "derivatives", "--f", "exp(x)", "--g", "1", "--x", "0.2", "--lo", "-0.5", "--hi", "0.9",
            "--numeric", "--radius", radius,
        ])
        assert code == 2 and out == ""
        assert err.startswith(f"error (ValueError): radius {float(radius)!r} ")


class TestCheckEquality:
    def test_binary_symmetric_battery(self, capsys):
        doc = run_json(capsys, EBM_WITNESS)
        result = doc["result"]
        assert result["battery"] == "EBM"
        assert result["all_hold"] is True
        assert result["fitted"]["alpha"] == pytest.approx(-1.0, abs=1e-8)
        assert result["fitted"]["beta"] == pytest.approx(0.0, abs=1e-8)

    def test_text_battery_lines(self, capsys):
        code, out, err = run_cli(capsys, EBM_WITNESS)
        assert code == 0
        assert out.count("[PASS]") == 9
        assert "verdict: all assertions hold" in out

    def test_lebesgue_dispatch(self, capsys):
        argv = [a if a != "ebm" else "lebesgue" for a in EBM_WITNESS]
        doc = run_json(capsys, argv)
        assert doc["result"]["battery"] == "ECM"
        assert doc["result"]["all_hold"] is True

    def test_third_moment_dispatch(self, capsys):
        spec = json.dumps({"type": "atoms", "atoms": [[0.0, 0.3], [0.7, 0.7]]})
        argv = [a if a != "ebm" else spec for a in EBM_WITNESS]
        doc = run_json(capsys, argv)
        assert doc["result"]["battery"] == "N1.5"
        assert doc["result"]["all_hold"] is False

    def test_split_dispatch(self, capsys):
        s = 0.21378583129651413
        spec = json.dumps(
            {"type": "atoms", "atoms": [[0.0, 0.6 - s], [0.6, 0.4], [1.0, s]]}
        )
        argv = [a if a != "ebm" else spec for a in EBM_WITNESS]
        doc = run_json(capsys, argv)
        assert doc["result"]["battery"] == "N2.5"
        assert doc["result"]["alternative"] == "power_law"
        assert doc["result"]["holds"] is False

    def test_even_fragment_dispatch(self, capsys):
        spec = json.dumps(
            {"type": "atoms", "atoms": [[0.0, 1 / 6], [0.5, 2 / 3], [1.0, 1 / 6]]}
        )
        argv = [a if a != "ebm" else spec for a in EBM_WITNESS]
        doc = run_json(capsys, argv)
        assert doc["result"]["battery"] == "N3"
        assert doc["result"]["alternative"] == "iii"
        assert doc["result"]["holds"] is True
        assert doc["result"]["r"] == pytest.approx(-1.0, abs=1e-10)

    def test_sixth_order_boundary_dispatch(self, capsys):
        # mu6 = 5 mu2 mu4 at the zero tolerance; N3 once exited 1 here with
        # an internal TypeError. Phi vanishes, so the verdict is vacuous
        spec = json.dumps({"type": "atoms", "atoms": [
            [0.2369580832448388, 0.09999999849054474],
            [0.5, 0.8000000030189105],
            [0.7630419167551612, 0.09999999849054474],
        ]})
        argv = [a if a != "ebm" else spec for a in EBM_WITNESS]
        argv[argv.index("--grid") + 1] = "20"
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        doc = run_json(capsys, argv)
        assert doc["result"]["battery"] == "N3"
        assert doc["result"]["alternative"] == "ii"

    def test_ladder_text_ends_with_verdict_and_notes(self, capsys):
        code, out, err = run_cli(capsys, EBM_WITNESS)
        lines = out.splitlines()
        assert lines[0] == "battery EBM on (-0.7, 0.7)"
        assert lines[-3].startswith("fitted: alpha = ")
        assert lines[-2:] == [
            "verdict: all assertions hold",
            "note: all verdicts are grid certificates at the reported grid",
        ]

    @pytest.mark.parametrize(
        "battery, f, g, atoms, status, want, verdict",
        [
            # the Phi functions of (exp, 1) and (x, 1) differ
            (
                "N2.5", "exp(x)", "1",
                [[0.0, 0.6 - 0.21378583129651413], [0.6, 0.4], [1.0, 0.21378583129651413]],
                r"\[FAIL\] \(power_law\) residual 5\.197e\+00 tol 1\.0e-08  "
                r"the Phi functions differ; residuals measured against the first pair",
                {"gamma": 0.0},
                "verdict: failing: power_law",
            ),
            # two symmetric atoms: branch (iv), and the exponents collapse
            (
                "N3", "sin(x)", "cos(x)", [[0.1, 0.5], [0.9, 0.5]],
                r"\[PASS\] \(iv\) residual \S+ tol 1\.0e-08  single power law \(exponents collapse\)",
                {"alpha": -1.0, "beta": 0.0, "delta": -0.5, "gamma": -0.5},
                "verdict: all assertions hold",
            ),
            # rows without a note, (iii) and (iv) without collapse, end at the tolerance
            (
                "N3", "sin(x)", "cos(x)", [[0.0, 1 / 6], [0.5, 2 / 3], [1.0, 1 / 6]],
                r"\[PASS\] \(iii\) residual \S+ tol 1\.0e-08",
                {"delta": -0.5, "gamma": -0.5},
                "verdict: all assertions hold",
            ),
            (
                "N3", "sin(x)", "cos(x)", [[0.0, 0.2], [0.5, 0.6], [1.0, 0.2]],
                r"\[PASS\] \(iv\) residual \S+ tol 1\.0e-08",
                {"delta": -0.5, "gamma": -0.5},
                "verdict: all assertions hold",
            ),
        ],
        ids=["split", "collapse", "fourth_only", "even"],
    )
    def test_branch_text(self, capsys, battery, f, g, atoms, status, want, verdict):
        # a one-row battery prints as a ladder: its row, the fitted constants, the verdict
        spec = json.dumps({"type": "atoms", "atoms": atoms})
        argv = EBM_WITNESS[:1] + ["--f", f, "--g", g] + EBM_WITNESS[5:]
        code, out, err = run_cli(capsys, [a if a != "ebm" else spec for a in argv])
        assert code == 0, err
        head, status_line, fitted_line, verdict_line = out.splitlines()
        assert head == f"battery {battery} on (-0.7, 0.7)"
        assert re.fullmatch(status, status_line)
        assert fitted_line.startswith("fitted: ")
        got = dict(item.split(" = ") for item in fitted_line.removeprefix("fitted: ").split(", "))
        assert list(got) == list(want)
        for name, value in want.items():
            assert float(got[name]) == pytest.approx(value, abs=1e-10)
        assert verdict_line == verdict

    def test_tolerance_override_echoed(self, capsys):
        # (exp, 1) vs (x, 1): unequal means, so (i) fails whatever the
        # tolerances; a loose quasiarithmetic tolerance flips (viii) and (ix)
        argv = EBM_WITNESS[:1] + ["--f", "exp(x)", "--g", "1"] + EBM_WITNESS[5:]
        base = run_json(capsys, argv)
        assert base["result"]["failing"] == ["i", "ii", "iii", "iv", "v", "vi", "viii", "ix"]
        doc = run_json(capsys, argv + ["--tol", "quasiarithmetic_gap=1"])
        assert doc["config"]["tolerances"] == {"quasiarithmetic_gap": 1.0}
        assert doc["result"]["tolerances"]["quasiarithmetic_gap"] == 1.0
        assert doc["result"]["failing"] == ["i", "ii", "iii", "iv", "v", "vi"]
        assert any("(ix) holds but (i) fails" in n for n in doc["result"]["notes"])

    def test_bad_tolerance_exits_2(self, capsys):
        n3_measure = json.dumps(
            {"type": "atoms", "atoms": [[0.0, 1 / 6], [0.5, 2 / 3], [1.0, 1 / 6]]}
        )
        n3 = [a if a != "ebm" else n3_measure for a in EBM_WITNESS]
        for argv, item, says in (
            (EBM_WITNESS, "nonsense", "name=value"),
            (EBM_WITNESS, "mean_gp=1", "unknown tolerance mean_gp; known: constancy_spread"),
            (n3, "fit_residual=1", "battery N3 takes no tolerance overrides"),
        ):
            code, out, err = run_cli(capsys, argv + ["--tol", item])
            assert code == 2, item
            assert says in err

    def test_nonpositive_tolerance_exits_2(self, capsys):
        code, out, err = run_cli(capsys, EBM_WITNESS + ["--tol", "mean_gap=0"])
        assert code == 2
        assert "positive" in err

    def test_empty_interval_exits_2(self, capsys):
        code, out, err = run_cli(capsys, EBM_WITNESS[:-6] + ["--lo", "1", "--hi", "0", "--grid", "10"])
        assert (code, out) == (2, "")
        assert "empty interval" in err

    def test_signed_density_exits_2(self, capsys):
        # a signed density is an input error, not an internal one (exit 1)
        density = json.dumps({"type": "density", "rho": "2 - 12*(x - 0.5)^2"})
        argv = EBM_WITNESS[:1] + ["--f", "exp(x)", "--g", "1"] + EBM_WITNESS[5:]
        code, out, err = run_cli(capsys, [a if a != "ebm" else density for a in argv])
        assert (code, out) == (2, "")
        assert err.startswith("error (ValueError): density value -0.98360563045282")

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_nonfinite_tolerance_exits_2(self, capsys, value):
        # an infinite mean_gap would let row (i) pass on pairs whose means
        # differ, and strict JSON has no Infinity
        argv = EBM_WITNESS[:1] + ["--f", "exp(x)", "--g", "1"] + EBM_WITNESS[5:]
        code, out, err = run_cli(capsys, argv + ["--format", "json", "--tol", f"mean_gap={value}"])
        assert (code, out) == (2, "")
        assert "mean_gap must be positive and finite" in err


class TestMakePair:
    def test_trig_text(self, capsys):
        code, out, err = run_cli(
            capsys, ["make-pair", "--alpha", "-1", "--phi", "x", "--lo", "-0.7", "--hi", "0.7"]
        )
        assert code == 0
        assert "f = sin(x)" in out and "g = cos(x)" in out

    def test_result_round_trips_through_parser(self, capsys):
        doc = run_json(
            capsys,
            ["make-pair", "--alpha", "2.5", "--phi", "0.5 * x", "--cauchy",
             "--lo", "-0.4", "--hi", "0.4"],
        )
        pair = ex.validate_pair(doc["result"]["f"], doc["result"]["g"], (-0.4, 0.4))
        assert ex.compile_scalar(pair.g)(0.0) > 0.0

    def test_invalid_domain_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, ["make-pair", "--alpha", "-1", "--phi", "x", "--lo", "-2", "--hi", "2"]
        )
        assert code == 2
        assert "NotPositive" in err


class TestPlumbing:
    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, err = run_cli(
            capsys,
            ["moments", "--measure", "ebm", "--format", "json", "--output", str(target)],
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["command"] == "moments"

    def test_missing_required_flag_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--f", "x", "--g", "1", "--x", "1"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "meanlab" in capsys.readouterr().out

    def test_subprocess_runs_are_byte_identical(self):
        argv = [sys.executable, "-m", "meanlab.cli"] + EBM_WITNESS + ["--format", "json"]
        first = subprocess.run(argv, capture_output=True, text=True, check=True)
        second = subprocess.run(argv, capture_output=True, text=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.strip()


class TestParserCache:
    # (exp, 1) vs (x, 1) under EBM, then eval, then the EBM witness with
    # another override, then no override at all
    RUNS = [
        EBM_WITNESS[:1] + ["--f", "exp(x)", "--g", "1"] + EBM_WITNESS[5:]
        + ["--tol", "quasiarithmetic_gap=1", "--tol", "mean_gap=0.5", "--format", "json"],
        ["eval", "--f", "log(x)", "--g", "1", "--x", "1", "--y", "4", "--format", "json"],
        EBM_WITNESS + ["--tol", "mean_gap=0.25", "--format", "json"],
        EBM_WITNESS + ["--format", "json"],
    ]

    def _outputs(self, capsys, fresh: bool):
        outs = []
        for argv in self.RUNS:
            if fresh:
                cli._build_parser.cache_clear()
            code, out, err = run_cli(capsys, argv)
            assert code == 0, err
            outs.append(out)
        return outs

    def test_one_parser_gives_the_output_of_fresh_ones(self, capsys):
        cli._build_parser.cache_clear()
        cached = self._outputs(capsys, fresh=False)
        assert cli._build_parser.cache_info().misses == 1
        assert cli._build_parser() is cli._build_parser()
        assert cached == self._outputs(capsys, fresh=True)
        tols = [json.loads(out)["config"].get("tolerances") for out in cached]
        assert tols == [{"quasiarithmetic_gap": 1.0, "mean_gap": 0.5}, None, {"mean_gap": 0.25}, {}]

    def test_appended_values_do_not_leak(self):
        parser = cli._build_parser()
        assert parser.parse_args(self.RUNS[0]).tol == ["quasiarithmetic_gap=1", "mean_gap=0.5"]
        assert parser.parse_args(self.RUNS[2]).tol == ["mean_gap=0.25"]
        assert parser.parse_args(self.RUNS[3]).tol is None

    def test_errors_and_version_after_reuse(self, capsys):
        run_cli(capsys, self.RUNS[2])
        code, out, err = run_cli(capsys, EBM_WITNESS + ["--tol", "nonsense"])
        assert code == 2 and "name=value" in err
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "meanlab" in capsys.readouterr().out
        code, out, err = run_cli(capsys, self.RUNS[3])
        assert code == 0 and json.loads(out)["config"]["tolerances"] == {}

