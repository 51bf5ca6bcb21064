import pytest

from sourceseek.cli import main


def _cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


class TestSimulateCommand:
    def test_passing_run_exits_zero(self, tmp_path):
        cfg = _cfg(
            tmp_path,
            "[scenario]\nscheme = newton\nt_end = 30.0\nball_radius = 1.0\n",
        )
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "simulate_report.txt").exists()
        csvs = list(out.glob("trajectory_*.csv"))
        assert len(csvs) == 1
        header = csvs[0].read_text().splitlines()[0]
        assert header == "t,s0,s1,s2,s3"

    def test_failing_check_exits_one(self, tmp_path):
        cfg = _cfg(
            tmp_path,
            "[scenario]\nscheme = newton\nt_end = 5.0\nball_radius = 0.1\n",
        )
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_missing_config_exits_two(self, tmp_path, capsys):
        code = main(
            ["simulate", "--config", str(tmp_path / "nope.cfg"),
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_value_exits_two(self, tmp_path):
        cfg = _cfg(tmp_path, "[scenario]\nscheme = newton\nd0 = -2.0\n")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2


class TestCompareCommand:
    def test_reference_comparison_passes(self, tmp_path):
        cfg = _cfg(tmp_path, "[compare]\nball_radius = 0.75\n")
        out = tmp_path / "out"
        code = main(["compare", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        text = (out / "compare_report.txt").read_text()
        assert "newton_entry_time = " in text
        assert "gradient_entry_time = none" in text
        assert "check_ordering = pass" in text
        assert len(list(out.glob("trajectory_*.csv"))) == 2

    def test_unreachable_ball_fails(self, tmp_path):
        cfg = _cfg(tmp_path, "[compare]\nball_radius = 0.2\nt_end = 10.0\n")
        code = main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1


    def test_invalid_start_exits_two(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "[compare]\nd0 = -1.0\n")
        code = main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "d > 0" in capsys.readouterr().err


class TestSweepCommands:
    def test_omega_sweep(self, tmp_path):
        cfg = _cfg(tmp_path, "[sweep_omega]\nt_end = 8.0\n")
        out = tmp_path / "out"
        code = main(["sweep-omega", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        text = (out / "omega_sweep_report.txt").read_text()
        assert "check_newton_deviation = pass" in text
        assert "averaged_identical_across_sweep = True" in text

    def test_omega_flag_overrides(self, tmp_path):
        cfg = _cfg(tmp_path, "[sweep_omega]\nt_end = 8.0\n")
        out = tmp_path / "out"
        code = main(
            ["sweep-omega", "--config", str(cfg), "--out", str(out),
             "--omega", "25", "--omega", "50", "--omega", "100"]
        )
        assert code == 0
        assert "omega_25" in (out / "omega_sweep_report.txt").read_text()

    def test_hessian_sweep(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["sweep-hessian", "--out", str(out), "--hessian", "0.01", "--hessian", "1.0"]
        )
        assert code == 0
        text = (out / "hessian_sweep_report.txt").read_text()
        assert "check_newton_invariant = pass" in text
        assert "check_gradient_proportional = pass" in text


    def test_omega_sweep_invalid_start_exits_two(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "[sweep_omega]\nd0 = 0.0\n")
        code = main(["sweep-omega", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "d > 0" in capsys.readouterr().err

    def test_hessian_sweep_invalid_start_exits_two(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "[sweep_hessian]\nnu0 = nan\n")
        code = main(
            ["sweep-hessian", "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "nu0 must be finite" in capsys.readouterr().err


class TestAverageCommand:
    @pytest.mark.parametrize("scheme", ["gradient", "newton"])
    def test_report_and_agreement(self, tmp_path, scheme):
        out = tmp_path / "out"
        code = main(["average", "--scheme", scheme, "--out", str(out)])
        assert code == 0
        text = (out / f"averaging_report_{scheme}.txt").read_text()
        assert "gamma_0_1 = class=finite" in text
        assert "ok = True" in text
        assert "check_agreement = pass" in text


class TestCertifyCommand:
    def test_certificate_report(self, tmp_path):
        out = tmp_path / "out"
        code = main(["certify", "--out", str(out)])
        assert code == 0
        text = (out / "stability_report.txt").read_text()
        assert "check_vdot = pass" in text
        assert "check_iss = pass" in text
        assert "[linearization averaged_newton]" in text

    def test_seed_draws_the_iss_points(self, tmp_path):
        def certify(seed, name):
            out = tmp_path / name
            assert main(["certify", "--seed", str(seed), "--out", str(out)]) == 0
            return (out / "stability_report.txt").read_text()

        def iss_margin_min(text):
            return next(l for l in text.splitlines() if l.startswith("iss_margin_min"))

        first, again, other = certify(1, "a"), certify(1, "b"), certify(2, "c")
        assert first == again
        assert iss_margin_min(first) != iss_margin_min(other)
