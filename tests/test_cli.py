import re

import pytest

from sourceseek import Scheme, load_config, run_average, run_certify, run_compare, \
    run_hessian_invariance, run_omega_sweep, run_simulate
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


    @pytest.mark.parametrize("text", [
        "[compare]\nball_radius = 10\nt_end = 5\n",
        "[compare]\nx0 = 1, -1\nball_radius = 5\nt_end = 5\n",
    ], ids=["wide-ball", "start-near-source"])
    def test_gradient_start_inside_ball_reports_no_ratio(self, tmp_path, capsys,
                                                         text):
        # both runs enter at t = 0; the ordering check fails, nothing raises
        cfg = _cfg(tmp_path, text)
        out = tmp_path / "out"
        code = main(["compare", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        report = (out / "compare_report.txt").read_text()
        assert "gradient_entry_time = 0\nentry_ratio = none\n" in report

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
        assert "averaged_identical" not in text

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


    @pytest.mark.parametrize("argv, message", [
        (["sweep-hessian", "--hessian", "0.01", "--hessian", "0.1"], "two decades"),
        (["sweep-omega", "--omega", "20", "--omega", "10", "--omega", "5"],
         "increasing"),
        (["sweep-omega", "--omega", "-20", "--omega", "40", "--omega", "80"],
         "finite and positive"),
    ], ids=["hessians-one-decade", "omegas-decreasing", "omega-negative"])
    def test_rejected_override_exits_two(self, tmp_path, capsys, argv, message):
        code = main(argv + ["--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, text", [
        ("sweep-hessian", "[sweep_hessian]\nhessians = 0, 1\n"),
        ("sweep-omega", "[sweep_omega]\nomegas = -20, 40, 80\n"),
    ], ids=["zero-curvature", "negative-omega"])
    def test_nonpositive_sweep_value_in_config_exits_two(self, tmp_path, capsys,
                                                         command, text):
        cfg = _cfg(tmp_path, text)
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "must be finite and positive" in capsys.readouterr().err


class TestConfigErrors:
    @pytest.mark.parametrize("command, text", [
        ("compare", "[compare]\nx0 = nan, 1\n"),
        ("compare", "[compare]\nt_end = -1\n"),
        ("compare", "[compare]\nsamples_per_period = 10\n"),
        ("sweep-hessian", "[sweep_hessian]\nx0 = 1, 2, 3\n"),
        ("simulate", "[scenario]\noutput_stride = 0\n"),
        ("sweep-omega", "[sweep_omega]\nrecord_dt = 0\n"),
        ("sweep-omega", "[sweep_omega]\nt_end = -1\n"),
        ("sweep-omega", "[sweep_omega]\nslack = -5\n"),
        ("sweep-omega", "[sweep_omega]\nslack = inf\n"),
        ("certify", "[field]\nhessian = inf\n"),
        ("average", "[field]\nhessian = inf\n"),
        ("simulate", "[scenario]\nt_end = inf\n"),
        ("compare", "[compare]\nt_end = inf\n"),
        ("sweep-omega", "[sweep_omega]\nt_end = inf\n"),
        ("simulate", "[scenario]\nd_tolerance = nan\n"),
        ("simulate", "[scenario]\nd_tolerance = -1\n"),
        ("sweep-hessian", "[sweep_hessian]\nnewton_tolerance = nan\n"),
        ("sweep-hessian", "[sweep_hessian]\ngradient_tolerance = -0.5\n"),
        ("simulate", "[scenario]\nball_radius = inf\n"),
        ("compare", "[compare]\nball_radius = inf\n"),
        ("simulate", "[scenaro]\nt_end = 5\n"),
        ("certify", "[run]\nsead = 3\n"),
        ("sweep-hessian", "[sweep_hessian]\nx0 = 1, -1\n"),
        ("sweep-omega", "[sweep_omega]\nschemes = gradient, gradient\n"),
        ("simulate", "[scenario]\nsamples_per_period = 0\n"),
        ("simulate", "[scenario]\nframe = averaged_newton\nsamples_per_period = 0\n"),
    ], ids=["compare-x0-nan", "compare-t-end", "compare-coarse-sampling",
            "sweep-hessian-x0-3d", "scenario-stride-0", "sweep-omega-record-dt-0",
            "sweep-omega-t-end", "sweep-omega-slack", "sweep-omega-slack-inf",
            "certify-hessian-inf",
            "average-hessian-inf", "scenario-t-end-inf", "compare-t-end-inf",
            "sweep-omega-t-end-inf", "scenario-d-tolerance-nan",
            "scenario-d-tolerance-negative", "sweep-hessian-newton-tolerance-nan",
            "sweep-hessian-gradient-tolerance-negative", "scenario-ball-radius-inf",
            "compare-ball-radius-inf", "misspelled-section", "misspelled-run-key",
            "sweep-hessian-start-at-source", "sweep-omega-repeated-scheme",
            "scenario-samples-0", "averaged-scenario-samples-0"])
    def test_unrunnable_value_exits_two(self, tmp_path, capsys, command, text):
        cfg = _cfg(tmp_path, text)
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, text", [
        ([], "[run]\nseed = -3\n"),
        (["--seed", "-3"], ""),
    ], ids=["config", "flag"])
    def test_negative_seed_exits_two(self, tmp_path, capsys, argv, text):
        cfg = _cfg(tmp_path, text)
        code = main(["certify", "--config", str(cfg), "--out", str(tmp_path / "o")]
                    + argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "seed must be >= 0" in err


class TestIntegrationAborted:
    # the curvature-inverting original-frame loop from the default start
    # overflows at t = 0.035 on this steeper field
    CONFIG = ("[field]\nhessian = 0.5\nsource = 0, 2\n"
              "[scenario]\nscheme = newton\nframe = original\n")

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_abort_exits_one_without_traceback(self, tmp_path, capsys, command):
        cfg = _cfg(tmp_path, self.CONFIG)
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("integration aborted: non-finite state at t=")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()


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


# subcommand -> (report file, the study it runs on a loaded config and --out)
_STUDIES = {
    "simulate": ("simulate_report.txt",
                 lambda app, out: run_simulate(app.scenario, out_dir=out)),
    "compare": ("compare_report.txt",
                lambda app, out: run_compare(app.compare, out_dir=out)),
    "sweep-omega": ("omega_sweep_report.txt",
                    lambda app, out: run_omega_sweep(app.sweep_omega)),
    "sweep-hessian": ("hessian_sweep_report.txt",
                      lambda app, out: run_hessian_invariance(app.sweep_hessian)),
    "average": ("averaging_report_newton.txt",
                lambda app, out: run_average(Scheme.NEWTON, app.params, app.field,
                                             seed=app.seed)),
    "certify": ("stability_report.txt",
                lambda app, out: run_certify(app.params, app.field, seed=app.seed)),
}


@pytest.mark.parametrize("command", sorted(_STUDIES))
def test_subcommand_writes_its_study_report(tmp_path, command):
    """Each subcommand on the default config writes its study's report() and
    exits with the study's verdict."""
    name, study = _STUDIES[command]
    out = tmp_path / "out"
    code = main([command, "--out", str(out)])
    result = study(load_config(None), out)
    assert (out / name).read_text() == result.report()
    assert code == (0 if result.passed else 1)


#: a report line: a ``[header]``, a ``key = value`` pair, or blank
_REPORT_LINE = re.compile(r"\[(?P<header>[^\[\]]+)\]|(?P<key>[^\s=\[\]]+) = .+|")


@pytest.mark.parametrize("argv", [
    ["simulate"], ["compare"], ["sweep-omega"], ["sweep-hessian"],
    ["average", "--scheme", "gradient"], ["average", "--scheme", "newton"],
    ["certify"],
], ids=lambda argv: "-".join(argv[::2]))
def test_report_is_sections_of_unique_keys(tmp_path, capsys, argv):
    """Every line a subcommand prints is a ``[header]``, a ``key = value``
    pair or blank, and no key repeats within a section."""
    main([*argv, "--out", str(tmp_path / "out")])
    text = capsys.readouterr().out
    assert text.startswith("[")
    sections = []
    for line in text.splitlines():
        match = _REPORT_LINE.fullmatch(line)
        assert match, line
        if match["header"]:
            sections.append([])
        elif match["key"]:
            assert match["key"] not in sections[-1], line
            sections[-1].append(match["key"])


def test_certify_gives_its_decay_rate_note_a_section_of_its_own(tmp_path, capsys):
    """The note is the one line of ``[stability_report]``, not a line of the
    linearization section before it."""
    main(["certify", "--out", str(tmp_path / "out")])
    header = None
    for line in capsys.readouterr().out.splitlines():
        match = _REPORT_LINE.fullmatch(line)
        header = match["header"] or header
        if match["key"] == "decay_rate_note":
            break
    assert header == "stability_report"
