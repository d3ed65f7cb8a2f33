"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3-nasa" in out
        assert "table1-nasa-space" in out


class TestGenerate:
    def test_writes_clf_file(self, tmp_path, capsys):
        path = tmp_path / "trace.log"
        code = main(
            [
                "generate",
                "nasa-like",
                str(path),
                "--days",
                "1",
                "--scale",
                "0.05",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines
        # Lines are valid CLF.
        from repro.trace.clf_parser import parse_clf_line

        record = parse_clf_line(lines[0])
        assert record.client.startswith(("browser-", "proxy-"))

    def test_stdout_output(self, capsys):
        code = main(
            ["generate", "nasa-like", "-", "--days", "1", "--scale", "0.05"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip()

    def test_unknown_profile_fails_cleanly(self, capsys):
        assert main(["generate", "bogus", "-", "--days", "1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSummarize:
    def test_synthetic_source(self, capsys):
        code = main(
            ["summarize", "synth:nasa-like", "--days", "1", "--scale", "0.05"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sessions" in out
        assert "proxy clients" in out

    def test_clf_file_source(self, tmp_path, capsys):
        path = tmp_path / "t.log"
        main(["generate", "nasa-like", str(path), "--days", "1", "--scale", "0.05"])
        capsys.readouterr()
        assert main(["summarize", str(path)]) == 0
        assert "records" in capsys.readouterr().out


class TestExperiment:
    def test_runs_and_prints_table(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
        from repro.experiments import clear_labs

        clear_labs()
        code = main(["experiment", "regularity-check", "--scale", "0.05"])
        assert code == 0
        assert "Regularities" in capsys.readouterr().out
        clear_labs()

    def test_csv_mode(self, capsys):
        from repro.experiments import clear_labs

        clear_labs()
        code = main(
            ["experiment", "regularity-check", "--scale", "0.05", "--csv"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("profile,")
        clear_labs()

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "fig99"]) == 2


class TestPredict:
    def test_predicts_from_profile(self, capsys):
        code = main(
            [
                "predict",
                "nasa-like",
                "/e0/",
                "--days",
                "2",
                "--scale",
                "0.1",
                "--model",
                "pb",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.strip()  # either predictions or the empty notice


    def test_long_context_uses_tracker_trimming(self, capsys):
        # A context longer than the tracker's window must not crash: the
        # shared ClientSessionTracker trims to the newest clicks.
        context = [f"/u{i}" for i in range(30)] + ["/e0/"]
        code = main(
            ["predict", "nasa-like", *context, "--days", "2", "--scale", "0.1"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip()


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        # Matches the version pyproject.toml declares.
        version = out.split()[1]
        assert version[0].isdigit()
        assert version.count(".") == 2


class TestLoadgen:
    def test_spawn_smoke(self, tmp_path, capsys):
        out = str(tmp_path / "BENCH_serve.json")
        code = main(
            [
                "loadgen",
                "--spawn",
                "--days", "1",
                "--train-days", "1",
                "--scale", "0.05",
                "--connections", "2",
                "--max-events", "60",
                "--refresh-mid-run",
                "--min-prediction-urls", "1",
                "--out", out,
            ]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "req/s" in captured.out
        import json

        with open(out, encoding="utf-8") as handle:
            report = json.load(handle)
        assert report["failed_requests"] == 0
        assert report["refresh_triggered"] is True

    def test_min_predictions_enforced(self, capsys):
        code = main(
            [
                "loadgen",
                "--spawn",
                "--days", "1",
                "--train-days", "1",
                "--scale", "0.05",
                "--connections", "2",
                "--max-events", "10",
                "--min-prediction-urls", "1000000",
            ]
        )
        assert code == 1
        assert "expected >=" in capsys.readouterr().err

    def test_url_and_spawn_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            main(["loadgen", "--url", "http://x:1", "--spawn"])
        with pytest.raises(SystemExit):
            main(["loadgen"])


class TestArgumentErrors:
    def test_no_command_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-0.1", "1.5"])
    @pytest.mark.parametrize(
        "argv",
        [["predict", "nasa-like", "/e0/"], ["loadgen", "--spawn"]],
        ids=["predict", "loadgen"],
    )
    def test_threshold_outside_unit_interval_is_an_argument_error(
        self, capsys, argv, threshold
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, f"--threshold={threshold}"])
        assert excinfo.value.code == 2
        assert "threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("days", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv", [["loadgen", "--spawn"], ["chaos"]], ids=["loadgen", "chaos"]
    )
    def test_days_below_one_is_an_argument_error(self, capsys, argv, days):
        # A zero-day test window has nothing to replay; it must be refused
        # up front, not surface later as an unrelated trace error.
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, f"--days={days}"])
        assert excinfo.value.code == 2
        assert "--days" in capsys.readouterr().err
