"""Command-line interface: output, exit codes, records, determinism."""
import json
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

from stabwit.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    return json.loads(resources.files("stabwit")
                      .joinpath(f"schemas/{name}.schema.json").read_text())


class TestTable:
    def test_check_passes_on_full_range(self, capsys):
        code, out, _ = run(["table", "--check", "--n", "2..10"], capsys)
        assert code == 0
        assert "table check: PASS" in out

    def test_single_ghz_value(self, capsys):
        code, out, _ = run(["table", "--family", "ghz", "--n", "3"], capsys)
        assert code == 0
        assert "0.40" in out

    def test_single_cluster_value(self, capsys):
        code, out, _ = run(["table", "--family", "cluster", "--n", "8"], capsys)
        assert code == 0
        assert "0.27" in out

    def test_range_violations(self, capsys):
        assert run(["table", "--n", "1..10"], capsys)[0] == 2
        assert run(["table", "--n", "2..17"], capsys)[0] == 2
        assert run(["table", "--n", "5..3"], capsys)[0] == 2
        assert run(["table", "--n", "abc"], capsys)[0] == 2

    def test_check_outside_reference_is_usage_error(self, capsys):
        code, out, err = run(["table", "--check", "--n", "2..12"], capsys)
        assert code == 2
        assert "no reference value for ghz n=11" in err
        assert out == ""

    def test_check_failure_sets_exit_code(self, capsys, monkeypatch):
        import stabwit.cli as cli

        broken = {"tolerance": 0.005, "ghz": {"3": 0.10}, "cluster": {"3": 0.40}}
        monkeypatch.setattr(cli, "load_reference_table", lambda: broken)
        code, out, _ = run(["table", "--check", "--n", "3"], capsys)
        assert code == 1
        assert "table check: FAIL" in out

    def test_json_record_validates(self, tmp_path, capsys):
        out_path = tmp_path / "table.json"
        code, _, _ = run(["table", "--n", "2..4", "--format", "json",
                          "--out", str(out_path)], capsys)
        assert code == 0
        record = json.loads(out_path.read_text())
        assert record["version"]
        assert record["config"]["command"] == "table"
        schema = load_schema("threshold_report")
        for entry in record["thresholds"]:
            jsonschema.validate(entry, schema)

    def test_csv_record(self, tmp_path, capsys):
        out_path = tmp_path / "table.csv"
        code, _, _ = run(["table", "--n", "2..4", "--family", "ghz",
                          "--format", "csv", "--out", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith("N,")
        assert lines[1].split(",")[0] == "ghz"
        assert lines[1].split(",")[1:] == ["0.50", "0.40", "0.36"]


class TestEval:
    def test_detected_below_threshold(self, capsys):
        code, out, _ = run(["eval", "--family", "ghz", "--n", "4",
                            "--p-noise", "0.30"], capsys)
        assert code == 0
        assert ": detected" in out

    def test_not_detected_above_threshold(self, capsys):
        code, out, _ = run(["eval", "--family", "ghz", "--n", "4",
                            "--p-noise", "0.40"], capsys)
        assert code == 0
        assert "not detected" in out

    @pytest.mark.parametrize("family,n", [("ghz", 3), ("cluster", 4)])
    def test_exact_threshold_not_detected(self, family, n, tmp_path, capsys):
        from stabwit import noise_threshold

        p_star = noise_threshold(family, n).p_threshold
        out_path = tmp_path / "eval.json"
        code, out, _ = run(["eval", "--family", family, "--n", str(n),
                            "--p-noise", repr(p_star), "--out", str(out_path)],
                           capsys)
        assert code == 0
        assert "not detected" in out
        record = json.loads(out_path.read_text())
        assert abs(record["value"]) < 1e-9
        assert record["detected"] is False

    def test_two_qubit_claim_wording(self, capsys):
        _, out, _ = run(["eval", "--family", "ghz", "--n", "2"], capsys)
        assert "genuine multipartite" not in out
        _, out, _ = run(["eval", "--family", "ghz", "--n", "3"], capsys)
        assert "genuine multipartite" in out

    def test_invalid_p_noise(self, capsys):
        assert run(["eval", "--family", "ghz", "--n", "3",
                    "--p-noise", "1.5"], capsys)[0] == 2

    def test_invalid_n(self, capsys):
        assert run(["eval", "--family", "ghz", "--n", "25"], capsys)[0] == 2


class TestSimulate:
    def test_estimate_near_exact(self, tmp_path, capsys):
        out_path = tmp_path / "sim.json"
        code, out, _ = run(["simulate", "--family", "ghz", "--n", "6",
                            "--shots", "100000", "--seed", "5",
                            "--out", str(out_path)], capsys)
        assert code == 0
        record = json.loads(out_path.read_text())
        # p=0: every selected parity is deterministic, the estimate is exact
        assert record["estimate"] == pytest.approx(-1.0)
        assert record["detected"] is True

    def test_one_shot_is_not_a_detection(self, tmp_path, capsys):
        """One shot per setting gives estimate -1 with plug-in error 0, but
        the Hoeffding bound stays far above zero."""
        out_path = tmp_path / "sim.json"
        code, out, _ = run(["simulate", "--family", "ghz", "--n", "3", "--shots", "1",
                            "--out", str(out_path)], capsys)
        assert code == 0
        assert "not detected (insufficient statistics)" in out
        record = json.loads(out_path.read_text())
        assert (record["estimate"], record["std_error"]) == (-1.0, 0.0)
        assert record["upper_bound"] >= 0.0
        assert record["detected"] is False
        assert record["verdict"] == "not detected (insufficient statistics)"

    @pytest.mark.parametrize("family", ["ghz", "cluster"])
    def test_many_shots_without_noise_are_a_detection(self, family, tmp_path, capsys):
        out_path = tmp_path / "sim.json"
        code, out, _ = run(["simulate", "--family", family, "--n", "5", "--shots", "100000",
                            "--p-noise", "0", "--out", str(out_path)], capsys)
        assert code == 0
        assert ": detected" in out
        record = json.loads(out_path.read_text())
        margin = 2.0 * np.sqrt(np.log(1e3) * (2.0 / 100000) / 2.0)
        assert record["upper_bound"] == pytest.approx(record["estimate"] + margin, abs=1e-15)
        assert record["upper_bound"] < 0.0
        assert record["detected"] is True

    def test_byte_identical_given_seed(self, tmp_path, capsys):
        path = tmp_path / "record.json"
        argv = ["simulate", "--family", "cluster", "--n", "4",
                "--p-noise", "0.2", "--shots", "5000", "--seed", "17",
                "--out", str(path)]
        assert run(argv, capsys)[0] == 0
        first = path.read_bytes()
        path.unlink()
        assert run(argv, capsys)[0] == 0
        assert path.read_bytes() == first

    def test_counts_schema_and_ingest_round_trip(self, tmp_path, capsys):
        prefix = str(tmp_path / "counts")
        direct = tmp_path / "direct.json"
        code, _, _ = run(["simulate", "--family", "cluster", "--n", "3",
                          "--p-noise", "0.3", "--shots", "20000", "--seed", "8",
                          "--counts-out", prefix, "--out", str(direct)], capsys)
        assert code == 0
        schema = load_schema("counts_table")
        for suffix in ("_a.json", "_b.json"):
            jsonschema.validate(json.loads((tmp_path / f"counts{suffix}").read_text()),
                                schema)
        ingested = tmp_path / "ingested.json"
        code, _, _ = run(["simulate", "--family", "cluster",
                          "--ingest", prefix + "_a.json", prefix + "_b.json",
                          "--out", str(ingested)], capsys)
        assert code == 0
        direct_record = json.loads(direct.read_text())
        ingest_record = json.loads(ingested.read_text())
        assert ingest_record["estimate"] == direct_record["estimate"]
        assert ingest_record["std_error"] == direct_record["std_error"]
        assert ingest_record["upper_bound"] == direct_record["upper_bound"]
        assert ingest_record["exact"] is None

    def test_ingest_wrong_family_fails_at_runtime(self, tmp_path, capsys):
        prefix = str(tmp_path / "c")
        run(["simulate", "--family", "ghz", "--n", "3", "--shots", "100",
             "--seed", "0", "--counts-out", prefix], capsys)
        code, _, err = run(["simulate", "--family", "cluster",
                            "--ingest", prefix + "_a.json", prefix + "_b.json"],
                           capsys)
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("text", [
        '{"setting": "zzz", "shots": 100, "counts": {"000": 5',
        '["zzz", 100]',
        '{"shots": 100, "counts": {"000": 100}}',
        '{"setting": "zzz", "counts": {"000": 100}}',
        '{"setting": "zzz", "shots": 100}',
        '{"setting": "zzz", "shots": 100, "counts": "000"}',
        '{"setting": "zzz", "shots": 100, "counts": {"000": 99.5, "111": 0.5}}',
        '{"setting": "zzz", "shots": 100, "counts": {"000": 99, "111": true}}',
        '{"setting": "zzz", "shots": 100, "counts": {"000": "100"}}',
        '{"setting": "zzz", "shots": "100", "counts": {"000": 100}}',
        pytest.param("[" * 100000, id="nested-100000-deep"),
        pytest.param('{"setting": "zzz", "shots": 1' + "0" * 5000 + ', "counts": {}}',
                     id="shots-with-5001-digits"),
    ])
    def test_malformed_ingest_is_a_clean_error(self, tmp_path, capsys, text):
        prefix = str(tmp_path / "c")
        run(["simulate", "--family", "ghz", "--n", "3", "--shots", "100",
             "--seed", "0", "--counts-out", prefix], capsys)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out, err = run(["simulate", "--family", "ghz",
                              "--ingest", str(bad), prefix + "_b.json"], capsys)
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("extra", [["--n", "9"], ["--p-noise", "0.5"],
                                       ["--shots", "100"], ["--seed", "0"],
                                       ["--n", "9", "--p-noise", "5"]],
                             ids=["n", "p-noise", "shots", "seed", "n+p-noise"])
    def test_ingest_with_a_draw_option_is_a_usage_error(self, extra, tmp_path, capsys):
        """The ingested tables fix n, noise and shots; a record claiming
        other values would contradict its own data."""
        prefix = str(tmp_path / "c")
        run(["simulate", "--family", "ghz", "--n", "3", "--shots", "100",
             "--seed", "0", "--counts-out", prefix], capsys)
        out_path = tmp_path / "r.json"
        code, out, err = run(["simulate", "--family", "ghz",
                              "--ingest", prefix + "_a.json", prefix + "_b.json",
                              *extra, "--out", str(out_path)], capsys)
        assert code == 2
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert out == ""
        assert not out_path.exists()

    def test_ingest_record_keeps_the_default_config(self, tmp_path, capsys):
        prefix = str(tmp_path / "c")
        run(["simulate", "--family", "ghz", "--n", "3", "--shots", "100",
             "--seed", "0", "--counts-out", prefix], capsys)
        out_path = tmp_path / "r.json"
        assert run(["simulate", "--family", "ghz",
                    "--ingest", prefix + "_a.json", prefix + "_b.json",
                    "--out", str(out_path)], capsys)[0] == 0
        config = json.loads(out_path.read_text())["config"]
        assert (config["n"], config["p_noise"], config["shots"], config["seed"]) == \
            (None, 0.0, 100000, 0)

    def test_truncated_ingest_in_a_fresh_process(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"setting": "zzz", "shots": 1')
        proc = subprocess.run(
            [sys.executable, "-m", "stabwit", "simulate", "--family", "ghz",
             "--ingest", str(bad), str(bad)],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=str(resources.files("stabwit").joinpath("../..")))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_seed_env_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("STABWIT_SEED", "123")
        out_path = tmp_path / "env.json"
        code, _, _ = run(["simulate", "--family", "ghz", "--n", "3",
                          "--shots", "100", "--out", str(out_path)], capsys)
        assert code == 0
        assert json.loads(out_path.read_text())["config"]["seed"] == 123

    @pytest.mark.parametrize("family,n,p", [("ghz", 2, 0.0), ("ghz", 9, 0.31),
                                            ("cluster", 5, 0.2), ("cluster", 14, 1.0)])
    def test_exact_equals_eval_value(self, family, n, p, tmp_path, capsys):
        """Both commands read <W> off the same two Born distributions."""
        common = ["--family", family, "--n", str(n), "--p-noise", str(p)]
        assert main(["eval", *common, "--out", str(tmp_path / "eval.json")]) == 0
        assert main(["simulate", *common, "--shots", "100",
                     "--out", str(tmp_path / "sim.json")]) == 0
        value = json.loads((tmp_path / "eval.json").read_text())["value"]
        assert json.loads((tmp_path / "sim.json").read_text())["exact"] == value

    def test_invalid_shots(self, capsys):
        assert run(["simulate", "--family", "ghz", "--n", "3",
                    "--shots", "0"], capsys)[0] == 2

    @pytest.mark.parametrize("args,env_seed", [
        (["--shots", str(2 ** 63)], None),
        (["--seed", str(2 ** 128 - 1)], None),
        ([], str(2 ** 200)),
    ], ids=["shots-2^63", "seed-2^128-1", "env-seed-2^200"])
    def test_too_large_shots_or_seed_is_a_usage_error(self, args, env_seed,
                                                       capsys, monkeypatch):
        """Setting B draws with seed + 1, and a Philox key has 128 bits."""
        if env_seed is not None:
            monkeypatch.setenv("STABWIT_SEED", env_seed)
        code, out, err = run(["simulate", "--family", "ghz", "--n", "3", *args], capsys)
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert out == ""

    def test_largest_seed_runs(self, capsys):
        code, out, _ = run(["simulate", "--family", "ghz", "--n", "3", "--shots", "100",
                            "--seed", str(2 ** 128 - 2)], capsys)
        assert code == 0
        assert "estimate" in out


class TestCertify:
    def test_pass_and_record(self, tmp_path, capsys):
        out_path = tmp_path / "cert.json"
        code, out, _ = run(["certify", "--family", "ghz", "--n", "3",
                            "--restarts", "8", "--seed", "0",
                            "--out", str(out_path)], capsys)
        assert code == 0
        assert "certification: PASS" in out
        assert "cut 1,2|3" in out and "carried from 1|2,3" in out
        record = json.loads(out_path.read_text())
        jsonschema.validate(record["report"], load_schema("bisep_report"))
        assert abs(record["report"]["global_min"]) < 1e-6
        assert [c["orbit_of"] for c in record["report"]["cuts"]] == [[1], [1], [1]]

    def test_cluster_pass(self, capsys):
        code, out, _ = run(["certify", "--family", "cluster", "--n", "4",
                            "--restarts", "8"], capsys)
        assert code == 0
        assert "certification: PASS" in out

    def test_negate_control_fails(self, capsys):
        code, out, _ = run(["certify", "--family", "ghz", "--n", "3",
                            "--restarts", "5", "--negate"], capsys)
        assert code == 1
        assert "certification: FAIL" in out

    def test_n_too_large(self, capsys):
        assert run(["certify", "--family", "ghz", "--n", "13"], capsys)[0] == 2


class TestHarness:
    @pytest.mark.parametrize("argv", [
        ["certify", "--family", "ghz", "--n", "4", "--format", "csv"],
        ["certify", "--family", "ghz", "--n", "4", "--format", "text"],
        ["eval", "--family", "ghz", "--n", "4", "--format", "csv"],
        ["simulate", "--family", "ghz", "--n", "4", "--format", "csv"],
        ["table", "--n", "2..4", "--format", "text"],
    ])
    def test_unwritable_format_fails_before_any_work(self, argv, tmp_path, capsys):
        code, out, err = run(argv + ["--out", str(tmp_path / "record")], capsys)
        assert code == 2
        assert out == ""
        assert "--format" in err
        assert not (tmp_path / "record").exists()

    def test_version_flag(self, capsys):
        code, out, _ = run(["--version"], capsys)
        assert code == 0
        assert "stabwit" in out

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stabwit", "table", "--family", "ghz",
             "--n", "2"],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=str(resources.files("stabwit").joinpath("../..")))
        assert proc.returncode == 0
        assert "0.50" in proc.stdout
