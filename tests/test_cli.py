import json

import pytest

from icrt_lab import cli
from icrt_lab import analysis as an


def run(args, tmp_path, name):
    out = tmp_path / name
    code = cli.main(args + ["--out", str(out)])
    return code, out


class TestSample:
    def test_brownian_schema(self, tmp_path):
        code, out = run(
            ["sample", "--theta0", "1", "--level", "8", "--seed", "7"],
            tmp_path,
            "s.json",
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["atoms"] == []
        assert obj["theta0"] == 1.0
        assert obj["level"] == 8.0
        assert obj["seed"] == 7
        assert obj["version"] == "0.1.0"
        assert set(obj) >= {"theta0", "atoms", "cuts", "glues", "seed", "level"}

    def test_power_law_normalized(self, tmp_path):
        code, out = run(
            ["sample", "--alpha", "1.5", "--K", "200", "--level", "2", "--seed", "1"],
            tmp_path,
            "s.json",
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert len(obj["atoms"]) == 200
        total = sum(a["theta"] ** 2 for a in obj["atoms"])
        assert abs(total - 1.0) <= 1e-9

    def test_invalid_theta_exits_one(self, tmp_path, capsys):
        code = cli.main(["sample", "--theta0", "2", "--level", "4"])
        assert code == 1
        assert "theta0" in capsys.readouterr().err

    def test_non_finite_input_exits_one(self, capsys):
        code = cli.main(["sample", "--theta0", "nan", "--branches", "3"])
        assert code == 1
        assert "theta0" in capsys.readouterr().err
        code = cli.main(["sample", "--theta0", "1", "--level", "nan"])
        assert code == 1
        assert "max_level" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text", ['{"w": [1.0]}', '[1.0, "x"]', "[true]", "[1.0", None]
    )
    def test_bad_thetas_file_exits_one(self, tmp_path, capsys, text):
        f = tmp_path / "w.json"
        if text is not None:
            f.write_text(text)
        code = cli.main(["sample", "--thetas", str(f), "--level", "2"])
        assert code == 1
        assert str(f) in capsys.readouterr().err

    def test_non_finite_thetas_exits_one(self, tmp_path, capsys):
        f = tmp_path / "w.json"
        f.write_text("[NaN]")
        code = cli.main(["sample", "--thetas", str(f), "--level", "2"])
        assert code == 1
        assert "weights must be finite" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        a = run(
            ["sample", "--alpha", "1.5", "--K", "30", "--level", "3", "--seed", "5"],
            tmp_path,
            "a.json",
        )[1]
        b = run(
            ["sample", "--alpha", "1.5", "--K", "30", "--level", "3", "--seed", "5"],
            tmp_path,
            "b.json",
        )[1]
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ICRT_LAB_SEED", "99")
        _, out = run(["sample", "--theta0", "1", "--level", "2"], tmp_path, "s.json")
        assert json.loads(out.read_text())["seed"] == 99


class TestProcess:
    def test_columns_and_zero_row(self, tmp_path):
        code, out = run(
            [
                "process",
                "--theta0",
                "1",
                "--level",
                "4",
                "--seed",
                "3",
                "--grid",
                "1024",
                "--resolution",
                "400",
            ],
            tmp_path,
            "p.csv",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,height,lukasiewicz,snake"
        assert len(lines) == 1025
        first = [float(v) for v in lines[1].split(",")]
        assert first == [0.0, 0.0, 0.0, 0.0]

    def test_rerun_identical(self, tmp_path):
        args = [
            "process",
            "--theta0",
            "1",
            "--level",
            "3",
            "--seed",
            "4",
            "--grid",
            "1024",
            "--resolution",
            "300",
        ]
        a = run(args, tmp_path, "a.csv")[1]
        b = run(args, tmp_path, "b.csv")[1]
        assert a.read_bytes() == b.read_bytes()

    def test_cycle_height_constant(self, tmp_path):
        code, out = run(
            [
                "process",
                "--thetas",
                str(self._theta_file(tmp_path)),
                "--branches",
                "5",
                "--seed",
                "2",
                "--grid",
                "1024",
                "--resolution",
                "200",
            ],
            tmp_path,
            "c.csv",
        )
        assert code == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        heights = [float(r[1]) for r in rows if 0.05 < float(r[0]) < 0.95]
        # representatives are defined up to loop equivalence: branch tips sit
        # at loop distance zero from the atom fiber but different tree depth
        top = max(heights, key=heights.count)
        assert heights.count(top) / len(heights) >= 0.95

    @staticmethod
    def _theta_file(tmp_path):
        f = tmp_path / "thetas.json"
        f.write_text("[1.0]")
        return f

    def test_grid_below_minimum_rejected(self, tmp_path, capsys):
        code = cli.main(
            ["process", "--theta0", "1", "--level", "2", "--grid", "1023",
             "--out", str(tmp_path / "p.csv")]
        )
        assert code == 1
        assert "1024" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    def test_missing_sample_file(self, tmp_path, capsys):
        code = cli.main(["process", "--sample", str(tmp_path / "nope.json")])
        assert code == 1

    def test_sample_file_round_trip(self, tmp_path):
        _, sf = run(
            ["sample", "--theta0", "1", "--level", "3", "--seed", "8"],
            tmp_path,
            "s.json",
        )
        code, out = run(
            ["process", "--sample", str(sf), "--seed", "8", "--grid", "1024",
             "--resolution", "200"],
            tmp_path,
            "p.csv",
        )
        assert code == 0
        assert out.exists()

    def test_svg_outputs(self, tmp_path):
        out = tmp_path / "p.csv"
        code = cli.main(
            [
                "process",
                "--theta0",
                "1",
                "--level",
                "3",
                "--seed",
                "4",
                "--grid",
                "1024",
                "--resolution",
                "200",
                "--svg",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        for col in ("height", "lukasiewicz", "snake", "scatter"):
            assert (tmp_path / f"p_{col}.svg").exists()


class TestDims:
    def test_brownian_report(self, tmp_path):
        code, out = run(
            ["dims", "--theta0", "1", "--grid-decades", "2", "6", "--seed", "1"],
            tmp_path,
            "d.json",
        )
        assert code == 0
        rep = json.loads(out.read_text())["report"]
        assert rep["lower"] == pytest.approx(2.0, abs=1e-6)
        assert rep["upper"] == pytest.approx(2.0, abs=1e-6)
        assert "boxcount" not in rep

    def test_boxcount_present_iff_requested(self, tmp_path):
        code, out = run(
            [
                "dims",
                "--thetas",
                str(TestProcess._theta_file(tmp_path)),
                "--grid-decades",
                "2",
                "6",
                "--cloud",
                "800",
                "--level",
                "4",
                "--seed",
                "2",
            ],
            tmp_path,
            "d.json",
        )
        assert code == 0
        rep = json.loads(out.read_text())["report"]
        assert "boxcount" in rep
        assert abs(rep["boxcount"]["estimate"] - 1.0) <= 0.3


class TestVerify:
    def test_metric_suite_passes(self, tmp_path):
        code, out = run(
            ["verify", "metric", "--seeds", "150", "--seed", "5"], tmp_path, "v.json"
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["passed"] is True
        assert all(r["passed"] for r in obj["reports"])

    def test_unknown_suite_usage_error(self):
        assert cli.main(["verify", "nope"]) == 1

    def test_failure_exit_code(self, tmp_path, monkeypatch):
        def failing(seed, n):
            return [an.TestReport(name="stub", passed=False, statistic=1.0)]

        monkeypatch.setitem(cli._SUITES, "metric", failing)
        code = cli.main(
            ["verify", "metric", "--out", str(tmp_path / "v.json"), "--seed", "1"]
        )
        assert code == 2

    def test_console_agrees_with_verdict(self, tmp_path, capsys):
        # seed 49: field-variance has p = 0.0043, significant at 0.01 alone
        # but not after the Bonferroni correction over the p-valued checks
        code, out = run(
            ["verify", "all", "--seeds", "400", "--seed", "49"], tmp_path, "v.json"
        )
        obj = json.loads(out.read_text())
        lines = capsys.readouterr().out.splitlines()[1:]
        want = [
            f"{'FAIL' if r['name'] in obj['failed'] else 'PASS'} {r['name']}"
            for r in obj["reports"]
        ]
        assert lines == want
        assert code == 0 and obj["passed"] and "PASS field-variance" in lines

    def test_verify_rerun_byte_identical(self, tmp_path):
        args = ["verify", "urn", "--seeds", "60", "--seed", "9"]
        a = run(args, tmp_path, "a.json")[1]
        b = run(args, tmp_path, "b.json")[1]
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_deterministic_assembly(self, tmp_path):
        base = ["verify", "urn", "--seeds", "40", "--seed", "9"]
        serial = json.loads(run(base + ["--jobs", "1"], tmp_path, "s.json")[1].read_text())
        par1 = run(base + ["--jobs", "2"], tmp_path, "p1.json")[1]
        par2 = run(base + ["--jobs", "2"], tmp_path, "p2.json")[1]
        assert par1.read_bytes() == par2.read_bytes()
        assert json.loads(par1.read_text())["reports"] == serial["reports"]
