import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

import icrt_lab
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

    # sha256 (first 16 hex digits) of the CSVs of seeds 0-2, pinned so that
    # a faster path must reproduce the output byte for byte; at theta0 = 0
    # the contour table has exact fraction ties and insertion moves
    PINNED = {
        "--alpha 1.5 --K 200 --branches 40 --resolution 500 --grid 1024": [
            "925909f9a78846b5", "330bdd0aa247b3d7", "6a3f3dbf2cc3c334",
        ],
        "--alpha 1.5 --K 200 --theta0 0.3 --branches 40 --resolution 500 "
        "--grid 1024": ["d2d3ec8d7ec571c2", "f97c9493fbbddd83", "7865387a1f4cfe0f"],
        "--theta0 1 --level 8": [
            "deb9a714064e3cbc", "abbe1ba1a8b751d4", "fa151585475fdfd6",
        ],
    }

    def test_output_pinned(self, tmp_path):
        for args, digests in self.PINNED.items():
            got = []
            for seed in range(3):
                argv = ["process", *args.split(), "--seed", str(seed)]
                code, out = run(argv, tmp_path, "p.csv")
                assert code == 0
                got.append(hashlib.sha256(out.read_bytes()).hexdigest()[:16])
            assert got == digests, args

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
        # sha256 (first 16 hex digits) of each plot
        want = {
            "height": "d3f67c9246777012",
            "lukasiewicz": "82d93d9c33ed4e92",
            "snake": "562533761972de14",
            "scatter": "39280fc2032c1d74",
        }
        for col, digest in want.items():
            data = (tmp_path / f"p_{col}.svg").read_bytes()
            assert hashlib.sha256(data).hexdigest()[:16] == digest, col


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

    def test_branches_set_the_cloud_sample(self, tmp_path):
        """--branches stops the cloud's sample: a rerun writes the same
        bytes, 400 branches give other box counts than 40, and the report
        records the sample's level and branch count."""
        args = ["dims", "--alpha", "1.5", "--K", "200", "--cloud", "500", "--seed", "0"]
        out = {}
        for name, n in (("a", 40), ("b", 40), ("c", 400)):
            code, path = run(args + ["--branches", str(n)], tmp_path, f"{name}.json")
            assert code == 0
            out[name] = path.read_bytes()
        assert out["a"] == out["b"]
        box = {k: json.loads(v)["report"]["boxcount"] for k, v in out.items()}
        assert box["a"] != box["c"]
        # the report names the sample behind the counts: its last cut
        assert box["a"]["branches"] == 40 and box["c"]["branches"] == 400
        assert box["a"]["level"] < box["c"]["level"]

    def test_negative_cloud_rejected(self, tmp_path, capsys):
        code, out = run(["dims", "--theta0", "1", "--cloud", "-1"], tmp_path, "d.json")
        assert code == 1
        assert "--cloud" in capsys.readouterr().err
        assert not out.exists()


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

    def test_seeds_below_minimum_rejected(self, tmp_path, capsys):
        # below 3 seeds the field suite reports a NaN p-value (or divides by
        # zero at 0) and the urn suite runs on no samples
        for seeds in ("0", "2"):
            code, out = run(["verify", "field", "--seeds", seeds], tmp_path, "v.json")
            assert code == 1
            assert "--seeds" in capsys.readouterr().err
            assert not out.exists()

    def test_jobs_below_one_rejected(self, tmp_path, capsys):
        code, out = run(
            ["verify", "urn", "--seeds", "40", "--jobs", "0"], tmp_path, "v.json"
        )
        assert code == 1
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

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
        # the configs only: the p-values come from scipy and may move with it
        configs = {r["name"]: r["config"] for r in obj["reports"]}
        assert configs == self.CONFIGS_SEED_49

    # the report configs of `verify all --seeds 400 --seed 49`
    CONFIGS_SEED_49 = {
        "metric-brownian": {"seed": 49, "triples": 400},
        "metric-cycle": {"seed": 49, "triples": 400},
        "metric-powerlaw": {"seed": 49, "triples": 400},
        "order-brownian": {"seed": 49, "triples": 400},
        "order-cycle": {"seed": 49, "triples": 400},
        "order-powerlaw": {"seed": 49, "triples": 400},
        "field-variance": {"field_seeds": 400, "seed": 49},
        "polya-urn": {"first_cut": 4, "n_seeds": 400, "seed": 49, "steps": 6},
        "reroot-identity":
            {"corrupt": None, "n_seeds": 400, "pair_budget": 12, "seed": 49},
        "permutation-invariance":
            {"corrupt": None, "k": 3, "n_seeds": 400, "seed": 49},
        "reroot-negative-control":
            {"corrupt": "glue_root", "n_seeds": 400, "pair_budget": 12, "seed": 49},
        "dims-brownian": {"grid": "1e2..1e6"},
        "dims-cycle": {"grid": "1e2..1e6"},
        "dims-powerlaw": {"family": "powerlaw-1.5", "grid": "1e1.5..1e5.5"},
        "concentration-rademacher":
            {"kappa": 4.0, "n_terms": 64, "seed": 49, "trials": 400},
        "concentration-uniform":
            {"kappa": 4.0, "n_terms": 64, "seed": 49, "trials": 400},
        "concentration-exponential":
            {"kappa": 4.0, "n_terms": 64, "seed": 49, "trials": 400},
    }

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


class TestOptions:
    # each command's options by dest, -h left out: 35 in all
    TREE = {"theta0", "thetas", "alpha", "K", "level", "branches"}
    OPTIONS = {
        "sample": {"seed", "out"} | TREE,
        "process": {"seed", "out", "sample", "grid", "resolution", "svg"} | TREE,
        "dims": {"seed", "out", "grid_decades", "grid_points", "cloud"} | TREE,
        "verify": {"seed", "out", "seeds", "jobs"},
    }
    # a valid command line of each command
    BASE = {
        "sample": ["sample", "--theta0", "1", "--level", "2"],
        "process": ["process", "--theta0", "1", "--level", "2"],
        "dims": ["dims", "--theta0", "1"],
        "verify": ["verify", "dims", "--seeds", "3"],
    }

    def test_option_sets(self):
        sub = next(
            a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        got = {
            name: {a.dest for a in sp._actions if a.option_strings and a.dest != "help"}
            for name, sp in sub.choices.items()
        }
        assert got == self.OPTIONS
        assert sum(map(len, got.values())) == 35

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("sample", ["--resolution", "100"]),
            ("sample", ["--jobs", "2"]),
            ("sample", ["--svg"]),
            ("process", ["--jobs", "2"]),
            ("dims", ["--resolution", "100"]),
            ("dims", ["--jobs", "2"]),
            ("dims", ["--svg"]),
            ("verify", ["--theta0", "0.3"]),
            ("verify", ["--thetas", "w.json"]),
            ("verify", ["--alpha", "1.5"]),
            ("verify", ["--K", "200"]),
            ("verify", ["--level", "2"]),
            ("verify", ["--branches", "5"]),
            ("verify", ["--resolution", "100"]),
            ("verify", ["--svg"]),
        ],
    )
    def test_option_of_another_command_rejected(self, tmp_path, capsys, command, extra):
        code, out = run(self.BASE[command] + extra, tmp_path, "o.json")
        assert code == 1
        assert extra[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["sample", "--theta0", "1", "--level", "3", "--branches", "50"],
             ["--level", "--branches"]),
            (["sample", "--thetas", "w.json", "--alpha", "1.5", "--K", "200",
              "--level", "3"], ["--thetas", "--alpha"]),
            (["sample", "--theta0", "1", "--K", "200", "--level", "3"], ["--K", "--alpha"]),
            (["process", "--sample", "s.json", "--theta0", "0.2", "--level", "99"],
             ["--sample", "--theta0", "--level"]),
            (["dims", "--theta0", "1", "--level", "64"], ["--level", "--cloud"]),
        ],
    )
    def test_dropped_combination_rejected(self, tmp_path, capsys, argv, named):
        (tmp_path / "w.json").write_text("[0.5]")
        run(["sample", "--theta0", "1", "--level", "2"], tmp_path, "s.json")
        capsys.readouterr()
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        code, out = run(argv, tmp_path, "o.json")
        assert code == 1
        err = capsys.readouterr().err
        assert all(opt in err for opt in named), err
        assert not out.exists()

    def test_sample_config_keys(self, tmp_path):
        # the keys the pinned sample digests were taken with
        _, out = run(self.BASE["sample"], tmp_path, "s.json")
        config = json.loads(out.read_text())["config"]
        assert set(config) == self.OPTIONS["sample"] - {"out"} | {
            "jobs", "resolution", "svg"
        }
        assert (config["jobs"], config["resolution"], config["svg"]) == (1, None, False)

    @pytest.mark.parametrize("command", ["dims", "verify"])
    def test_config_lists_the_options(self, tmp_path, command):
        # the output path is left out, the verify suite is in
        _, out = run(self.BASE[command], tmp_path, "o.json")
        config = json.loads(out.read_text())["config"]
        want = self.OPTIONS[command] - {"out"} | ({"suite"} if command == "verify" else set())
        assert set(config) == want


class TestImport:
    def test_cli_import_leaves_scipy_stats_out(self):
        # only the verify suites need scipy.stats, which is slow to import
        src = os.path.dirname(os.path.dirname(icrt_lab.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, icrt_lab.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"
