import json

import numpy as np
import pytest

from glset import parse_config, run
from glset.cli import main

FULL_CONFIG = """\
model iid_gaussian
dim 3
formats csv json

functional bump = exp(-norm2())

job density
  G norm2
  phi bump
  r_grid 1 2 3
  n 20000
  seed 7
  estimator both

job surface
  G norm2
  phi bump
  r 2
  n 20000
  seed 3
  estimator divergence
  k_list 1
  hausdorff true

job ibp
  G norm2
  phi bump
  k_list 1 2
  r_grid 1 3
  n 20000
  seed 11
  estimator divergence

job disintegrate
  G coordinate(1)
  phi_list 1 bump
  bins 10
  n 20000
  seed 5

job hausdorff
  G coordinate(1)
  phi 1
  r 0
  n 20000
  seed 9
  estimator divergence
"""


def phi_job(phi: str) -> str:
    """A density job of weight ``phi`` on norm2 in two dimensions."""
    return ("model iid_gaussian\ndim 2\nformats csv\njob density\n  G norm2\n"
            f"  phi {phi}\n  r_grid 1 2\n  n 20000\n")


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    code = run(parse_config(FULL_CONFIG), output_dir=out)
    assert code == 0
    return out


class TestArtifacts:
    def test_all_jobs_write_files(self, run_dir):
        names = sorted(p.name for p in run_dir.iterdir())
        assert "job01_density.csv" in names
        assert "job02_surface.json" in names
        assert "job03_ibp.csv" in names
        assert "job04_disintegrate.csv" in names
        assert "job05_hausdorff.json" in names
        assert "manifest.json" in names

    def test_density_csv_schema(self, run_dir):
        lines = (run_dir / "job01_density.csv").read_text().splitlines()
        assert lines[0] == "r,estimate,stderr,estimator,excluded_fraction"
        # both estimators over a 3-point grid
        assert len(lines) == 1 + 6
        body = [ln.split(",") for ln in lines[1:]]
        assert {row[3] for row in body} == {"divergence", "mollified"}
        for row in body:
            float(row[0]), float(row[1]), float(row[2]), float(row[4])

    def test_residual_csv_schema(self, run_dir):
        lines = (run_dir / "job03_ibp.csv").read_text().splitlines()
        assert lines[0] == "phi,k,r,lhs,rhs,residual,band"
        assert len(lines) == 1 + 4  # 2 directions x 2 levels

    def test_disintegration_csv_schema(self, run_dir):
        lines = (run_dir / "job04_disintegrate.csv").read_text().splitlines()
        assert lines[0].startswith("bin_lo,bin_hi,weight,count,cond_mean_")
        assert len(lines) == 1 + 10
        weights = [float(ln.split(",")[2]) for ln in lines[1:]]
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)

    def test_hausdorff_reports_quadrature(self, run_dir):
        payload = json.loads((run_dir / "job05_hausdorff.json").read_text())
        assert payload["geometry"] == "hyperplane"
        assert payload["quad_value"] == pytest.approx(0.39894, abs=1e-5)
        assert payload["within_tolerance"]
        assert (payload["nodes"], payload["flags"]) == (16, [])
        header, row = (run_dir / "job05_hausdorff.csv").read_text().splitlines()
        assert header.split(",")[6:9] == ["quad_value", "nodes", "quad_error"]
        assert row.split(",")[7] == "16"

    def test_unconverged_quadrature_is_flagged_in_json(self, tmp_path):
        cfg = parse_config("model iid_gaussian\ndim 3\nformats json\n"
                           "functional kink = abs(xi(1))\n"
                           "job hausdorff\n  G norm2\n  phi kink\n  r 1\n  n 20000\n"
                           "job surface\n  G norm2\n  phi kink\n  r 1\n  n 20000\n"
                           "  hausdorff true\n")
        assert run(cfg, output_dir=tmp_path) == 0
        # the curve's flags (at d = 3 the fourth inverse moment of
        # |grad norm2| diverges), then the quadrature's
        want = ["variance unreliable", "quadrature-not-converged"]
        payload = json.loads((tmp_path / "job01_hausdorff.json").read_text())
        assert (payload["nodes"], payload["flags"]) == (64, want)
        payload = json.loads((tmp_path / "job02_surface.json").read_text())
        assert "quadrature-not-converged" in payload["flags"]
        assert payload["hausdorff"]["flags"] == want

    def test_single_chunk_ibp_job_is_flagged_in_json(self, tmp_path):
        # n = 10000 is one chunk: no batch-means stderr, and every record says why
        cfg = parse_config("model iid_gaussian\ndim 5\nformats json\n"
                           "functional gauss = exp(-norm2())\n"
                           "job ibp\n  G norm2\n  phi gauss\n  k_list 1 2\n"
                           "  r_grid 3 5\n  n 10000\n")
        assert run(cfg, output_dir=tmp_path) == 0
        records = json.loads((tmp_path / "job01_ibp.json").read_text())["records"]
        assert len(records) == 4
        for rec in records:
            assert rec["lhs_stderr"] is None and rec["rhs_stderr"] is None
            assert "insufficient-batches" in rec["flags"]

    def test_single_chunk_hausdorff_job_is_flagged_in_json(self, tmp_path):
        # n = 5000 is one chunk: the null stderr carries its reason, in the
        # hausdorff job and in a surface job's hausdorff record alike
        cfg = parse_config("model iid_gaussian\ndim 3\nformats json\n"
                           "job hausdorff\n  G norm2\n  r 1\n  n 5000\n"
                           "job surface\n  G norm2\n  r 1\n  n 5000\n  hausdorff true\n")
        assert run(cfg, output_dir=tmp_path) == 0
        # the curve's flags: one chunk, and at d = 3 a diverging fourth
        # inverse moment of |grad norm2|
        want = ["insufficient-batches", "variance unreliable"]
        payload = json.loads((tmp_path / "job01_hausdorff.json").read_text())
        assert payload["mc_stderr"] is None
        assert payload["flags"] == want
        payload = json.loads((tmp_path / "job02_surface.json").read_text())
        assert payload["hausdorff"]["flags"] == want
        assert payload["flags"].count("insufficient-batches") == 1

    def test_surface_json_contains_ibp_and_hausdorff(self, run_dir):
        payload = json.loads((run_dir / "job02_surface.json").read_text())
        assert payload["total_mass"] > 0
        assert len(payload["ibp"]) == 1
        # at d = 3 the fourth inverse moment of |grad norm2| diverges
        assert payload["ibp"][0]["flags"] == payload["flags"] == ["variance unreliable"]
        assert payload["hausdorff"]["geometry"] == "sphere"

    def test_hausdorff_record_carries_the_curve_flags(self, run_dir):
        # the record's within_tolerance reads the same unreliable stderr
        payload = json.loads((run_dir / "job02_surface.json").read_text())
        assert payload["hausdorff"]["flags"] == payload["flags"] == ["variance unreliable"]

    def test_manifest_records_versions_and_hash(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert set(manifest) >= {"config_hash", "created", "versions", "files",
                                 "seeds"}
        assert manifest["versions"]["glset"]
        assert "job01_density.csv" in manifest["files"]

    def test_manifest_records_the_run_rusage(self, run_dir):
        # getrusage deltas of the run; they stay out of every job body
        rusage = json.loads((run_dir / "manifest.json").read_text())["rusage"]
        assert set(rusage) == {"user_s", "system_s", "minor_faults"}
        assert all(value >= 0 for value in rusage.values())
        assert isinstance(rusage["minor_faults"], int) and rusage["user_s"] > 0.0
        bodies = [p.read_text() for p in run_dir.iterdir() if p.name != "manifest.json"]
        assert not any("minor_faults" in body for body in bodies)


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config(FULL_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(cfg, output_dir=out_a) == 0
        assert run(cfg, output_dir=out_b) == 0
        for name in ("job01_density.csv", "job02_surface.json", "job03_ibp.csv",
                     "job04_disintegrate.csv", "job05_hausdorff.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestExitCodes:
    def test_bad_config_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("model iid_gaussian\ndim 3\njob density\n  G xi(9)\n"
                       "  phi 1\n  r_grid 1\n")
        assert main(["run", str(bad)]) == 1
        assert "xi(9)" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 1

    def test_output_that_is_a_file_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("model iid_gaussian\ndim 2\njob density\n  G norm2\n  phi 1\n"
                       "  r_grid 1 2\n  n 5000\n")
        afile = tmp_path / "afile"
        afile.write_text("")
        assert main(["run", str(cfg), "--output", str(afile)]) == 1
        assert capsys.readouterr().err == f"cannot create output directory {afile}: " \
                                          "File exists\n"
        assert afile.read_text() == ""

    def test_numerical_fault_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "fault.cfg"
        # 1/xi(1)^2 blows up at the origin; with the mollified estimator the
        # job still evaluates G at every sample, and a tiny grid keeps it fast
        cfg.write_text("model iid_gaussian\ndim 1\njob density\n"
                       "  G xi(1)/(xi(1) - xi(1))\n  phi 1\n  r_grid 1\n"
                       "  n 100\n  estimator mollified\n  epsilon 0.5\n")
        assert main(["run", str(cfg)]) == 1
        assert "failed" in capsys.readouterr().err

    def test_infinite_constant_is_numpy_arithmetic(self, tmp_path):
        # 0^-1 is inf, so min(xi(1), 0^-1) is xi(1) with xi(1)'s derivative
        for name, phi in (("inf", "min(xi(1), 0^-1)"), ("plain", "xi(1)")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(phi_job(phi))
            assert main(["run", str(cfg), "--output", str(tmp_path / name)]) == 0
        assert ((tmp_path / "inf" / "job01_density.csv").read_bytes()
                == (tmp_path / "plain" / "job01_density.csv").read_bytes())

    @pytest.mark.filterwarnings("error")
    def test_non_finite_arithmetic_warns_nothing(self, tmp_path, capsys):
        # numpy's divide-by-zero in 0^-1 is left to the finite checks: with
        # every warning an error the run still succeeds and stderr stays empty
        cfg = tmp_path / "inf.cfg"
        cfg.write_text(phi_job("min(xi(1), 0^-1)"))
        assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    def test_overflowing_constant_fails_the_job(self, tmp_path, capsys):
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(phi_job("xi(1)*1e200^3"))
        assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "job 1 (density) failed: " in err and "non-finite" in err

    def test_failed_rerun_writes_its_own_manifest(self, tmp_path, capsys):
        # a rerun into the same directory whose job 2 fails: the manifest is
        # this run's, not the earlier run's, and lists only this run's files
        def config(weight):
            return parse_config(phi_job("1").replace("formats csv", "formats json")
                                + f"job density\n  G norm2\n  phi {weight}\n"
                                  "  r_grid 1 2\n  n 20000\n  seed 2\n")

        assert run(config("1"), output_dir=tmp_path) == 0
        assert run(config("0/0"), output_dir=tmp_path) == 1
        err = capsys.readouterr().err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["exit_code"] == 1
        assert manifest["files"] == ["job01_density.json"]
        failed = manifest["failed_job"]
        assert (failed["number"], failed["kind"]) == (2, "density")
        assert f"job 2 (density) failed: {failed['message']}" in err
        assert (tmp_path / "job02_density.json").exists()  # the earlier run's, unlisted

    def test_all_excluded_curve_is_flagged_in_json(self, tmp_path):
        cfg = parse_config("model iid_gaussian\ndim 3\nformats json\njob density\n"
                           "  G 1\n  phi 1\n  r_grid 1 2\n  n 20000\n")
        assert run(cfg, output_dir=tmp_path) == 0
        payload = json.loads((tmp_path / "job01_density.json").read_text())
        curve = payload["curves"]["divergence"]
        assert curve["flags"] == ["all-excluded"]
        assert curve["excluded_fraction"] == 1.0


class TestSelftestJob:
    def test_failure_maps_to_exit_two(self, tmp_path, monkeypatch, capsys):
        import glset.selftest as selftest_mod
        from glset.selftest import CriterionResult

        def fake_battery(verbose=True):
            return [CriterionResult(1, "ok", True, "fine", 0.0),
                    CriterionResult(2, "broken", False, "nope", 0.0)]

        monkeypatch.setattr(selftest_mod, "run_acceptance", fake_battery)
        cfg = parse_config("model iid_gaussian\ndim 2\njob selftest\n")
        out = tmp_path / "self"
        assert run(cfg, output_dir=out) == 2
        payload = json.loads((out / "job01_selftest.json").read_text())
        assert [r["passed"] for r in payload["results"]] == [True, False]

    def test_body_holds_no_timings(self, tmp_path):
        from glset.runner import write_selftest
        from glset.selftest import CriterionResult

        def results(*runtimes):
            return [CriterionResult(1, "ok", True, "fine", runtimes[0]),
                    CriterionResult(2, "broken", False, "nope", runtimes[1])]

        [a] = write_selftest(tmp_path / "a", results(0.25, 12.0))
        [b] = write_selftest(tmp_path / "b", results(3.5, 0.0))
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_holds_the_runtimes(self, tmp_path, monkeypatch):
        import glset.selftest as selftest_mod
        from glset.selftest import CriterionResult

        monkeypatch.setattr(
            selftest_mod, "run_acceptance",
            lambda verbose=True: [CriterionResult(1, "ok", True, "fine", 0.5),
                                  CriterionResult(2, "ok", True, "fine", 1.25)])
        cfg = parse_config("model iid_gaussian\ndim 2\njob selftest\n")
        assert run(cfg, output_dir=tmp_path) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["runtime_s"] == {"job01_selftest": {"1": 0.5, "2": 1.25}}
        body = json.loads((tmp_path / "job01_selftest.json").read_text())
        assert all("runtime_s" not in r for r in body["results"])

    def test_cli_report_and_manifest(self, tmp_path, monkeypatch):
        import glset.selftest as selftest_mod
        from glset.selftest import CriterionResult

        monkeypatch.setattr(
            selftest_mod, "run_acceptance",
            lambda verbose=True: [CriterionResult(1, "ok", True, "fine", 0.75)])
        assert main(["selftest", "--output", str(tmp_path)]) == 0
        body = json.loads((tmp_path / "selftest.json").read_text())
        assert body == {"results": [{"number": 1, "name": "ok", "passed": True,
                                     "detail": "fine"}]}
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["runtime_s"] == {"selftest": {"1": 0.75}}
        assert manifest["files"] == ["selftest.json"]
        assert manifest["exit_code"] == 0
        assert manifest["versions"]["glset"]
        assert set(manifest["rusage"]) == {"user_s", "system_s", "minor_faults"}

    def test_cli_output_that_is_a_file_exits_one_before_the_battery(
            self, tmp_path, monkeypatch, capsys):
        import glset.selftest as selftest_mod

        def battery(verbose=True):
            raise AssertionError("the battery ran")

        monkeypatch.setattr(selftest_mod, "run_acceptance", battery)
        afile = tmp_path / "afile"
        afile.write_text("")
        assert main(["selftest", "--output", str(afile)]) == 1
        assert capsys.readouterr().err == f"cannot create output directory {afile}: " \
                                          "File exists\n"

    def test_all_pass_maps_to_exit_zero(self, tmp_path, monkeypatch):
        import glset.selftest as selftest_mod
        from glset.selftest import CriterionResult

        monkeypatch.setattr(
            selftest_mod, "run_acceptance",
            lambda verbose=True: [CriterionResult(1, "ok", True, "fine", 0.0)])
        cfg = parse_config("model iid_gaussian\ndim 2\njob selftest\n")
        assert run(cfg, output_dir=tmp_path / "ok") == 0


class TestCli:
    def test_grammar_prints_grammar(self, capsys):
        assert main(["grammar"]) == 0
        out = capsys.readouterr().out
        assert "expr" in out and "norm2" in out and "min" in out

    def test_run_from_file(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("model iid_gaussian\ndim 2\nformats csv\n"
                       "job density\n  G norm2\n  phi 1\n  r_grid 1 2\n"
                       "  n 5000\n  seed 2\n  estimator mollified\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output", str(out)]) == 0
        assert (out / "job01_density.csv").exists()
        assert not (out / "job01_density.json").exists()  # csv-only formats

    def test_bad_threads_env_fails_the_job(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("model iid_gaussian\ndim 2\nformats csv\n"
                       "job density\n  G norm2\n  phi 1\n  r_grid 1 2\n"
                       "  n 5000\n  seed 2\n  estimator mollified\n")
        monkeypatch.setenv("GLSET_THREADS", "0")
        assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 1
        assert "job 1 (density) failed: GLSET_THREADS" in capsys.readouterr().err

    def test_threads_env_does_not_change_output(self, tmp_path, monkeypatch):
        cfg = parse_config(FULL_CONFIG)
        monkeypatch.setenv("GLSET_THREADS", "3")
        out = tmp_path / "threaded"
        assert run(cfg, output_dir=out) == 0
        monkeypatch.delenv("GLSET_THREADS")
        ref = tmp_path / "serial"
        assert run(cfg, output_dir=ref) == 0
        # every job kind, csv and json: density, surface, ibp, disintegrate,
        # hausdorff
        names = sorted(p.name for p in ref.iterdir() if p.name != "manifest.json")
        assert len(names) == 10
        assert sorted(p.name for p in out.iterdir() if p.name != "manifest.json") == names
        for name in names:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name
