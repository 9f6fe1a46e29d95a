import re
from pathlib import Path

import numpy as np
import pytest

from glset import (ConfigError, Norm2, RunConfig, SurfaceMeasureHandle,
                   parse_config, resolve_functional, resolve_model, run,
                   serialize_config, surface_report)
from glset.config import _JOBS, _PARAMS, JobSpec, ModelSpec
from glset.functionals import fd_gradient
from glset.surface import quadrature_issue

ROOT = Path(__file__).resolve().parents[1]

MINIMAL = """\
model iid_gaussian
dim 3

job density
  G norm2
  phi 1
  r_grid 1 2 3
  n 5000
  seed 1
"""


class TestParse:
    def test_minimal_valid(self):
        cfg = parse_config(MINIMAL)
        assert cfg.model == ModelSpec(family="iid_gaussian", dim=3)
        job = cfg.jobs[0]
        assert job.kind == "density"
        assert job.G == "norm2" and job.phi == ("1",)
        assert job.r_grid == (1.0, 2.0, 3.0)

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# header\nmodel iid_gaussian  # family\ndim 2\n\n"
                           "job selftest\n")
        assert cfg.model.dim == 2
        assert cfg.jobs[0].kind == "selftest"

    def test_functional_definition_and_reference(self):
        text = MINIMAL + "\nfunctional bump = exp(-norm2())\n" \
                         "job surface\n  G norm2\n  phi bump\n  r 2\n"
        cfg = parse_config(text)
        assert ("bump", "exp(-norm2())") in cfg.functionals

    def test_explicit_spectrum(self):
        cfg = parse_config("model explicit\nspectrum 1.0 0.5 0.25\n"
                           "job selftest\n")
        assert cfg.model.dim == 3
        assert cfg.model.spectrum == (1.0, 0.5, 0.25)

    def test_out_of_range_coordinate_reports_position(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("model iid_gaussian\ndim 3\njob density\n  G xi(5)\n"
                         "  phi 1\n  r_grid 1\n")
        message = str(exc.value)
        assert "line 4" in message and "xi(5)" in message and "dim 3" in message
        assert "position" in message

    def test_all_errors_reported_not_first_only(self):
        bad = ("model iid_gaussian\ndim 3\nbogus_key 1\n"
               "job density\n  G xi(4)\n  phi exp(\n  r_grid 3 1\n  n 0\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        issues = exc.value.issues
        assert len(issues) >= 5
        text = "\n".join(str(i) for i in issues)
        assert "bogus_key" in text
        assert "xi(4)" in text
        assert "strictly increasing" in text
        assert "n must be" in text

    def test_unknown_job_kind(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("model iid_gaussian\ndim 2\njob frobnicate\n")
        assert "frobnicate" in str(exc.value)

    def test_missing_required_job_params(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("model iid_gaussian\ndim 2\njob density\n  phi 1\n")
        msg = str(exc.value)
        assert "needs G" in msg and "r_grid" in msg

    def test_indented_line_outside_block(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("model iid_gaussian\ndim 2\n  stray 1\njob selftest\n")
        assert "outside a job block" in str(exc.value)

    def test_bm_endpoint_requires_kl_model(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("model iid_gaussian\ndim 4\njob density\n"
                         "  G bm_endpoint\n  phi 1\n  r_grid 0\n")
        assert "kl_brownian" in str(exc.value)

    def test_duplicate_functional_name(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("model iid_gaussian\ndim 2\n"
                         "functional f = xi(1)\nfunctional f = xi(2)\n")
        assert "already defined" in str(exc.value)

    def test_formats_take_csv_or_json_or_both(self):
        for words in ("csv", "json", "json csv"):
            cfg = parse_config(f"model iid_gaussian\ndim 2\nformats {words}\n")
            assert cfg.formats == tuple(words.split())

    def test_hausdorff_preconditions_checked_statically(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("model iid_gaussian\ndim 8\njob hausdorff\n"
                         "  G norm2\n  phi 1\n  r 1\n")
        assert "dim <= 6" in str(exc.value)
        with pytest.raises(ConfigError) as exc:
            parse_config("model iid_gaussian\ndim 3\njob hausdorff\n"
                         "  G exp(-norm2())\n  phi 1\n  r 1\n")
        assert "norm2 | bm_endpoint" in str(exc.value)

    def test_single_chunk_job_warns(self):
        # n = 16384 is one chunk, n = 16385 two; a disintegrate job has no
        # batch means, so it parses silently at any n
        text = _job("density\n  G norm2\n  phi 1\n  r_grid 1\n  n 16384\n"
                    "job ibp\n  G norm2\n  phi 1\n  k_list 1\n  r 2\n  n 16385\n"
                    "job disintegrate\n  G norm2\n  bins 4\n  n 100\n")
        with pytest.warns(UserWarning) as caught:
            cfg = parse_config(text)
        assert [str(w.message) for w in caught] == [
            "line 3: density job with n 16384 draws one chunk, so its standard "
            "errors will be NaN and flagged 'insufficient-batches'"]
        assert [job.n for job in cfg.jobs] == [16384, 16385, 100]

    def test_single_chunk_hausdorff_job_warns(self):
        with pytest.warns(UserWarning) as caught:
            parse_config(_job("hausdorff\n  G norm2\n  r 1\n  n 5000\n"))
        assert [str(w.message) for w in caught] == [
            "line 3: hausdorff job with n 5000 draws one chunk, so its standard "
            "errors will be NaN and flagged 'insufficient-batches'"]


class TestRoundTrip:
    def test_parse_serialize_parse(self):
        text = """\
model kl_brownian
dim 8
output results/run3
formats csv

functional bump = exp(-norm2())

job density
  G bm_endpoint
  phi bump
  r_grid -1 0 1
  n 20000
  seed 11
  epsilon 0.25
  estimator mollified

job disintegrate
  G norm2
  phi_list 1 bump
  bins 16
  n 20000
  seed 5
  scheme fixed
  dump_particles true

job ibp
  G norm2
  phi bump
  r 2.5
  k_list 1 2
  n 10000
"""
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_serialize_is_stable(self):
        cfg = parse_config(MINIMAL)
        once = serialize_config(cfg)
        assert serialize_config(parse_config(once)) == once


FULL_CANONICAL = """\
model iid_gaussian
dim 3
output out
formats csv json
functional bump = exp(-norm2())
job density
  G norm2
  phi bump
  r_grid 1.0 2.0 3.0
  n 20000
  seed 7
job surface
  G norm2
  phi bump
  r 2.0
  n 20000
  seed 3
  estimator divergence
  k_list 1
  hausdorff true
job ibp
  G norm2
  phi bump
  r_grid 1.0 3.0
  n 20000
  seed 11
  estimator divergence
  k_list 1 2
job disintegrate
  G coordinate(1)
  phi_list 1 bump
  n 20000
  seed 5
  bins 10
job hausdorff
  G coordinate(1)
  phi 1
  r 0.0
  n 20000
  seed 9
  estimator divergence
"""

BENCH_CANONICAL = """\
model iid_gaussian
dim 5
output out
formats csv json
functional gauss = exp(-norm2())
job surface
  G norm2
  phi_list 1 gauss
  r 5.0
  n 500000
  seed 7
  k_list 1 2
  trace true
  hausdorff true
job disintegrate
  G norm2
  phi_list 1 gauss
  n 1000000
  seed 7
  bins 200
"""


class TestCanonicalText:
    """The exact text ``serialize_config`` emits; the manifest's
    ``config_hash`` is its sha256, so any change here changes every hash."""

    def test_full_config(self):
        from test_runner_cli import FULL_CONFIG

        assert serialize_config(parse_config(FULL_CONFIG)) == FULL_CANONICAL

    def test_bench_config(self):
        text = (ROOT / "bench" / "surface_report.cfg").read_text()
        cfg = parse_config(text.replace("{seed}", "7"))
        assert serialize_config(cfg) == BENCH_CANONICAL


def _job(body, dim=3, head=""):
    """A one-job config; its job line is line 3 + the lines of ``head``."""
    return f"model iid_gaussian\ndim {dim}\n{head}job {body}"


GAUSS = "functional gauss = exp(-norm2())\n"

# (config, line of the issue, fragment of its message)
REJECTED = {
    "density phi_list": (_job("density\n  G norm2\n  phi_list 1 gauss\n  r_grid 1 2\n",
                              head=GAUSS), 6, "phi_list"),
    "density k_list": (_job("density\n  G norm2\n  phi 1\n  r_grid 1 2\n  k_list 1\n"),
                       7, "k_list"),
    "density bins": (_job("density\n  G norm2\n  phi 1\n  r_grid 1 2\n  bins 3\n"),
                     7, "bins"),
    "density trace": (_job("density\n  G norm2\n  phi 1\n  r_grid 1 2\n  trace true\n"),
                      7, "trace"),
    "hausdorff phi_list": (_job("hausdorff\n  G norm2\n  phi_list gauss 1\n  r 2\n",
                                head=GAUSS), 6, "phi_list"),
    "hausdorff r_grid": (_job("hausdorff\n  G norm2\n  r 2\n  r_grid 1 2\n"), 6, "r_grid"),
    "ibp r and r_grid": (_job("ibp\n  G norm2\n  phi 1\n  k_list 1\n  r 9\n"
                              "  r_grid 1 2\n"), 8, "r | r_grid"),
    "surface k_list without phi": (_job("surface\n  G norm2\n  r 2\n  k_list 1 2\n"),
                                   6, "k_list"),
    "surface trace without phi": (_job("surface\n  G norm2\n  r 2\n  trace true\n"),
                                  6, "trace"),
    "surface hausdorff dim 7": (_job("surface\n  G norm2\n  r 2\n  hausdorff true\n",
                                     dim=7), 6, "dim <= 6"),
    "surface hausdorff expression G": (_job("surface\n  G norm2()\n  r 2\n"
                                            "  hausdorff true\n"), 6, "norm2 | bm_endpoint"),
    "hausdorff zero linear G": (_job("hausdorff\n  G linear(0, 0)\n  r 1\n"), 3,
                                "nonzero weight"),
    "selftest n": (_job("selftest\n  n 5\n"), 4, "n"),
    "disintegrate estimator": (_job("disintegrate\n  G norm2\n  bins 4\n"
                                    "  estimator mollified\n"), 6, "estimator"),
    "definition of a builtin name": (_job("density\n  G f\n  phi 1\n  r_grid 1\n",
                                          head="functional f = norm2\n"), 3, "functional 'f'"),
    # weights key the output columns by name; "1" and "1.0" are both "1.0"
    "surface weights of one name": (_job("surface\n  G norm2\n  r 2\n"
                                         "  phi_list 1 gauss 1.0\n", head=GAUSS), 7,
                                    "'1.0' is a second weight named '1.0'"),
    "ibp weights of one name": (_job("ibp\n  G norm2\n  phi_list 1.0 1\n  k_list 1\n"
                                     "  r 2\n"), 5, "'1' is a second weight named '1.0'"),
    "disintegrate weights of one name": (
        _job("disintegrate\n  G norm2\n  phi_list a exp(-norm2()) 1 1.0\n  bins 4\n",
             head="functional a = exp(-norm2())\n"), 6,
        "'1.0' is a second weight named '1.0'"),
    # a repeated key would run its last line only
    "repeated dim": (_job("density\n  G norm2\n  phi 1\n  r_grid 1 2\n", dim=2,
                          head="dim 3\n"), 3, "dim: given again, first on line 2"),
    "repeated job parameter": (_job("density\n  G norm2\n  phi 1\n  r_grid 1 2\n"
                                    "  n 20000\n  n 40000\n"), 8,
                               "n: given again, first on line 7"),
    # a run writes only the formats it knows, so any other word is an error
    "unknown format": (_job("density\n  G norm2\n  phi 1\n  r_grid 1 2\n",
                            head="formats jsn\n"), 3, "'jsn' is not csv, json or both"),
    "empty formats": (_job("density\n  G norm2\n  phi 1\n  r_grid 1 2\n",
                           head="formats\n"), 3, "'' is not csv, json or both"),
    # a bare output line would write the run into the current directory
    "empty output": (_job("density\n  G norm2\n  phi 1\n  r_grid 1 2\n",
                          head="output\n"), 3, "output: needs a directory"),
    "nonpositive dim": (_job("density\n  G norm2\n  phi 1\n  r_grid 1 2\n", dim=-3),
                        2, "dim: must be positive, got -3"),
    "empty spectrum": ("model explicit\nspectrum\njob density\n  G norm2\n  phi 1\n"
                       "  r_grid 1 2\n", 2, "spectrum: needs at least one eigenvalue"),
}


# (job body, line of its non-finite level or bandwidth)
NONFINITE = {
    "density r_grid nan": ("density\n  G norm2\n  phi 1\n  r_grid 1 nan\n", 6),
    "density r_grid inf": ("density\n  G norm2\n  phi 1\n  r_grid inf\n", 6),
    "density epsilon inf": ("density\n  G norm2\n  phi 1\n  r_grid 1\n  epsilon inf\n", 7),
    "surface r nan": ("surface\n  G norm2\n  r nan\n", 5),
    "surface epsilon nan": ("surface\n  G norm2\n  r 1\n  epsilon nan\n", 6),
    "hausdorff r nan": ("hausdorff\n  G norm2\n  r nan\n", 5),
    "ibp r -inf": ("ibp\n  G norm2\n  phi 1\n  k_list 1\n  r -inf\n", 7),
}


class TestJobSchema:
    """A parameter a job kind does not read, or a combination it cannot
    run, is an issue on its own line."""

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_rejected_with_its_line(self, case):
        text, line, fragment = REJECTED[case]
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert any(issue.line == line and fragment in issue.message
                   for issue in exc.value.issues), str(exc.value)

    @pytest.mark.parametrize("case", ["empty output", "nonpositive dim", "empty spectrum"])
    def test_top_level_value_is_one_issue_on_its_line(self, case):
        text, line, _ = REJECTED[case]
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert [issue.line for issue in exc.value.issues] == [line], str(exc.value)

    @pytest.mark.parametrize("case", ["surface k_list without phi",
                                      "surface hausdorff dim 7",
                                      "surface hausdorff expression G"])
    def test_what_parses_runs(self, case, tmp_path):
        # with the offending line dropped, each of these configs runs
        text, line, _ = REJECTED[case]
        lines = text.splitlines()
        kept = "\n".join(lines[:line - 1] + lines[line:]) + "\n  n 2000\n"
        assert run(parse_config(kept), output_dir=tmp_path) == 0

    @pytest.mark.parametrize("case", sorted(NONFINITE))
    def test_nonfinite_number_rejected_on_its_line(self, case):
        body, line = NONFINITE[case]
        with pytest.raises(ConfigError) as exc:
            parse_config(_job(body))
        assert [(issue.line, "is not finite" in issue.message)
                for issue in exc.value.issues] == [(line, True)]

    def test_every_kind_reads_known_parameters(self):
        for kind, (required, optional) in _JOBS.items():
            for key in " ".join([required, optional]).replace("|", " ").split():
                assert key in _PARAMS, (kind, key)

    def test_quadrature_rule_is_shared(self):
        m = resolve_model(ModelSpec(family="kl_brownian", dim=4))
        for text in ("norm2", "bm_endpoint", "coordinate(2)", "linear(1, 2)"):
            assert quadrature_issue(resolve_functional(text, {}, m), 4) is None
        assert "dim <= 6" in quadrature_issue(Norm2(), 7)
        G = resolve_functional("norm2()", {}, m)
        issue = quadrature_issue(G, 4)
        h = SurfaceMeasureHandle(model=m, G=G, r=1.0, n=10, seed=0)
        with pytest.raises(ValueError, match=re.escape(issue)):
            surface_report(h, [], with_hausdorff=True)


class TestResolve:
    def test_model_families(self):
        m = resolve_model(ModelSpec(family="kl_brownian", dim=4))
        assert m.dim == 4 and m.kl_eval_times is not None
        e = resolve_model(ModelSpec(family="explicit", dim=2, spectrum=(2.0, 1.0)))
        assert e.eigenvalues == (2.0, 1.0)

    def test_builtin_names(self):
        m = resolve_model(ModelSpec(family="kl_brownian", dim=4))
        assert resolve_functional("norm2", {}, m).name == "norm2"
        assert resolve_functional("bm_endpoint", {}, m).name == "bm_endpoint"
        assert resolve_functional("coordinate(2)", {}, m).k == 2
        lin = resolve_functional("linear(0.5, -1)", {}, m)
        assert np.allclose(lin.weights, [0.5, -1.0])

    def test_constant_folding(self):
        m = resolve_model(ModelSpec(family="iid_gaussian", dim=2))
        f = resolve_functional("1", {}, m)
        assert f.value(np.zeros((3, 2))).tolist() == [1.0, 1.0, 1.0]
        assert f.analytic_gradient

    def test_defined_name_resolves_to_expression(self):
        m = resolve_model(ModelSpec(family="iid_gaussian", dim=3))
        f = resolve_functional("bump", {"bump": "exp(-norm2())"}, m)
        assert f.name == "bump"
        xi = np.random.default_rng(0).standard_normal((10, 3))
        expected = np.exp(-np.sum(xi * xi, axis=1))
        assert np.allclose(f.value(xi), expected, rtol=1e-14)

    def test_parsed_expression_symbolic_gradient_checked(self):
        # documented example: the gradient of norm2() - 2*xi(1)
        m = resolve_model(ModelSpec(family="iid_gaussian", dim=3))
        f = resolve_functional("norm2() - 2*xi(1)", {}, m)
        xi = np.random.default_rng(1).standard_normal((20, 3))
        sym = f.gradient(xi)
        num = fd_gradient(f.value, xi, 1e-5)
        assert np.max(np.abs(sym - num) / np.maximum(np.abs(sym), 1.0)) <= 1e-6


class TestDataclasses:
    def test_configs_compare_by_value(self):
        a = RunConfig(model=ModelSpec("iid_gaussian", 2),
                      jobs=(JobSpec(kind="selftest"),))
        b = RunConfig(model=ModelSpec("iid_gaussian", 2),
                      jobs=(JobSpec(kind="selftest"),))
        assert a == b
