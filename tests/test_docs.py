"""The configs shown in the docs and kept in the repo parse, the README
example runs, and both parameter tables say what the parser checks."""

import dataclasses
import re
from pathlib import Path

import pytest

from glset import config as config_module
from glset import parse_config, run

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _readme_configs():
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README, re.M | re.S)
    return [b for b in blocks if b.startswith("model ")]


def _repo_configs():
    """Every triple-quoted config in tests/, demos/ and src/, and the
    benchmark's reference config with its seed filled in."""
    found = {}
    for path in sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("demos/*.py"),
                        *ROOT.glob("src/glset/*.py")]):
        for i, text in enumerate(re.findall(r'"""\\?\n?(model .*?)"""', path.read_text(), re.S)):
            found[f"{path.relative_to(ROOT)}[{i}]"] = text
    bench = (ROOT / "bench" / "surface_report.cfg").read_text()
    found["bench/surface_report.cfg"] = bench.replace("{seed}", "7")
    for i, text in enumerate(_readme_configs()):
        found[f"README.md[{i}]"] = text
    return found


REPO_CONFIGS = _repo_configs()


def test_configs_are_found():
    assert "README.md[0]" in REPO_CONFIGS
    assert any(name.startswith("demos/07") for name in REPO_CONFIGS)
    assert any(name.startswith("tests/test_runner_cli") for name in REPO_CONFIGS)


@pytest.mark.parametrize("name", sorted(REPO_CONFIGS))
def test_config_parses(name):
    parse_config(REPO_CONFIGS[name])


def test_readme_example_runs(tmp_path):
    config = parse_config(_readme_configs()[0])
    small = dataclasses.replace(config, jobs=tuple(
        dataclasses.replace(job, n=min(job.n, 20000)) for job in config.jobs))
    assert run(small, output_dir=tmp_path) == 0


def _schema_text(cells):
    """``G phi|phi_list`` from the code spans of README table cells."""
    return " ".join(span.replace(" \\| ", "|") for span in re.findall(r"`([^`]*)`", cells))


def test_readme_table_is_the_schema():
    rows = [re.split(r"(?<!\\)\|", line)[1:-1] for line in README.splitlines()
            if line.startswith("| `")]
    table = {kind.strip(" `"): (_schema_text(req), _schema_text(opt))
             for kind, req, opt in (cells for cells in rows if len(cells) == 3)}
    assert table == config_module._JOBS


def test_module_docstring_table_is_the_schema():
    rows = re.findall(r"^    (\w+) +(.*?)(?:  \[(.*)\])?$", config_module.__doc__, re.M)
    table = {kind: (req, opt) for kind, req, opt in rows if kind in config_module._JOBS}
    table["selftest"] = ("", "")  # its row reads "(no parameters)"
    assert table == config_module._JOBS
