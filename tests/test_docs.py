"""The configs shown in the docs and kept in the repo parse, the README
example runs, both parameter tables say what the parser checks, and the
demos import only names glset has."""

import ast
import dataclasses
import importlib
import os
import re
import subprocess
import sys
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


def test_demo_imports_resolve():
    missing = []
    for path in sorted(ROOT.glob("demos/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[0] == "glset"):
                continue
            module = importlib.import_module(node.module)
            missing += [f"{path.name}: {node.module}.{alias.name}" for alias in node.names
                        if not hasattr(module, alias.name)]
    assert missing == []


def test_divergence_calculus_demo_runs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / "02_divergence_calculus.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
