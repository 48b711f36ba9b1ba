"""Docs/code consistency checks.

DESIGN.md promises an experiment index and pinning tests; EXPERIMENTS.md
records ids; README names example scripts.  These tests keep the
documentation honest as the code moves.
"""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.experiments import EXPERIMENTS

ROOT = pathlib.Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text(encoding="utf-8")


class TestDesignDoc:
    def test_every_experiment_id_documented(self):
        design = read("DESIGN.md")
        for experiment_id in EXPERIMENTS:
            assert f"`{experiment_id}`" in design, experiment_id

    def test_every_bench_target_exists(self):
        """Each experiment's pinning test names a real file and class."""
        design = read("DESIGN.md")
        targets = re.findall(r"`(tests/[\w/]+\.py)::(\w+)`", design)
        assert len(targets) >= len(EXPERIMENTS)
        for path, cls in targets:
            assert (ROOT / path).exists(), path
            assert f"class {cls}" in read(path), f"{path}::{cls}"

    def test_confirms_paper_identity(self):
        design = read("DESIGN.md")
        assert "Hiltunen" in design and "ICDCS" in design
        assert "not a title collision" in design


class TestExperimentsDoc:
    def test_every_experiment_id_recorded(self):
        experiments = read("EXPERIMENTS.md")
        for experiment_id in EXPERIMENTS:
            assert f"`{experiment_id}`" in experiments, experiment_id

    def test_paper_values_quoted_correctly(self):
        """The doc quotes paper numbers; spot-check them against the
        actual analysis."""
        from repro.analysis import availability, security

        experiments = read("EXPERIMENTS.md")
        assert "0.38742" in experiments
        assert f"{security(10, 1, 0.1):.5f}" == "0.38742"
        assert "0.10737" in experiments
        assert f"{availability(10, 10, 0.2):.5f}" == "0.10737"


class TestReadme:
    def test_example_scripts_exist(self):
        readme = read("README.md")
        for script in re.findall(r"`(\w+\.py)`", readme):
            if script in ("setup.py",):
                continue
            assert (ROOT / "examples" / script).exists(), script

    def test_experiment_ids_mentioned_are_real(self):
        readme = read("README.md")
        for match in re.findall(r"`([a-z_0-9]+)`", readme):
            if match in EXPERIMENTS:
                continue  # real id, fine
        # and the core ones must be present
        for required in ("table1", "figure5", "sim_table1", "baselines"):
            assert f"`{required}`" in readme, required

    def test_architecture_tree_paths_exist(self):
        readme = read("README.md")
        for module in re.findall(r"([a-z_]+\.py)\s{2,}", readme):
            hits = list((ROOT / "src").rglob(module))
            assert hits, f"README references missing module {module}"


class TestProtocolDoc:
    def test_referenced_tests_exist(self):
        protocol = read("docs/PROTOCOL.md")
        match = re.search(r"tests/[\w/]+\.py", protocol)
        assert match is not None
        assert (ROOT / match.group(0)).exists()

    def test_referenced_source_files_exist(self):
        protocol = read("docs/PROTOCOL.md")
        for ref in re.findall(r"`(core/\w+\.py|sim/\w+\.py)`", protocol):
            assert (ROOT / "src" / "repro" / ref).exists(), ref
