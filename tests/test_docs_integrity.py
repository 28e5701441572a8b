"""Documentation integrity: the docs must point at things that exist."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestDeliverableFiles:
    def test_required_documents_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                     "CHANGES.md", "pyproject.toml"):
            assert (ROOT / name).is_file(), name

    def test_docs_directory(self):
        for name in ("architecture.md", "calibration.md", "extending.md",
                     "api.md", "faq.md"):
            assert (ROOT / "docs" / name).is_file(), name


class TestDesignExperimentIndex:
    def test_every_bench_target_in_design_exists(self):
        design = (ROOT / "DESIGN.md").read_text()
        targets = set(re.findall(r"`(benchmarks/[\w/]+\.py)`", design))
        assert targets, "DESIGN.md lists no bench targets?"
        for target in targets:
            assert (ROOT / target).is_file(), target

    def test_every_module_mentioned_in_design_exists(self):
        design = (ROOT / "DESIGN.md").read_text()
        modules = set(re.findall(
            r"`((?:core|cellular|d2d|energy|mobility|workload|sim|baseline)"
            r"/[\w]+\.py)`",
            design,
        ))
        for module in modules:
            assert (ROOT / "src" / "repro" / module).is_file(), module

    def test_experiments_md_references_existing_benches(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        targets = set(re.findall(r"`(benchmarks/[\w/]+\.py)", text))
        for target in targets:
            assert (ROOT / target).is_file(), target


class TestReadmeLinks:
    def test_relative_links_resolve(self):
        readme = (ROOT / "README.md").read_text()
        for link in re.findall(r"\]\((?!http)([^)#]+)\)", readme):
            assert (ROOT / link).exists(), link

    def test_readme_mentions_every_example(self):
        readme = (ROOT / "README.md").read_text()
        for example in sorted((ROOT / "examples").glob("*.py")):
            assert example.name in readme, example.name


class TestBenchCoverageOfPaperArtifacts:
    def test_one_bench_per_table_and_figure(self):
        """Every evaluation artifact id in DESIGN.md §4 has a bench file."""
        expected = {
            "T1": "test_table1_heartbeat_proportion.py",
            "T3": "test_table3_phase_energy.py",
            "T4": "test_table4_receive_energy.py",
            "F6": "test_fig6_7_current_traces.py",
            "F8": "test_fig8_energy_vs_transmissions.py",
            "F9": "test_fig9_saved_energy.py",
            "F10": "test_fig10_relay_multi_ue.py",
            "F11": "test_fig11_wasted_saved_ratio.py",
            "F12": "test_fig12_distance_sweep.py",
            "F13": "test_fig13_size_sweep.py",
            "F15": "test_fig15_signaling.py",
        }
        for artifact, filename in expected.items():
            assert (ROOT / "benchmarks" / filename).is_file(), artifact
