"""Documentation consistency guards.

Docs drift silently; these tests pin the load-bearing references —
module paths in DESIGN.md's inventory, experiment names in the CLI docs,
preset names in README — to the actual code.
"""

import importlib
import pathlib
import re


ROOT = pathlib.Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text()


class TestDesignInventory:
    def test_every_inventoried_package_imports(self):
        text = read("DESIGN.md")
        modules = set(re.findall(r"`(repro(?:\.[a-z_]+)+)`", text))
        assert len(modules) >= 15
        for module in sorted(modules):
            importlib.import_module(module)

    def test_experiment_index_matches_cli(self):
        from repro.experiments.cli import ALL_EXPERIMENTS

        text = read("DESIGN.md")
        # Every experiment module named in the index must exist.
        for name in re.findall(r"`experiments\.([a-z0-9_]+)`", text):
            importlib.import_module(f"repro.experiments.{name}")
        # Every paper artifact id appears in the index table.
        for artifact in ("T1", "T7", "F1", "F4", "F5", "F6", "F7"):
            assert f"| {artifact} " in text
        assert "ablation-a3" in ALL_EXPERIMENTS


class TestCliDocs:
    def test_file_formats_lists_real_experiments(self):
        from repro.experiments.cli import ALL_EXPERIMENTS

        text = read("docs/file-formats.md")
        for name in ("table1", "table7", "fig4", "kernels", "ablation-a3"):
            assert name in text
            assert name in ALL_EXPERIMENTS

    def test_file_formats_lists_real_show_choices(self):
        from repro.cli import SHOW_CHOICES

        text = read("docs/file-formats.md")
        for choice in SHOW_CHOICES:
            if choice != "all":
                assert choice in text

    def test_mnemonic_table_matches_parser(self):
        from repro.codegen.asmparser import MNEMONICS

        text = read("docs/file-formats.md")
        for mnemonic in MNEMONICS:
            assert mnemonic in text


class TestReadme:
    def test_mentions_real_presets(self):

        text = read("README.md")
        assert "paper_simulation_machine" in text

    def test_quickstart_snippet_runs(self):
        from repro import compile_source, paper_simulation_machine

        result = compile_source(
            "b = 15; a = b * a;", paper_simulation_machine(),
            verify_memory={"a": 3},
        )
        assert result.total_nops == 2  # the number README quotes
        assert result.search.completed

    def test_results_directory_references_exist(self):
        # `repro experiments --out results` writes the cited files; a
        # renamed or deleted one leaves a dangling citation.
        assert "results/table1.txt" in read("README.md")
        for doc in ("README.md", "EXPERIMENTS.md", "DESIGN.md", "docs/paper-mapping.md"):
            for path in re.findall(r"results/[\w./-]+\.(?:txt|csv)", read(doc)):
                assert (ROOT / path).is_file(), f"{doc} cites missing {path}"


class TestPaperMapping:
    def test_every_mapped_symbol_resolves(self):
        """Spot-check the paper-mapping doc's code references."""
        text = read("docs/paper-mapping.md")
        for dotted in (
            "repro.postpass",
            "repro.sched.heuristics.gross_schedule",
            "repro.sched.interblock",
            "repro.analysis.explain_schedule",
            "repro.machine.PipelineDesc",
        ):
            assert dotted in text
            module_path, _, attr = dotted.rpartition(".")
            try:
                module = importlib.import_module(dotted)
            except ModuleNotFoundError:
                module = importlib.import_module(module_path)
                assert hasattr(module, attr), dotted
