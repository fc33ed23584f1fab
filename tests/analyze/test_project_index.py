"""Tests for the whole-program symbol index."""

from pathlib import Path

from tools.analyze.project import ProjectIndex, module_name_for

FIXTURES = Path(__file__).parent / "fixtures"


class TestModuleNaming:
    def test_anchored_at_last_src_segment(self):
        path = Path("tests/analyze/fixtures/case/src/repro/manycore/chip.py")
        assert module_name_for(path) == "repro.manycore.chip"

    def test_production_path(self):
        assert module_name_for(Path("src/repro/parallel/cache.py")) == (
            "repro.parallel.cache"
        )

    def test_init_maps_to_package(self):
        assert module_name_for(Path("src/repro/obs/__init__.py")) == "repro.obs"

    def test_no_src_uses_bare_filename(self):
        assert module_name_for(Path("scripts/helper.py")) == "helper"


class TestSymbolTables:
    def setup_method(self):
        self.index = ProjectIndex.build([FIXTURES / "det002_bad"])

    def test_fixture_tree_indexes_under_production_names(self):
        assert "repro.manycore.chip" in self.index.modules
        assert "repro.kernel.epoch" in self.index.modules

    def test_methods_get_qualified_names(self):
        assert "repro.manycore.chip.ManyCoreChip.step" in self.index.functions
        fn = self.index.functions["repro.manycore.chip.ManyCoreChip._accumulate"]
        assert fn.class_name == "ManyCoreChip"

    def test_classes_table(self):
        cls = self.index.classes["repro.kernel.epoch.EpochKernel"]
        assert "step" in cls.methods


class TestCallResolution:
    def setup_method(self):
        self.index = ProjectIndex.build([FIXTURES / "det004_bad"])

    def test_self_free_function_call_resolves(self):
        callees = self.index.callees("repro.parallel.cache.stable_hash")
        assert "repro.parallel.cache._fresh" in callees
        assert "repro.parallel.cache._mix" in callees

    def test_reachability_closure(self):
        reachable = self.index.reachable(["repro.parallel.cache.cell_key"])
        assert "repro.parallel.cache.stable_hash" in reachable
        assert "repro.parallel.cache._mix" in reachable
        assert "repro.parallel.cache.unreachable_clock" not in reachable

    def test_imports_table_resolves_from_import(self):
        emitter_index = ProjectIndex.build([FIXTURES / "det005_bad"])
        mod = emitter_index.modules["repro.obs.emitter"]
        assert mod.imports["make_event"] == "repro.obs.events.make_event"


class TestSyntaxErrors:
    def test_broken_file_is_recorded_not_raised(self):
        index = ProjectIndex.build([FIXTURES / "syntax_error"])
        assert len(index.syntax_errors) == 1
        path, line, message = index.syntax_errors[0]
        assert path.endswith("broken.py")
        assert line >= 1
        assert "broken.py" not in " ".join(index.modules)
