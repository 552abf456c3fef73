"""Tests for the package-level public API surface and the runnable quickstart."""

from __future__ import annotations

import importlib

import pytest

import repro


class TestPublicSurface:
    def test_version_exposed(self):
        assert repro.__version__

    def test_all_names_resolvable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_error_hierarchy(self):
        from repro.errors import (
            AlgorithmError,
            DimensionalityError,
            GeometryError,
            InvalidDatasetError,
            InvalidQueryVectorError,
            InvalidRecordError,
            ReproError,
        )

        for exc in (AlgorithmError, DimensionalityError, GeometryError,
                    InvalidDatasetError, InvalidQueryVectorError, InvalidRecordError):
            assert issubclass(exc, ReproError)

    def test_subpackages_importable(self):
        for module in ("repro.core", "repro.data", "repro.geometry", "repro.index",
                       "repro.quadtree", "repro.skyline", "repro.topk",
                       "repro.experiments"):
            importlib.import_module(module)

    def test_algorithm_registry(self):
        assert set(repro.ALGORITHMS) == {
            "auto", "aa", "aa2d", "aa3d", "ba", "fca", "exact",
        }

    def test_engine_registry_is_gone(self):
        """d = 3 has one path: no engine names are exported."""
        import repro.core

        assert not hasattr(repro, "ENGINES")
        assert not hasattr(repro.core, "ENGINES")


class TestQuickstartExample:
    def test_quickstart_runs_and_verifies(self):
        """The quickstart script is the documented entry point; it must run
        end to end (it asserts its own verification internally)."""
        import runpy
        import sys
        from pathlib import Path

        script = Path(__file__).resolve().parents[1] / "examples" / "quickstart.py"
        assert script.exists()
        runpy.run_path(str(script), run_name="__main__")
