"""Shared fixtures and hypothesis configuration."""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"

# interpreters the tests start import mcsym from this checkout, as pytest does
# through the ``pythonpath`` setting in pyproject.toml
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def example1_path() -> Path:
    return DATA / "example1.mcs"


@pytest.fixture(scope="session")
def example1(example1_path):
    from mcsym import load_system

    return load_system(example1_path)
