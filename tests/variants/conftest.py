"""Shared fixtures: one multi-variant build per session, reused by the
read-only suites (mutating tests build their own)."""

import pytest

from repro.programs.registry import get_program
from repro.variants.builder import VariantBuilder
from repro.fuzz.executor import PRESERVED


@pytest.fixture(scope="session")
def json_program():
    return get_program("json")


@pytest.fixture(scope="session")
def json_builder(json_program):
    builder = VariantBuilder(json_program.compile, preserve=PRESERVED)
    builder.build()
    return builder
