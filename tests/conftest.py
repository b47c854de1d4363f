"""Shared fixtures for the MINDFUL reproduction test suite."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
import pytest

from repro.core.scaling import ScaledSoC, scale_to_standard
from repro.core.socs import TABLE1, soc_by_number, wireless_socs
from repro.obs import metrics


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for reproducible tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def bisc() -> ScaledSoC:
    """SoC 1 (BISC) scaled to the 1024-channel standard."""
    return scale_to_standard(soc_by_number(1))


@pytest.fixture
def neuralink() -> ScaledSoC:
    """SoC 3 (Neuralink) scaled to the 1024-channel standard."""
    return scale_to_standard(soc_by_number(3))


@pytest.fixture
def all_scaled() -> list[ScaledSoC]:
    """Every Table 1 design scaled to 1024 channels."""
    return [scale_to_standard(record) for record in TABLE1]


@pytest.fixture
def wireless_scaled() -> list[ScaledSoC]:
    """SoCs 1-8 scaled to 1024 channels."""
    return [scale_to_standard(record) for record in wireless_socs()]


@pytest.fixture
def counted_metrics() -> Iterator[metrics.MetricsRegistry]:
    """The global metrics registry, empty and recording for one test."""
    metrics.disable()
    metrics.REGISTRY.reset()
    metrics.enable()
    yield metrics.REGISTRY
    metrics.disable()
    metrics.REGISTRY.reset()
