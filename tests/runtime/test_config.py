"""RuntimeConfig validation."""

from dataclasses import fields

import pytest

from repro.errors import ConfigurationError
from repro.runtime import RuntimeConfig


class TestValidation:
    def test_defaults_are_valid(self):
        config = RuntimeConfig()
        assert config.backend is None
        assert not config.parallel

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backend": "turbo"},
            {"workers": -1},
            {"breaker_threshold": 0},
            {"flush_threshold": 1.5},
            {"flush_threshold": -0.1},
            {"point_scalar_max": -1},
            {"breaker_cooldown": -1.0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(**kwargs)

    def test_six_fields(self):
        assert [f.name for f in fields(RuntimeConfig)] == [
            "backend",
            "workers",
            "flush_threshold",
            "point_scalar_max",
            "breaker_threshold",
            "breaker_cooldown",
        ]

    def test_parallel_needs_more_than_one_worker(self):
        assert not RuntimeConfig(workers=1).parallel
        assert RuntimeConfig(workers=2).parallel

    def test_with_copies_validate(self):
        config = RuntimeConfig()
        assert config.with_backend("scalar").backend == "scalar"
        assert config.with_backend("scalar") is not config
        with pytest.raises(ConfigurationError):
            config.with_backend("turbo")
