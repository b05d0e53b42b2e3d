"""Warn-and-default env parsing (satellite: no bare ValueError from
``REPRO_*`` config typos).

A garbage numeric environment variable must never escape as a raw
``ValueError`` from deep inside the pipeline: :func:`repro.util.env_int`
/ :func:`env_float` warn once (:class:`~repro.util.EnvVarWarning`), count
``env.parse_errors``, and return the documented default — and a call
site (the single-flight follower timeout; ``test_autotune`` covers the
autotuner's ``REPRO_AUTOTUNE_TOPK``) behaves as if the variable were
unset.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.compiler import compile_kernel
from repro.formats import as_format
from repro.instrument import INSTR
from repro.ir.kernels import ALL_KERNELS
from repro.util import EnvVarWarning, env_float, env_int
from repro.util.store import singleflight_timeout


class TestEnvInt:
    def test_unset_returns_default_silently(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env_int("REPRO_TEST_KNOB", 7) == 7

    def test_empty_returns_default_silently(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "   ")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env_int("REPRO_TEST_KNOB", 7) == 7

    def test_valid_value_parses(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", " 12 ")
        assert env_int("REPRO_TEST_KNOB", 7) == 12

    @pytest.mark.parametrize("raw", ["eight", "3.5", "1e3", "0x10", "true"])
    def test_garbage_warns_and_defaults(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_KNOB", raw)
        before = INSTR.get("env.parse_errors")
        with pytest.warns(EnvVarWarning, match="REPRO_TEST_KNOB"):
            assert env_int("REPRO_TEST_KNOB", 7) == 7
        assert INSTR.get("env.parse_errors") == before + 1

    def test_below_minimum_warns_and_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "-3")
        with pytest.warns(EnvVarWarning, match=">= 0"):
            assert env_int("REPRO_TEST_KNOB", 7, minimum=0) == 7

    def test_minimum_is_inclusive(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "0")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env_int("REPRO_TEST_KNOB", 7, minimum=0) == 0


class TestEnvFloat:
    @pytest.mark.parametrize("raw", ["soon", "1..5", "five", "nan"])
    def test_garbage_warns_and_defaults(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_KNOB", raw)
        with pytest.warns(EnvVarWarning, match="REPRO_TEST_KNOB"):
            assert env_float("REPRO_TEST_KNOB", 2.5) == 2.5

    def test_valid_value_parses(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "0.25")
        assert env_float("REPRO_TEST_KNOB", 2.5) == 0.25

    def test_negative_rejected_with_minimum(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "-1.0")
        with pytest.warns(EnvVarWarning):
            assert env_float("REPRO_TEST_KNOB", 2.5, minimum=0.0) == 2.5


class TestCallSites:
    """The original bug: garbage values raised bare ValueError."""

    def test_singleflight_timeout_with_garbage_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_SINGLEFLIGHT_TIMEOUT", "soon")
        with pytest.warns(EnvVarWarning, match="REPRO_SINGLEFLIGHT_TIMEOUT"):
            assert singleflight_timeout() == 300.0

    def test_singleflight_timeout_valid(self, monkeypatch):
        monkeypatch.setenv("REPRO_SINGLEFLIGHT_TIMEOUT", "17.5")
        assert singleflight_timeout() == 17.5

    @pytest.mark.parametrize("kwarg, value", [
        ("parallel", "atomic"), ("parallel", "speculative"),
        ("opt", "fast"), ("opt", "warp9")])
    def test_retired_mode_raises_like_any_typo(self, small_square, kwarg,
                                               value):
        """Where the environment warns and defaults, an explicit argument
        raises — and ``parallel="atomic"`` / ``opt="fast"``, modes once,
        get the same ``ValueError`` as a value that never existed (``opt``
        selects nothing any more, and is still checked)."""
        A = as_format(small_square, "csr")
        with pytest.raises(ValueError) as e:
            compile_kernel(ALL_KERNELS["mvm"](), {"A": A}, backend="c",
                           **{kwarg: value})
        assert str(e.value).startswith(f"{kwarg} must be 'none' or ")
        assert str(e.value).endswith(f"got {value!r}")
