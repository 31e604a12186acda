"""Result-cache compatibility: plan cache keys and stored results stay valid.

``tests/data/plan_cache_keys.json`` holds the ``content_hash()`` of every
cell of every figure and workload plan, at the builders' defaults and at
``seeds=2``.  A refactor of the experiment types must reproduce these keys
exactly, or every result cache on disk silently stops matching.

``tests/data/result_cache_entry.json`` is one result-cache file (the
``ExperimentResult.to_dict()`` of a 2 s saturation cell) together with the
report row it produced; it must keep decoding to the same row.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.eval import scenarios
from repro.eval.experiment import ExperimentConfig, ExperimentResult
from repro.protocols.base import ProtocolParams

DATA = os.path.join(os.path.dirname(__file__), "data")

BUILDERS = dict(scenarios.PLAN_BUILDERS)
BUILDERS["workload-saturation"] = scenarios.plan_saturation_sweep
BUILDERS["workload-flash-crowd"] = scenarios.plan_flash_crowd
BUILDERS["workload-scale"] = scenarios.plan_scale_sweep


def _load(name: str):
    with open(os.path.join(DATA, name), "r", encoding="utf-8") as handle:
        return json.load(handle)


PINNED_KEYS = _load("plan_cache_keys.json")


def test_every_builder_is_pinned():
    assert sorted(PINNED_KEYS) == sorted(BUILDERS)


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("seeds", [1, 2])
def test_plan_cache_keys_unchanged(name, seeds):
    plan = BUILDERS[name](seeds=seeds)
    assert [spec.content_hash() for spec in plan.specs] == \
        PINNED_KEYS[name][f"seeds={seeds}"]


def test_stored_result_decodes_to_the_same_row():
    entry = _load("result_cache_entry.json")
    result = ExperimentResult.from_dict(entry["result"])
    assert result.row() == entry["row"]


def test_retired_signing_key_loads_as_the_unsigned_config():
    """Votes carry no signatures, and signing never changed an execution:
    parameters stored with ``"sign_messages": true`` load as the unsigned
    ones, and the stored cell keeps the unsigned content hash."""
    stored = _load("result_cache_entry.json")["result"]["config"]
    signed = dict(stored, params=dict(stored["params"], sign_messages=True))
    params = ProtocolParams.from_dict(signed["params"])
    assert params.to_dict() == stored["params"]
    assert ExperimentConfig.from_dict(signed).content_hash() == \
        ExperimentConfig.from_dict(stored).content_hash()


@pytest.mark.parametrize("signed", [True, False])
def test_retired_signing_key_is_written_false_and_read_as_nothing(signed):
    """``to_dict`` keeps writing ``"sign_messages": false`` so stored cache
    keys stay valid; ``from_dict`` ignores the key whatever its value, and
    the parameters no longer take it."""
    unsigned = ProtocolParams(n=7, f=2, p=1)
    data = dict(unsigned.to_dict(), sign_messages=signed)
    assert ProtocolParams.from_dict(data) == unsigned
    assert unsigned.to_dict()["sign_messages"] is False
    with pytest.raises(TypeError):
        ProtocolParams(n=7, f=2, p=1, sign_messages=signed)
