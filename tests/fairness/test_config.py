"""Config-layer validation for the fairness-policy fields."""

import pytest

from repro.core.config import _FAIRNESS_POLICIES, CloudExConfig
from repro.fairness.base import POLICY_NAMES


def test_config_literal_matches_registry():
    # config.py keeps its own literal to stay import-light; this pin is
    # what keeps the two tuples from drifting.
    assert _FAIRNESS_POLICIES == POLICY_NAMES


def test_every_policy_name_accepted():
    for name in POLICY_NAMES:
        assert CloudExConfig(fairness_policy=name).fairness_policy == name


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="fairness_policy"):
        CloudExConfig(fairness_policy="lightspeed")


def test_ddp_requires_cloudex():
    # DDP tunes d_s/d_h at runtime; only the cloudex backend has them.
    CloudExConfig(fairness_policy="cloudex", ddp_inbound_target=0.01)
    for policy in ("dbo", "pfo", "noop"):
        with pytest.raises(ValueError, match="DDP targets require"):
            CloudExConfig(fairness_policy=policy, ddp_inbound_target=0.01)
        with pytest.raises(ValueError, match="DDP targets require"):
            CloudExConfig(fairness_policy=policy, ddp_outbound_target=0.01)


def test_dbo_bounds():
    CloudExConfig(dbo_window=1, dbo_guard_cap_us=0.0)
    with pytest.raises(ValueError, match="dbo_window"):
        CloudExConfig(dbo_window=0)
    with pytest.raises(ValueError, match="dbo_guard_cap_us"):
        CloudExConfig(dbo_guard_cap_us=-1.0)


def test_pfo_bounds():
    CloudExConfig(pfo_threshold=0.5)
    for threshold in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="pfo_threshold"):
            CloudExConfig(pfo_threshold=threshold)
