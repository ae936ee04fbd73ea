"""Unit tests for network parameter sets."""

import pytest

from repro.net.params import (
    MSG_HEADER_BYTES,
    SMALL_MSG_BYTES,
    NetworkParams,
    _preset,
    gige,
    myrinet2000,
    quadrics_like,
)


class TestValidation:
    @pytest.mark.parametrize(
        "field",
        [
            "inter_latency_us",
            "per_byte_us",
            "o_send_us",
            "o_recv_us",
            "intra_latency_us",
            "shm_access_us",
            "shm_atomic_us",
            "poll_detect_us",
            "server_proc_us",
            "server_wake_us",
            "mem_copy_per_byte_us",
            "server_fence_check_us",
            "server_lock_op_us",
            "api_call_us",
            "mp_call_us",
            "jitter_us",
        ],
    )
    def test_negative_values_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            NetworkParams(**{field: -0.1})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field",
        ["inter_latency_us", "mp_call_us", "per_byte_us", "nic_proc_us",
         "retry_timeout_us", "retry_backoff", "adaptive_rto_max_us"],
    )
    def test_non_finite_costs_rejected(self, field, value):
        """NaN passes ``value < 0`` and inf is not a time: a run would die
        mid-flight scheduling either."""
        with pytest.raises(ValueError, match=f"{field} must be non-negative and finite"):
            myrinet2000().with_(**{field: value})

    @pytest.mark.parametrize("field", ["tree_radix", "send_credits", "max_retries"])
    @pytest.mark.parametrize("value", [2.5, 4.0, True])
    def test_integer_fields_take_ints(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            myrinet2000().with_(**{field: value})

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_membership_poll_must_be_positive(self, value):
        """A zero poll period spins an epoch-aware wait forever at one
        simulated instant (``yield 0`` in the resilient receive)."""
        with pytest.raises(ValueError, match="membership_poll_us"):
            NetworkParams(membership_poll_us=value)

    def test_zero_costs_allowed(self):
        params = NetworkParams(
            inter_latency_us=0.0, o_send_us=0.0, server_wake_us=0.0
        )
        assert params.inter_latency_us == 0.0

    def test_frozen(self):
        with pytest.raises(Exception):
            myrinet2000().inter_latency_us = 5.0


class TestDerivedCosts:
    def test_xfer_time_linear_in_bytes(self):
        params = NetworkParams(per_byte_us=0.01)
        assert params.xfer_time(100) == pytest.approx(1.0)
        assert params.xfer_time(0) == 0.0

    def test_one_way_includes_all_terms(self):
        params = NetworkParams(
            inter_latency_us=10.0, per_byte_us=0.0, o_send_us=1.0, o_recv_us=2.0
        )
        assert params.one_way(0) == pytest.approx(13.0)

    def test_one_way_charges_header(self):
        params = NetworkParams(
            inter_latency_us=0.0, per_byte_us=1.0, o_send_us=0.0, o_recv_us=0.0
        )
        assert params.one_way(8) == pytest.approx(8 + MSG_HEADER_BYTES)

    def test_with_replaces_fields(self):
        params = myrinet2000().with_(inter_latency_us=99.0)
        assert params.inter_latency_us == 99.0
        # other fields untouched
        assert params.o_send_us == myrinet2000().o_send_us


class TestPresets:
    def test_myrinet_default_is_networkparams_default(self):
        assert myrinet2000() == NetworkParams()

    def test_gige_is_slower_than_myrinet(self):
        assert gige().inter_latency_us > myrinet2000().inter_latency_us
        assert gige().one_way() > myrinet2000().one_way()

    def test_quadrics_is_faster_than_myrinet(self):
        assert quadrics_like().one_way() < myrinet2000().one_way()

    def test_preset_overrides(self):
        assert myrinet2000(server_wake_us=1.0).server_wake_us == 1.0
        assert gige(o_send_us=0.5).o_send_us == 0.5

    def test_preset_lookup_by_name(self):
        assert _preset("gige") == gige()
        assert _preset("myrinet2000") == myrinet2000()
        assert _preset("quadrics") == quadrics_like()

    def test_preset_unknown_name(self):
        with pytest.raises(ValueError, match="unknown network preset"):
            _preset("infiniband")

    def test_small_msg_constant_sane(self):
        assert 0 < SMALL_MSG_BYTES <= 256
