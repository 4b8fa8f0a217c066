"""Tests for subframe and grant dataclasses."""

import pytest

from repro.constants import RX_BUDGET_US
from repro.lte.subframe import Subframe, UplinkGrant


class TestUplinkGrant:
    def test_default_grant(self):
        grant = UplinkGrant(mcs=13)
        assert grant.num_prbs == 50
        assert grant.num_antennas == 2

    def test_tbs_and_load_derived(self):
        grant = UplinkGrant(mcs=27)
        assert grant.tbs_bits == 31704
        assert grant.modulation_order == 6
        assert grant.subcarrier_load == pytest.approx(31704 / 8400)

    def test_code_blocks(self):
        assert UplinkGrant(mcs=27).code_blocks == 6
        assert UplinkGrant(mcs=0).code_blocks == 1

    def test_invalid_mcs_rejected_eagerly(self):
        with pytest.raises(ValueError):
            UplinkGrant(mcs=40)

    def test_invalid_antennas_rejected(self):
        with pytest.raises(ValueError):
            UplinkGrant(mcs=0, num_antennas=0)

    def test_invalid_prbs_rejected(self):
        with pytest.raises(ValueError):
            UplinkGrant(mcs=0, num_prbs=0)


class TestSubframe:
    def make(self, index=3, latency=500.0):
        return Subframe(
            bs_id=1,
            index=index,
            grant=UplinkGrant(mcs=10),
            transport_latency_us=latency,
        )

    def test_air_time_is_subframe_boundary(self):
        assert self.make(index=7).air_time_us == 7000.0

    def test_arrival_includes_transport(self):
        sf = self.make(index=2, latency=450.0)
        assert sf.arrival_us == 2450.0

    def test_deadline_is_2ms_after_air_time(self):
        sf = self.make(index=5)
        assert sf.deadline_us == 5000.0 + RX_BUDGET_US

    def test_processing_budget_eq3(self):
        # Tmax = 2 ms - RTT/2 (Eq. (3)).
        sf = self.make(latency=600.0)
        assert sf.processing_budget_us == 1400.0

    def test_budget_plus_transport_is_rx_budget(self):
        sf = self.make(latency=432.0)
        assert sf.processing_budget_us + sf.transport_latency_us == RX_BUDGET_US

    def test_key_identity(self):
        assert self.make(index=9).key() == (1, 9)

    def test_deadline_after_arrival_for_valid_latency(self):
        sf = self.make(latency=700.0)
        assert sf.deadline_us > sf.arrival_us
