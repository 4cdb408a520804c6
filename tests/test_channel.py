import math
import sys

import mpmath as mp
import numpy as np
import pytest

from relaycap import (
    ChannelParams,
    capacity_full_cooperation,
    capacity_no_relay,
    cutset_c0_threshold,
)

EPS = sys.float_info.epsilon


class TestChannelParams:
    def test_valid(self):
        p = ChannelParams(2.0, 0.5)
        assert p.snr == 4.0

    @pytest.mark.parametrize("P,N", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0),
                                     (math.inf, 1.0), (1.0, math.nan)])
    def test_invalid(self, P, N):
        with pytest.raises(ValueError):
            ChannelParams(P, N)

    def test_from_snr(self):
        p = ChannelParams.from_snr(10.0)
        assert p.P == 10.0 and p.N == 1.0


class TestCapacities:
    def test_no_relay_values(self):
        assert capacity_no_relay(ChannelParams(1.0, 1.0)) == 0.5
        assert capacity_no_relay(ChannelParams(3.0, 1.0)) == pytest.approx(1.0, abs=1e-15)
        # zero-SNR limit
        assert capacity_no_relay(ChannelParams(1e-12, 1.0)) < 1e-11

    def test_full_cooperation_values(self):
        assert capacity_full_cooperation(ChannelParams(1.0, 1.0)) == pytest.approx(
            0.5 * math.log2(3.0), abs=1e-15
        )
        assert capacity_full_cooperation(ChannelParams(1.5, 1.0)) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_cooperation_strictly_helps(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            p = ChannelParams(float(10 ** rng.uniform(-3, 3)), float(10 ** rng.uniform(-3, 3)))
            assert capacity_no_relay(p) < capacity_full_cooperation(p)

    def test_threshold_values(self):
        assert cutset_c0_threshold(ChannelParams(1.0, 1.0)) == pytest.approx(
            0.5 * math.log2(3.0) - 0.5, abs=1e-15
        )
        assert cutset_c0_threshold(ChannelParams(3.0, 1.0)) == pytest.approx(
            0.5 * math.log2(7.0) - 1.0, abs=1e-15
        )
        # vanishes with the SNR
        assert cutset_c0_threshold(ChannelParams(1e-9, 1.0)) < 1e-9

    def test_threshold_identity_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = ChannelParams(float(10 ** rng.uniform(-2, 2)), float(10 ** rng.uniform(-2, 2)))
            diff = cutset_c0_threshold(p) - (
                capacity_full_cooperation(p) - capacity_no_relay(p)
            )
            assert abs(diff) <= 1e-15

    @pytest.mark.parametrize("log10_snr", range(-12, 7))
    def test_threshold_against_mpmath(self, log10_snr):
        # C(inf) - C(0) cancels at low SNR (1e-4 relative at SNR 1e-12);
        # 1/2 log2((2P + N)/(P + N)) at 40 digits does not
        p = ChannelParams.from_snr(10.0 ** log10_snr)
        with mp.workdps(40):
            P, N = mp.mpf(p.P), mp.mpf(p.N)
            ref = mp.log((2 * P + N) / (P + N), 2) / 2
            assert abs(cutset_c0_threshold(p) - ref) <= 4 * EPS * ref

    def test_monotone_in_power_and_noise(self):
        powers = np.linspace(0.1, 20.0, 25)
        for fn in (capacity_no_relay, capacity_full_cooperation, cutset_c0_threshold):
            vals = [fn(ChannelParams(float(P), 1.0)) for P in powers]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            noises = np.linspace(0.1, 20.0, 25)
            vals = [fn(ChannelParams(1.0, float(N))) for N in noises]
            assert all(b <= a for a, b in zip(vals, vals[1:]))
