"""Symmetric Gaussian relay channel parameters and reference capacities.

The relay observes Z = X + W1 and the destination observes Y = X + W2,
with W1, W2 ~ N(0, N) independent of each other and of X, the source
average power constrained to P, and a noiseless bit pipe of rate C0 from
relay to destination.  All rates are in bits per channel use (base-2
logarithms throughout; C0 = math.inf is a valid value and denotes an
unlimited pipe).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidInput, NumericalError


@dataclass(frozen=True)
class ChannelParams:
    """Source power P and per-link noise variance N (linear scale, > 0)."""

    P: float
    N: float

    def __post_init__(self) -> None:
        for name, value in (("P", self.P), ("N", self.N)):
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise InvalidInput(f"{name} must be finite and > 0, got {value!r}")
        # every rate depends on P and N only through the SNR s = P/N, and the
        # largest term the bounds form from it is 2(2s + 1); past that (s from
        # 2^1022 ~ 4.5e307) a C(inf), a certified gap or a rate would come
        # out infinite, zero or NaN, as they would where P/N underflows to 0
        s = self.P / self.N
        if not (s > 0.0 and 2.0 * (2.0 * s + 1.0) < math.inf):
            raise NumericalError(
                f"SNR {s!r} (P={self.P!r}, N={self.N!r}) is out of float64 range: "
                "P/N must be > 0 and 2(2 P/N + 1) finite"
            )

    @property
    def snr(self) -> float:
        return self.P / self.N

    @classmethod
    def from_snr(cls, snr: float, noise: float = 1.0) -> "ChannelParams":
        return cls(P=snr * noise, N=noise)


def capacity_no_relay(params: ChannelParams) -> float:
    """C(0) = 1/2 log2(1 + P/N), the plain point-to-point AWGN capacity."""
    return 0.5 * math.log2(1.0 + params.P / params.N)


def capacity_full_cooperation(params: ChannelParams) -> float:
    """C(inf) = 1/2 log2(1 + 2P/N), relay and destination fully cooperating."""
    return 0.5 * math.log2(1.0 + 2.0 * (params.P / params.N))


def cutset_c0_threshold(params: ChannelParams) -> float:
    """Smallest C0 at which the cut-set bound saturates at C(inf).

    Equals C(inf) - C(0) = 1/2 log2(1 + P/(P+N)), in log1p form so it does
    not cancel at low SNR; the classical lower bound on the pipe rate needed
    to reach full cooperation.
    """
    s = params.P / params.N
    return 0.5 * math.log1p(s / (s + 1.0)) / math.log(2.0)
