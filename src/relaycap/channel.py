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

from .errors import InvalidInput


@dataclass(frozen=True)
class ChannelParams:
    """Source power P and per-link noise variance N (linear scale, > 0)."""

    P: float
    N: float

    def __post_init__(self) -> None:
        for name, value in (("P", self.P), ("N", self.N)):
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise InvalidInput(f"{name} must be finite and > 0, got {value!r}")

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
    return 0.5 * math.log2(1.0 + 2.0 * params.P / params.N)


def cutset_c0_threshold(params: ChannelParams) -> float:
    """Smallest C0 at which the cut-set bound saturates at C(inf).

    Equals C(inf) - C(0) = 1/2 log2(1 + P/(P+N)), in log1p form so it does
    not cancel at low SNR; the classical lower bound on the pipe rate needed
    to reach full cooperation.
    """
    return 0.5 * math.log1p(params.P / (params.P + params.N)) / math.log(2.0)
