"""Capacity bounds for the symmetric Gaussian relay channel.

Evaluates the classical cut-set bound, a geometric capacity upper bound
with its strict-gap certificate, and the compress-and-forward achievable
rate; provides exact log-domain high-dimensional geometry (caps, shells,
ball intersections) and seeded Monte Carlo verification of the underlying
concentration and cap-intersection properties.
"""

from .channel import (
    ChannelParams,
    capacity_full_cooperation,
    capacity_no_relay,
    cutset_c0_threshold,
)
from .bounds import (
    GapCertificate,
    capacity_upper_bound,
    compress_forward_rate,
    conditional_entropy_bound,
    cutset_bound,
    entropy_difference_bound,
    gap_certificate,
    sweep,
)
from .errors import DomainError, InvalidInput, NumericalError, UnsupportedSet
from .geometry import (
    BallIntersection,
    BallPairSpec,
    CapSpec,
    LogMeasure,
    MeasureKind,
    ShellCapIntersection,
    ShellSpec,
    ball_overlap_lambda,
    cap_intersection_exponent,
    log_ball_intersection,
    log_cap_area,
    log_cap_intersection,
    log_shell_cap_volume,
    log_shell_volume,
    log_shellcap_intersection_bounds,
    log_sphere_area,
    reg_inc_beta,
)

# The Monte Carlo layer needs numpy, which costs ~0.17 s of start-up that
# the bounds and geometry commands never use, so its names are resolved on
# first access (PEP 562).
_MONTECARLO_NAMES = frozenset({
    "McConfig",
    "McReport",
    "ShellSet",
    "SphereSet",
    "Verdict",
    "verify_blowup",
    "verify_concentration",
    "verify_isoperimetry_shell",
    "verify_isoperimetry_sphere",
})


def __getattr__(name: str):
    if name in _MONTECARLO_NAMES:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MONTECARLO_NAMES)


__version__ = "0.1.0"

__all__ = [
    "BallIntersection",
    "BallPairSpec",
    "CapSpec",
    "ChannelParams",
    "DomainError",
    "GapCertificate",
    "InvalidInput",
    "LogMeasure",
    "McConfig",
    "McReport",
    "MeasureKind",
    "NumericalError",
    "ShellCapIntersection",
    "ShellSet",
    "ShellSpec",
    "SphereSet",
    "UnsupportedSet",
    "Verdict",
    "ball_overlap_lambda",
    "cap_intersection_exponent",
    "capacity_full_cooperation",
    "capacity_no_relay",
    "capacity_upper_bound",
    "compress_forward_rate",
    "conditional_entropy_bound",
    "cutset_bound",
    "cutset_c0_threshold",
    "entropy_difference_bound",
    "gap_certificate",
    "log_ball_intersection",
    "log_cap_area",
    "log_cap_intersection",
    "log_shell_cap_volume",
    "log_shell_volume",
    "log_shellcap_intersection_bounds",
    "log_sphere_area",
    "reg_inc_beta",
    "sweep",
    "verify_blowup",
    "verify_concentration",
    "verify_isoperimetry_shell",
    "verify_isoperimetry_sphere",
]
