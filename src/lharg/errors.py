"""Exception hierarchy shared across the package, and its one check of
whole-number arguments (day counts, path counts, seeds).

The CLI maps these onto exit codes: validation problems exit with 2,
numerical failures with 3, infeasible calibrations with 4.
"""

from numbers import Integral


class LhargError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(LhargError):
    """Bad inputs: schema violations, impossible parameters, malformed state."""


def _whole(name: str, value, least: int) -> int:
    # value as an int, if it is a whole number (numpy integers included) of
    # at least `least`; a float, string or None raises naming the argument
    if not isinstance(value, Integral) or value < least:
        raise ValidationError(f"{name} must be a whole number >= {least}, "
                              f"got {value!r}")
    return int(value)


class NumericalError(LhargError):
    """A computation left its admissible domain or failed to converge."""


class RecursionDomainError(NumericalError):
    """A backward coefficient step violated its domain (branch or pole guard).

    Carries the offending step index counted from the valuation date.
    """

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


class MappingSingularError(NumericalError):
    """Risk-neutral rescaling undefined: theta * Y* >= 1."""


class LikelihoodDomainError(NumericalError):
    """The likelihood is undefined or out of reach at an observation: its
    noncentrality is nonpositive, or its noncentral gamma mixture needs more
    terms than the likelihood's ceiling.

    Carries the 0-based observation index at which the violation occurred.
    """

    def __init__(self, index: int, message: str):
        super().__init__(f"observation {index}: {message}")
        self.index = index


class InversionDomainError(ValidationError):
    """Option price outside its static no-arbitrage bounds; no implied vol exists."""


class CalibrationInfeasibleError(LhargError):
    """Root bracketing for the variance-premium calibration failed.

    Reports the implied-vol range attainable on the searched bracket.
    """

    def __init__(self, iv_low: float, iv_high: float, target: float):
        super().__init__(
            f"target IV {target:.6f} outside attainable range "
            f"[{iv_low:.6f}, {iv_high:.6f}]"
        )
        self.iv_low = iv_low
        self.iv_high = iv_high
        self.target = target
