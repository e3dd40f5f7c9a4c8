"""Option quotes and the standard OTM sample filter.

A chain is a tuple of OptionQuote; `io.load_option_chain` returns one
sorted by (quote date, maturity, strike).
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

from .errors import ValidationError

OPTION_TYPES = ("call", "put")

# first-failing-rule attribution order
FILTER_RULES = ("maturity", "implied_vol", "price", "otm", "moneyness")

# the OTM sample screen; both ends of each range are kept
MIN_MATURITY_DAYS, MAX_MATURITY_DAYS = 10, 365
MAX_IV = 0.70
MIN_PRICE = 0.05
MIN_MONEYNESS, MAX_MONEYNESS = 0.8, 1.2


@dataclass(frozen=True)
class OptionQuote:
    """One market option record."""

    quote_date: dt.date
    expiry_date: dt.date
    strike: float
    option_type: str     # "call" | "put"
    mid_price: float
    underlying: float
    rate: float          # daily decimal risk-free rate
    market_iv: float | None = None   # annualized decimal vol

    def __post_init__(self):
        if self.expiry_date <= self.quote_date:
            raise ValidationError(f"expiry {self.expiry_date} not after "
                                  f"quote date {self.quote_date}")
        if self.option_type not in OPTION_TYPES:
            raise ValidationError(f"option type must be call or put, "
                                  f"got {self.option_type!r}")
        # the sign checks below are all False for NaN; market_iv may be None
        for name in ("strike", "underlying", "mid_price", "rate",
                     "market_iv"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")
        if self.strike <= 0.0 or self.underlying <= 0.0:
            raise ValidationError("strike and underlying must be positive")
        if self.mid_price < 0.0:
            raise ValidationError("mid price must be nonnegative")

    @property
    def maturity_days(self) -> int:
        """Calendar days from the quote date to expiry."""
        return (self.expiry_date - self.quote_date).days

    @property
    def moneyness(self) -> float:
        """Strike over spot, m = K/S."""
        return self.strike / self.underlying

    @property
    def is_otm(self) -> bool:
        # ATM boundary m = 1 is assigned to the call side
        if self.option_type == "call":
            return self.moneyness >= 1.0
        return self.moneyness < 1.0


@dataclass
class FilterReport:
    """Retained quotes plus per-rule rejection counts (first failing rule)."""

    chain: tuple[OptionQuote, ...]
    rejections: dict
    n_input: int


def _first_failure(q: OptionQuote) -> str | None:
    if not (MIN_MATURITY_DAYS <= q.maturity_days <= MAX_MATURITY_DAYS):
        return "maturity"
    if q.market_iv is not None and q.market_iv > MAX_IV:
        return "implied_vol"
    if q.mid_price < MIN_PRICE:
        return "price"
    if not q.is_otm:
        return "otm"
    if not (MIN_MONEYNESS <= q.moneyness <= MAX_MONEYNESS):
        return "moneyness"
    return None


def filter_options(chain) -> FilterReport:
    """Keep the quotes of a chain, a sequence of OptionQuote, that pass all
    five screening rules, in their order.

    Rules, from the module constants: maturity from MIN_MATURITY_DAYS to
    MAX_MATURITY_DAYS (10 to 365 days), implied vol at most MAX_IV (70%),
    price at least MIN_PRICE (5 cents), out-of-the-money only (ATM calls
    included), and moneyness K/S from MIN_MONEYNESS to MAX_MONEYNESS (0.8
    to 1.2), range ends included.  Each rejected quote is attributed to
    the first rule it fails, in that order, so the counts plus the
    retained size always add up to the input size.
    """
    kept, counts = [], dict.fromkeys(FILTER_RULES, 0)
    for q in chain:
        rule = _first_failure(q)
        if rule is None:
            kept.append(q)
        else:
            counts[rule] += 1
    return FilterReport(chain=tuple(kept), rejections=counts,
                        n_input=len(chain))
