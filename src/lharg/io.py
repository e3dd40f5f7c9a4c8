"""CSV ingestion, and reading and writing the key = value parameter file.

Schemas (ISO dates, decimal point, header row mandatory):

    RV file       date,rv                      daily decimal variance
    returns file  date,log_return              daily decimal log-return
    chain file    quote_date,expiry_date,strike,type,mid_price,underlying,
                  rate[,market_iv]

The chain's rate column is the daily decimal risk-free rate; market_iv is
the annualized decimal implied vol and is computed from the mid price at
load when the column is absent or empty.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .model import ModelParams, ParabolicForm
from .options import OptionQuote
from .pricing import TRADING_DAYS, implied_vol


@dataclass
class DatedSeries:
    """A date-indexed daily series, sorted and duplicate-free."""

    dates: list
    values: np.ndarray

    def __len__(self):
        return len(self.dates)


def _parse_date(text: str, path, line: int) -> dt.date:
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise ValidationError(f"{path}:{line}: bad date {text!r}") from exc


def _parse_float(text: str, path, line: int, column: str) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"{path}:{line}: bad {column} value {text!r}") from exc
    if not math.isfinite(value):
        raise ValidationError(f"{path}:{line}: non-finite {column}")
    return value


def _read_rows(path, expected_header):
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        required = list(expected_header)
        if header[:len(required)] != required:
            raise ValidationError(
                f"{path}:1: expected header {','.join(required)}, "
                f"got {','.join(header)}"
            )
        rows = [(i, row) for i, row in enumerate(reader, start=2) if row]
    return path, header, rows


def _load_series(path, value_column, allow_negative) -> DatedSeries:
    path, _, rows = _read_rows(path, ("date", value_column))
    seen = {}
    records = []
    for line, row in rows:
        if len(row) < 2:
            raise ValidationError(f"{path}:{line}: expected 2 columns")
        date = _parse_date(row[0], path, line)
        value = _parse_float(row[1], path, line, value_column)
        if not allow_negative and value < 0.0:
            raise ValidationError(
                f"{path}:{line}: negative {value_column} {value!r}")
        if date in seen:
            raise ValidationError(
                f"{path}:{line}: duplicate date {date} "
                f"(first seen on line {seen[date]})")
        seen[date] = line
        records.append((date, value))
    records.sort(key=lambda rec: rec[0])
    return DatedSeries(dates=[d for d, _ in records],
                       values=np.array([v for _, v in records]))


def load_rv_series(path) -> DatedSeries:
    """Load a realized-variance series; negative entries are rejected."""
    return _load_series(path, "rv", allow_negative=False)


def load_returns(path) -> DatedSeries:
    """Load a daily log-return series."""
    return _load_series(path, "log_return", allow_negative=True)


CHAIN_COLUMNS = ("quote_date", "expiry_date", "strike", "type", "mid_price",
                 "underlying", "rate")


def load_option_chain(path) -> tuple[OptionQuote, ...]:
    """Load an option chain as a tuple of quotes sorted by (quote date,
    maturity, strike); missing market_iv entries are computed from the mid
    price (annualized with the 252-day convention)."""
    path, header, rows = _read_rows(path, CHAIN_COLUMNS)
    has_iv = len(header) > 7 and header[7] == "market_iv"
    quotes = []
    for line, row in rows:
        if len(row) < 7:
            raise ValidationError(f"{path}:{line}: expected at least 7 columns")
        qdate = _parse_date(row[0], path, line)
        edate = _parse_date(row[1], path, line)
        strike = _parse_float(row[2], path, line, "strike")
        opt_type = row[3].strip().lower()
        mid = _parse_float(row[4], path, line, "mid_price")
        under = _parse_float(row[5], path, line, "underlying")
        rate = _parse_float(row[6], path, line, "rate")
        market_iv = None
        if has_iv and len(row) > 7 and row[7].strip():
            market_iv = _parse_float(row[7], path, line, "market_iv")
        try:
            quote = OptionQuote(
                quote_date=qdate, expiry_date=edate, strike=strike,
                option_type=opt_type, mid_price=mid, underlying=under,
                rate=rate, market_iv=market_iv,
            )
        except ValidationError as exc:
            raise ValidationError(f"{path}:{line}: {exc}") from None
        if quote.market_iv is None:
            try:
                iv_daily = implied_vol(mid, under, strike, rate,
                                      quote.maturity_days, opt_type)
            except ValidationError as exc:
                raise ValidationError(
                    f"{path}:{line}: cannot imply vol from mid price: {exc}"
                ) from None
            quote = replace(quote, market_iv=iv_daily * math.sqrt(TRADING_DAYS))
        quotes.append(quote)
    quotes.sort(key=lambda q: (q.quote_date, q.maturity_days, q.strike))
    return tuple(quotes)


PARAM_FIELDS = ("variant", *(f.name for f in fields(ParabolicForm)))


def save_params(path, params, extras: dict | None = None) -> None:
    """Write a parameter set (plus optional scalar extras) as key = value."""
    def fmt(value):
        return value if isinstance(value, str) else repr(float(value))

    lines = [f"{name} = {fmt(getattr(params, name))}" for name in PARAM_FIELDS]
    lines += [f"{key} = {fmt(value)}" for key, value in (extras or {}).items()]
    Path(path).write_text("\n".join(lines) + "\n")


def load_params(path):
    """Read a parameter file; returns (ModelParams, dict-of-extras)."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"params file not found: {path}")
    raw = {}   # key -> (value text, line number)
    for line_no, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{line_no}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in raw:
            raise ValidationError(
                f"{path}:{line_no}: duplicate key {key!r} "
                f"(first set on line {raw[key][1]})")
        raw[key] = (value.strip(), line_no)
    missing = [k for k in PARAM_FIELDS if k not in raw]
    if missing:
        raise ValidationError(f"{path}: missing keys {', '.join(missing)}")
    kwargs = {"variant": raw.pop("variant")[0]}
    for name in PARAM_FIELDS[1:]:
        value, line_no = raw.pop(name)
        kwargs[name] = _parse_float(value, path, line_no, name)
    extras = {}
    for key, (value, _) in raw.items():
        try:
            extras[key] = float(value)
        except ValueError:
            extras[key] = value
    return ModelParams(**kwargs), extras
