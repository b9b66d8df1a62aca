"""Exception types shared across the package."""


class FlameError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(FlameError):
    """A column mapping is invalid or refers to a missing column."""


class DataError(FlameError):
    """Input data failed to parse or validate (carries a row number when known)."""


class DegenerateHoldoutError(FlameError):
    """The holdout set lacks treated or control units, so no model can be fit."""


class NoEstimateError(FlameError):
    """No matched groups exist, so no effect estimate can be produced."""
