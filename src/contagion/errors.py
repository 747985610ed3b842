"""Exception types shared across the package."""


class ContagionError(Exception):
    """Base class for all package errors."""


# --- network construction ---

class DimensionMismatch(ContagionError):
    pass


class IdentityViolation(ContagionError):
    def __init__(self, bank, residual):
        self.bank = bank
        self.residual = residual
        super().__init__(f"balance sheet identity violated for bank {bank} (residual {residual:.3g})")


class NonPositiveEquity(ContagionError):
    def __init__(self, bank):
        self.bank = bank
        super().__init__(f"bank {bank} has non-positive equity and cannot enter a simulation")


class NegativeBalance(ContagionError):
    def __init__(self, bank, field):
        self.bank, self.field = bank, field
        super().__init__(f"bank {bank}: {field} has a negative or non-finite entry")


class NegativeEntry(ContagionError):
    def __init__(self, i, j):
        self.i = i
        self.j = j
        super().__init__(f"liability matrix entry ({i},{j}) is invalid (negative, not finite or self-exposure)")


# --- model runs ---

class NonConvergence(ContagionError):
    """Clearing iteration failed to reach a fixed point; indicates an internal fault."""


class ProvedOrderingViolated(ContagionError):
    def __init__(self, pair, bank, t):
        self.pair = pair
        self.bank = bank
        self.t = t
        super().__init__(f"proved ordering {pair} violated at bank {bank}, t={t}; implementation bug")


# --- reconstruction ---

class AllZeroTotals(ContagionError):
    pass


class UnreachableDensity(ContagionError):
    pass


class InfeasibleSupport(ContagionError):
    def __init__(self, bank, side, need, most):
        self.bank = bank
        self.side = side
        super().__init__(f"bank {bank} needs a {side} share of at least {need:.6g}, but its "
                         f"sampled partners can take at most {most:.6g}")


class IPFNonConvergence(ContagionError):
    def __init__(self, sweeps, residual):
        self.sweeps = sweeps
        self.residual = residual
        super().__init__(f"IPF did not converge in {sweeps} sweeps (residual {residual:.3g})")


class EnsembleInfeasible(ContagionError):
    pass


# --- ingestion ---

class SchemaMismatch(ContagionError):
    def __init__(self, column):
        self.column = column
        super().__init__(f"CSV schema mismatch: {column}")


class ParseError(ContagionError):
    def __init__(self, row, message):
        self.row = row
        super().__init__(f"row {row}: {message}")


class GapTooLong(ContagionError):
    def __init__(self, bank, field):
        self.bank = bank
        self.field = field
        super().__init__(f"bank {bank}, field {field}: more than 3 consecutive missing quarters")


class InsufficientAnchors(ContagionError):
    def __init__(self, bank, field):
        self.bank = bank
        self.field = field
        super().__init__(f"bank {bank}, field {field}: no observed values to interpolate from")


class NonFiniteField(ContagionError):
    def __init__(self, bank, field):
        self.bank, self.field = bank, field
        super().__init__(f"bank {bank}: field {field} is not a finite number")


class NegativeDerived(ContagionError):
    def __init__(self, bank, field):
        self.bank = bank
        self.field = field
        what = "is not positive, or too small for its assets" if field == "equity" else "is negative"
        super().__init__(f"bank {bank}: derived quantity {field} {what}")


class UnknownQuarter(ContagionError):
    """The panel holds no records for the requested quarter."""
