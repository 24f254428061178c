"""Exception types shared across the package."""


class DegenerateRateError(ValueError):
    """Inverse-gamma rate collapsed to (numerically) zero.

    Signals an all-zero coefficient block; callers are expected to
    initialize chains so this never fires in normal operation.
    """


class FactorizationError(RuntimeError):
    """Cholesky factorization failed even after the jitter retry, or gave
    a non-finite factor; or a block's spectral scales were not finite and
    positive, or its eigendecomposition failed."""


class SizeGuardError(ValueError):
    """Instance too large for a dense-oracle code path."""
