"""Exact bookkeeping for coefficients of the form  c * prod Gamma(a_i)**p_i.

Fractional power-rule coefficients are ratios of gamma values, and identities
like the derivative semigroup, the delta identity, mixed-partial commutation
and d∘d = 0 all hinge on *telescoping products* of such ratios. Folding each
ratio to a float immediately would leave ~1 ulp residue per step; instead the
gamma arguments are kept symbolically (as float keys) with signed integer
powers, and a numerator meeting a denominator of the same argument cancels
*structurally*. A fold to float happens only at the very end, through
:func:`~fracosc.specfun.gamma_product`, so a fully-telescoped product is
bitwise exact.

The invariant that makes bitwise cancellation actually fire: every gamma
argument is formed as ``1.0 + exponent`` from the *stored* exponent float, so
the argument produced when a term is differentiated again is the same float
object value that went into the previous step's denominator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .specfun import gamma_product

__all__ = ["GammaProduct"]

Ledger = tuple[tuple[float, int], ...]


def _merge(ledger: Ledger, entries) -> Ledger:
    """``ledger`` with the (argument, power) ``entries`` added: powers of equal
    arguments sum, zero powers drop out, and 1.0 and 2.0 (where Gamma is
    exactly 1) are never stored."""
    powers = dict(ledger)
    for a, p in entries:
        if a in (1.0, 2.0):
            continue
        q = powers.get(a, 0) + p
        if q:
            powers[a] = q
        else:
            del powers[a]
    return tuple(sorted(powers.items()))


@dataclass(frozen=True)
class GammaProduct:
    """Immutable scalar  factor * prod(Gamma(a)**p for a, p in ledger).

    ``ledger`` is one signed multiset of gamma arguments: (argument, nonzero
    integer power) pairs sorted by argument, so structurally equal products
    compare equal. Matching arguments cancel eagerly on every multiplication.
    """

    factor: float = 1.0
    ledger: Ledger = ()

    @staticmethod
    def of(factor: float) -> "GammaProduct":
        return GammaProduct(float(factor))

    def times_ratio(self, top: float, bottom: float) -> "GammaProduct":
        """Multiply by Gamma(top)/Gamma(bottom)."""
        return GammaProduct(self.factor, _merge(self.ledger, ((top, 1), (bottom, -1))))

    def times(self, other: "GammaProduct") -> "GammaProduct":
        factor = self.factor * other.factor
        if not other.ledger:
            return GammaProduct(factor, self.ledger)
        return GammaProduct(factor, _merge(self.ledger, other.ledger))

    def scaled(self, c: float) -> "GammaProduct":
        return GammaProduct(self.factor * c, self.ledger)

    def inverse(self) -> "GammaProduct":
        """1 / self: the reciprocal factor and every power negated."""
        return GammaProduct(1.0 / self.factor, tuple((a, -p) for a, p in self.ledger))

    @property
    def is_zero(self) -> bool:
        return self.factor == 0.0

    def value(self) -> float:
        """Fold to a float (deterministic: the ledger is sorted)."""
        return gamma_product(self.factor, self.ledger)
