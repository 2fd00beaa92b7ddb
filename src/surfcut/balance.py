"""Balance functions weighting cut sides, evaluated in exact integers.

A balance function maps the fraction x = |S|/n to a nonnegative rational;
cuts are scored |cut| / f(x).  Built-ins: quotient f(x) = min(x, 1-x) and
density f(x) = x(1-x).  Custom functions are piecewise linear on [0, 1/2],
nondecreasing and concave there, extended symmetrically by f(x) = f(1-x).
Edge expansion h = |cut| / min(|S|, n-|S|) is the quotient value divided by
n, so it needs no function of its own: the spec 'expansion' builds quotient.
f.ratio(a, n) is f(a/n) as an integer pair in lowest terms, the only way f
is evaluated: the solver reads these pairs with no Fraction per side size,
and f(x) is the pair at x's numerator and denominator as a Fraction.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

HALF = Fraction(1, 2)


class BalanceError(ValueError):
    """Invalid balance function specification."""


@dataclass(frozen=True)
class BalanceFunction:
    """A symmetric concave balance profile on [0, 1].

    kind is one of quotient, density, custom.  breakpoints are
    only set for custom kind: (x, y) pairs with x strictly increasing from 0,
    all x in [0, 1/2], not all y zero.  Past the last breakpoint the value
    stays constant up to 1/2, and f(x) = f(1 - x) folds the rest of the unit
    interval.  So f > 0 on (0, 1).
    """

    kind: str
    breakpoints: tuple[tuple[Fraction, Fraction], ...] | None = None

    def __post_init__(self):
        if self.kind in ("quotient", "density"):
            if self.breakpoints is not None:
                raise BalanceError(f"{self.kind} takes no breakpoints")
            return
        if self.kind != "custom":
            raise BalanceError(f"unknown balance kind {self.kind!r}")
        bps = self.breakpoints
        if not bps:
            raise BalanceError("custom balance needs at least one breakpoint")
        if bps[0][0] != 0:
            raise BalanceError("first breakpoint must be at x = 0")
        for x, y in bps:
            if not (0 <= x <= HALF):
                raise BalanceError(f"breakpoint x = {x} outside [0, 1/2]")
            if y < 0:
                raise BalanceError(f"breakpoint value {y} is negative")
        prev_slope = None
        for (x0, y0), (x1, y1) in zip(bps, bps[1:]):
            if x1 <= x0:
                raise BalanceError("breakpoint x values must strictly increase")
            slope = (y1 - y0) / (x1 - x0)
            if slope < 0:
                raise BalanceError("custom balance must be nondecreasing on [0, 1/2]")
            if prev_slope is not None and slope > prev_slope:
                raise BalanceError("custom balance must be concave on [0, 1/2]")
            prev_slope = slope
        # nondecreasing and concave: f > 0 on (0, 1) unless every y is 0
        if not any(y for _, y in bps):
            raise BalanceError("custom balance must not be identically zero")

    def __call__(self, x: Fraction) -> Fraction:
        if not (0 <= x <= 1):
            raise ValueError(f"balance argument {x} outside [0, 1]")
        return Fraction(*self.ratio(x.numerator, x.denominator))

    def ratio(self, a: int, n: int) -> tuple[int, int]:
        """f(a/n) for 0 <= a <= n as (numerator, denominator) in lowest terms."""
        a = min(a, n - a)
        if self.kind == "quotient":
            num, den = a, n
        elif self.kind == "density":
            num, den = a * (n - a), n * n
        else:
            x = Fraction(a, n)
            bps = self.breakpoints
            i = bisect_right([b[0] for b in bps], x) - 1
            if i == len(bps) - 1:
                return bps[-1][1].as_integer_ratio()
            x0, y0 = bps[i]
            x1, y1 = bps[i + 1]
            return (y0 + (y1 - y0) * (x - x0) / (x1 - x0)).as_integer_ratio()
        common = gcd(num, den)
        return num // common, den // common


def quotient() -> BalanceFunction:
    return BalanceFunction(kind="quotient")


def density() -> BalanceFunction:
    return BalanceFunction(kind="density")


def parse_custom(text: str) -> BalanceFunction:
    """Parse breakpoint lines 'x y' into a custom function.

    Each of x and y is p/q, an integer or a decimal; exponents are refused.
    """
    bps = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BalanceError(f"bad breakpoint line {raw!r}")
        # Fraction("1e999999999") would build a billion-digit integer
        if "e" in line.lower():
            raise BalanceError(
                f"bad rational in line {raw!r}: write p/q, an integer or a decimal, no exponent"
            )
        try:
            x, y = Fraction(parts[0]), Fraction(parts[1])
        except (ValueError, ZeroDivisionError):
            raise BalanceError(f"bad rational in line {raw!r}") from None
        bps.append((x, y))
    return BalanceFunction(kind="custom", breakpoints=tuple(bps))


def make_balance(spec: str) -> BalanceFunction:
    """Build a balance function from a CLI-style spec string.

    One of 'quotient', 'density', 'expansion', or 'custom:<path>' naming a
    breakpoint file.  'expansion' builds quotient: edge expansion is the
    quotient value divided by n, and only the report differs.
    """
    if spec in ("quotient", "expansion"):
        return quotient()
    if spec == "density":
        return density()
    if spec.startswith("custom:"):
        path = spec.split(":", 1)[1]
        with open(path, encoding="utf-8") as fh:
            return parse_custom(fh.read())
    raise BalanceError(f"unknown balance spec {spec!r}")
