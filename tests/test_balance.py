from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from surfcut.balance import (
    BalanceError,
    BalanceFunction,
    density,
    make_balance,
    parse_custom,
    quotient,
)

rationals01 = st.fractions(min_value=0, max_value=1, max_denominator=64)

CUSTOM = parse_custom("0 0\n1/4 1/3\n1/2 1/2\n")
# keyed by the spec string: 'expansion' builds the quotient function
ALL_FUNCS = {
    "quotient": quotient(),
    "density": density(),
    "expansion": make_balance("expansion"),
    "custom": CUSTOM,
}


def test_builtin_values():
    f = quotient()
    assert f(Fraction(1, 3)) == Fraction(1, 3)
    assert f(Fraction(3, 4)) == Fraction(1, 4)
    assert f(Fraction(1, 2)) == Fraction(1, 2)
    d = density()
    assert d(Fraction(1, 4)) == Fraction(3, 16)
    assert d(Fraction(1, 2)) == Fraction(1, 4)
    assert make_balance("expansion")(Fraction(2, 5)) == Fraction(2, 5)


def test_custom_interpolation():
    assert CUSTOM(Fraction(0)) == 0
    assert CUSTOM(Fraction(1, 4)) == Fraction(1, 3)
    assert CUSTOM(Fraction(1, 8)) == Fraction(1, 6)
    assert CUSTOM(Fraction(3, 8)) == Fraction(5, 12)
    assert CUSTOM(Fraction(7, 8)) == CUSTOM(Fraction(1, 8))


def test_custom_constant_extension():
    f = parse_custom("0 1/8\n1/4 1/4\n")
    assert f(Fraction(1, 4)) == Fraction(1, 4)
    assert f(Fraction(3, 8)) == Fraction(1, 4)
    assert f(Fraction(1, 2)) == Fraction(1, 4)
    assert f(Fraction(0)) == Fraction(1, 8)


@pytest.mark.parametrize("f", list(ALL_FUNCS.values()), ids=list(ALL_FUNCS))
@settings(max_examples=100, deadline=None)
@given(x=rationals01)
def test_symmetry(f, x):
    assert f(x) == f(1 - x)


@pytest.mark.parametrize("f", list(ALL_FUNCS.values()), ids=list(ALL_FUNCS))
@settings(max_examples=100, deadline=None)
@given(x=rationals01, y=rationals01)
def test_midpoint_concavity(f, x, y):
    assert f((x + y) / 2) >= (f(x) + f(y)) / 2


@pytest.mark.parametrize("f", list(ALL_FUNCS.values()), ids=list(ALL_FUNCS))
@settings(max_examples=100, deadline=None)
@given(
    x=st.fractions(min_value=-1, max_value=1, max_denominator=64),
    y=st.fractions(min_value=-1, max_value=1, max_denominator=64),
)
def test_subadditive_on_magnitudes(f, x, y):
    if abs(x + y) > 1:
        return
    assert f(abs(x + y)) <= f(abs(x)) + f(abs(y))


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        quotient()(Fraction(3, 2))
    with pytest.raises(ValueError):
        density()(Fraction(-1, 4))


def test_validation_errors():
    with pytest.raises(BalanceError, match="strictly increase"):
        parse_custom("0 0\n1/4 1/4\n1/4 1/3\n")
    with pytest.raises(BalanceError, match="x = 0"):
        parse_custom("1/8 0\n1/4 1/4\n")
    with pytest.raises(BalanceError, match="negative"):
        parse_custom("0 -1/4\n")
    with pytest.raises(BalanceError, match="nondecreasing"):
        parse_custom("0 1/2\n1/2 0\n")
    with pytest.raises(BalanceError, match="concave"):
        parse_custom("0 0\n1/4 1/8\n1/2 1/2\n")
    with pytest.raises(BalanceError, match="outside"):
        parse_custom("0 0\n3/4 1/2\n")
    with pytest.raises(BalanceError, match="breakpoint line"):
        parse_custom("0 0 extra\n")
    with pytest.raises(BalanceError, match="rational"):
        parse_custom("0 zero\n")
    with pytest.raises(BalanceError, match="bad rational in line '1/2 1e3': .*no exponent"):
        parse_custom("0 0\n1/2 1e3\n")
    with pytest.raises(BalanceError, match="no exponent"):
        parse_custom("0 0\n1E-1 1/2\n")
    with pytest.raises(BalanceError, match="at least one"):
        parse_custom("# only comments\n")
    with pytest.raises(BalanceError, match="takes no breakpoints"):
        BalanceFunction(kind="quotient", breakpoints=((Fraction(0), Fraction(0)),))
    with pytest.raises(BalanceError, match="unknown balance kind"):
        BalanceFunction(kind="entropy")


def test_all_zero_profile_rejected():
    # concave and nondecreasing from f(0) = 0: a zero in (0, 1/2] is a zero everywhere
    for text in ("0 0\n", "0 0\n1/4 0\n1/2 0\n"):
        with pytest.raises(BalanceError, match="identically zero"):
            parse_custom(text)
    assert parse_custom("0 0\n1/2 1/100\n")(Fraction(1, 100)) > 0


def test_make_balance(tmp_path):
    assert make_balance("quotient").kind == "quotient"
    assert make_balance("density").kind == "density"
    assert make_balance("expansion") == quotient()
    p = tmp_path / "f.txt"
    p.write_text("0 0\n1/2 1/2\n", encoding="utf-8")
    f = make_balance(f"custom:{p}")
    assert f.kind == "custom" and f(Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(BalanceError, match="unknown balance spec"):
        make_balance("ratio")
