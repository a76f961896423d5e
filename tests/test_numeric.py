"""Tests for the exact numeric tower (repro.numeric)."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.numeric import ceil_div, ceil_frac, frac_sum, to_fraction

fractions_st = st.builds(
    Fraction,
    st.integers(min_value=-100, max_value=100),
    st.integers(min_value=1, max_value=50),
)


class TestToFraction:
    def test_int_passthrough(self):
        assert to_fraction(3) == Fraction(3)

    def test_fraction_passthrough(self):
        f = Fraction(7, 3)
        assert to_fraction(f) is f

    def test_float_exact(self):
        # 0.5 is exactly representable
        assert to_fraction(0.5) == Fraction(1, 2)

    def test_float_binary_exactness(self):
        # 0.1 converts to its exact binary value, not 1/10
        assert to_fraction(0.1) == Fraction(0.1)
        assert to_fraction(0.1) != Fraction(1, 10)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            to_fraction(float("nan"))

    def test_inf_rejected(self):
        with pytest.raises(ValueError):
            to_fraction(float("inf"))

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            to_fraction(True)

    def test_string_rejected(self):
        with pytest.raises(TypeError):
            to_fraction("0.5")


class TestCeilFloor:
    def test_ceil_div_exact(self):
        assert ceil_div(Fraction(4), Fraction(2)) == 2

    def test_ceil_div_rounds_up(self):
        assert ceil_div(Fraction(5), Fraction(2)) == 3

    def test_ceil_div_fractional_unit(self):
        assert ceil_div(Fraction(1), Fraction(1, 3)) == 3
        assert ceil_div(Fraction(11, 10), Fraction(1, 3)) == 4

    def test_ceil_frac(self):
        assert ceil_frac(Fraction(7, 3)) == 3
        assert ceil_frac(Fraction(-7, 3)) == -2
        assert ceil_frac(Fraction(4)) == 4

    @given(x=fractions_st)
    def test_ceil_floor_consistency(self, x):
        assert ceil_frac(x) == math.ceil(x)

    def test_ceil_div_zero_unit_rejected(self):
        with pytest.raises(ValueError):
            ceil_div(Fraction(1), Fraction(0))


class TestMisc:
    def test_frac_sum_empty(self):
        assert frac_sum([]) == Fraction(0)

    def test_frac_sum_exact(self):
        xs = [Fraction(1, 3)] * 3
        assert frac_sum(xs) == 1

    @given(
        st.lists(
            st.one_of(
                fractions_st,
                st.integers(min_value=-10**6, max_value=10**6),
                # large, mostly coprime denominators: the LCM grows big
                st.builds(
                    Fraction,
                    st.integers(min_value=-10**12, max_value=10**12),
                    st.sampled_from(
                        [999_983, 1_000_003, 2**61 - 1, 10**12 + 39,
                         3**30, 2**40]
                    ),
                ),
            ),
            max_size=40,
        )
    )
    def test_frac_sum_matches_fraction_sum(self, xs):
        got = frac_sum(iter(xs))
        assert got == sum(xs, Fraction(0))
        assert type(got) is Fraction
