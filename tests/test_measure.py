import math
import random
import re
from fractions import Fraction

import pytest

from dimlab import (
    cylinder,
    expand,
    f_xi_cylinder,
    f_xi_point,
    locate,
    mu_cylinder,
)
from dimlab.errors import DigitOutOfRange, ShapeMismatch, ToleranceNotReached
from dimlab.qtilde import PMatrix

import matrices

QB = matrices.uniform_binary()
P13 = PMatrix([], [["1/3", "2/3"]])


class TestMuCylinder:
    def test_product(self):
        assert mu_cylinder(P13, (1, 1)) == Fraction(4, 9)

    def test_empty_word(self):
        assert mu_cylinder(P13, ()) == 1
        assert mu_cylinder(QB, ()) == 1

    def test_prefix_column(self):
        p = PMatrix([["368/1000", "632/1000"]], [["1/2", "1/2"]])
        assert mu_cylinder(p, (0, 1)) == Fraction(23, 125)

    def test_additivity_over_children(self):
        rng = random.Random(3)
        p = matrices.sparse_spike_p(50)
        for _ in range(100):
            w = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 10)))
            total = sum(mu_cylinder(p, w + (a,)) for a in range(2))
            assert total == mu_cylinder(p, w)


class TestImageCylinder:
    def test_identity_when_same_matrix(self):
        w = (0, 1, 1, 0)
        assert f_xi_cylinder(QB, QB, w) == cylinder(QB, w)

    def test_rank_one(self):
        img = f_xi_cylinder(QB, P13, (1,))
        assert (img.left, img.right) == (Fraction(1, 3), Fraction(1))

    def test_rank_two(self):
        img = f_xi_cylinder(QB, P13, (1, 0))
        assert (img.left, img.right) == (Fraction(1, 3), Fraction(5, 9))

    def test_length_equals_measure(self):
        rng = random.Random(5)
        for _ in range(1000):
            w = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 15)))
            assert f_xi_cylinder(QB, P13, w).length == mu_cylinder(P13, w)

    def test_digit_count_mismatch(self):
        p3 = PMatrix([["1/2", "1/2"]], [["1/3", "1/3", "1/3"]])
        assert f_xi_cylinder(QB, p3, (1,)).length == Fraction(1, 2)
        with pytest.raises(ShapeMismatch, match="column 2"):
            f_xi_cylinder(QB, p3, (1, 0))


class TestPointEvaluation:
    def test_identity_contains_point(self):
        lo, hi = f_xi_point(QB, QB, Fraction(1, 2), Fraction(1, 100))
        assert lo <= Fraction(1, 2) <= hi
        assert hi - lo <= Fraction(1, 100)

    def test_rank_one_image(self):
        # tol = 1 still descends one rank
        assert f_xi_point(QB, P13, Fraction(1, 2), 1) == (Fraction(1, 3), Fraction(1))

    def test_zero_probability_digit_collapses(self):
        p0 = PMatrix([], [["0", "1"]])
        lo, hi = f_xi_point(QB, p0, Fraction(1, 4), Fraction(1, 10))
        assert lo == hi == 0

    def test_digit_count_mismatch(self):
        # refused at the first column read, as f_xi_cylinder refuses the
        # word, and not bracketed under p's wider columns
        p3 = PMatrix([], [["1/3", "1/3", "1/3"]])
        with pytest.raises(ShapeMismatch, match=r"^column 1: digit counts "
                                                r"differ \(2 vs 3\)$"):
            f_xi_point(QB, p3, Fraction(1, 3), Fraction(1, 100))
        # a mismatch inside Q's first block, behind three equal columns; a
        # bracket found before it is read is still returned
        p = PMatrix([["1/2", "1/2"]] * 3, [["1/3", "1/3", "1/3"]])
        with pytest.raises(ShapeMismatch, match="^column 4: "):
            f_xi_point(QB, p, Fraction(1, 3), Fraction(1, 100))
        assert f_xi_point(QB, p, Fraction(1, 3), Fraction(1, 8)) == (
            Fraction(1, 4), Fraction(3, 8))

    @pytest.mark.parametrize("max_rank", [-1, -200])
    def test_negative_max_rank_refused(self, max_rank):
        with pytest.raises(ValueError,
                           match=f"^max_rank must be >= 0, got {max_rank}$"):
            f_xi_point(QB, P13, Fraction(1, 3), Fraction(1, 100), max_rank)

    @pytest.mark.parametrize("tol", [Fraction(1, 100), Fraction(1, 10 ** 9)])
    def test_max_rank_is_the_deepest_rank_walked(self, tol):
        # the bracket needs exactly `rank` columns (past QB's 8-column
        # block at 1e-9): max_rank = rank finds it, one less does not
        x = Fraction(1, 3)
        rank = 1
        while cylinder(P13, expand(QB, x, rank)).length > tol:
            rank += 1
        img = cylinder(P13, expand(QB, x, rank))
        assert f_xi_point(QB, P13, x, tol, rank) == (img.left, img.right)
        for short in (rank - 1, 0):
            with pytest.raises(ToleranceNotReached,
                               match=f"after rank {short}$"):
                f_xi_point(QB, P13, x, tol, short)

    def test_tolerance_not_reached(self):
        # a unit-probability digit never shrinks the image
        p1 = PMatrix([], [["1", "0"]])
        with pytest.raises(ToleranceNotReached):
            f_xi_point(QB, p1, 0, Fraction(1, 10), max_rank=16)

    @pytest.mark.parametrize("q, p, x, max_rank, width", [
        (QB, PMatrix([], [["1", "0"]]), 0, 200, "1"),
        (QB, PMatrix([], [["1", "0"]]), 0, 0, "1"),
        # 3 parts in 6 after the first digit: the width is stated reduced
        (matrices.uniform_ternary(),
         PMatrix([["1/6", "1/3", "1/2"]], [["1", "0", "0"]]),
         Fraction(2, 3), 200, "1/2"),
        # (1 - 10^-30)^200 has 6000-digit terms: the width is stated by
        # its size
        (QB, PMatrix([], [[f"{10 ** 30 - 1}/{10 ** 30}", f"1/{10 ** 30}"]]),
         0, 200, "1.000e+0"),
    ])
    def test_tolerance_message(self, q, p, x, max_rank, width):
        with pytest.raises(ToleranceNotReached) as info:
            f_xi_point(q, p, x, Fraction(1, 1000), max_rank=max_rank)
        assert str(info.value) == (
            f"image interval still {width} wide after rank {max_rank}")

    def test_monotone(self):
        rng = random.Random(17)
        den = 999983
        tol = Fraction(1, 10 ** 4)
        for _ in range(300):
            a, b = sorted(rng.sample(range(1, den), 2))
            fx = f_xi_point(QB, P13, Fraction(a, den), tol)
            fy = f_xi_point(QB, P13, Fraction(b, den), tol)
            assert fx[1] <= fy[0] + 2 * tol

    def test_endpoint_agreement(self):
        # evaluating at a cylinder's left endpoint converges into the image's
        # left endpoint
        w = (1, 0, 1)
        src = cylinder(QB, w)
        img = f_xi_cylinder(QB, P13, w)
        lo, hi = f_xi_point(QB, P13, src.left, Fraction(1, 10 ** 6))
        assert img.left <= lo <= hi <= img.left + Fraction(1, 10 ** 6)


    @pytest.mark.parametrize("p", [
        P13,
        PMatrix([["1/3", "2/3"]], [["0", "1"], ["1/5", "4/5"]]),
    ])
    def test_bracket_is_image_cylinder_at_stopping_rank(self, p):
        # the bracket is the p-cylinder of x's q-digits at the first rank
        # whose image is no longer than tol (zero-length images included)
        q = matrices.mixed_prefix_period()
        rng = random.Random(23)
        tol = Fraction(1, 1000)
        for _ in range(100):
            x = Fraction(rng.randrange(999983), 999983)
            rank = 1
            while cylinder(p, expand(q, x, rank)).length > tol:
                rank += 1
            img = cylinder(p, expand(q, x, rank))
            assert f_xi_point(q, p, x, tol) == (img.left, img.right)



class TestRefusals:
    """Arguments a walk or a word cannot read are refused, naming the
    argument or the column, and not read as something else."""

    @pytest.mark.parametrize("digit", [True, False, 0.0, 1.0, Fraction(1),
                                       "0", None])
    @pytest.mark.parametrize("word, column", [
        ((), 1),
        # the second 8-column block of QB and P13, behind a whole one
        ((0, 1) * 6, 13),
    ])
    def test_non_int_digit_names_its_column(self, digit, word, column):
        # True and 1.0 equal 1 and hash as 1: no block row may take them
        word = (*word, digit, *(1,) * 8)
        text = (f"^digit {re.escape(repr(digit))} out of range for column "
                f"{column} \\(n=2\\)$")
        for call in (lambda: cylinder(QB, word), lambda: mu_cylinder(P13, word),
                     lambda: f_xi_cylinder(QB, P13, word)):
            with pytest.raises(DigitOutOfRange, match=text):
                call()

    @pytest.mark.parametrize("value", [2.5, True, "3", None])
    def test_rank_must_be_an_int(self, value):
        text = f" must be an int, not {re.escape(repr(value))}$"
        tol = Fraction(1, 100)
        for call, name in ((lambda: expand(QB, Fraction(1, 3), value), "rank"),
                           (lambda: locate(QB, Fraction(1, 3), value), "rank"),
                           (lambda: f_xi_point(QB, P13, Fraction(1, 3), tol,
                                               value), "max_rank")):
            with pytest.raises(ValueError, match=f"^{name}{text}"):
                call()

    @pytest.mark.parametrize("value", ["1/0", math.inf, -math.inf, math.nan,
                                       True, "abc", None])
    def test_tol_and_x_must_be_exact_rationals(self, value):
        text = f" is not an exact rational: {re.escape(repr(value))}$"
        tol = Fraction(1, 100)
        for call, name in ((lambda: f_xi_point(QB, P13, value, tol), "x"),
                           (lambda: f_xi_point(QB, P13, 0, value), "tol"),
                           (lambda: expand(QB, value, 3), "x"),
                           (lambda: locate(QB, value, 3), "x")):
            with pytest.raises(ValueError, match=f"^{name}{text}"):
                call()
