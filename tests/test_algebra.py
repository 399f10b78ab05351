import math
import random

import pytest
from hypothesis import given, strategies as st

from nncat.algebra import (
    DomainError,
    Mat,
    ShapeError,
    hadamard,
    kleisli_apply,
    outer,
    vec,
    vec_mat,
    weights_part,
)

from helpers import (
    DISPLAYED_GRAD_SECOND,
    GOLD_HIDDEN,
    RATE,
    SECOND_WEIGHTS,
    TOL8,
    ref_second_layer_signal,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestVec:
    def test_builds_tuple(self):
        assert vec([1, 2.5]) == (1.0, 2.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError, match=rf"^vector entry is not finite: {bad!r}$"):
            vec((1.0, bad))


class TestMat:
    def test_row_major_layout(self):
        m = Mat.from_rows([(1, 2, 3), (4, 5, 6)])
        assert (m.rows, m.cols) == (2, 3)
        assert m[1, 0] == 4.0
        assert m.row(0) == (1.0, 2.0, 3.0)
        assert m.to_rows() == ((1.0, 2.0, 3.0), (4.0, 5.0, 6.0))

    def test_entry_count_must_match(self):
        with pytest.raises(ShapeError):
            Mat(2, 2, (1.0, 2.0, 3.0))

    def test_entry_count_error_names_the_product(self):
        # 2x2 cannot tell rows * cols from rows + cols
        with pytest.raises(ShapeError, match=r"^2x3 matrix needs 6 entries, got 5$"):
            Mat(2, 3, (0.0,) * 5)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ShapeError):
            Mat.from_rows([(1, 2), (3,)])

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            Mat(1, 1, (float("nan"),))
        with pytest.raises(DomainError, match="not finite: -inf"):
            Mat(1, 3, (1.0, float("-inf"), float("nan")))

    def test_degenerate_shapes(self):
        empty = Mat.from_rows([])
        assert (empty.rows, empty.cols) == (0, 0)
        assert Mat(0, 3, ()).cols == 3
        assert Mat.from_rows([(), ()]).cols == 0

    def test_entries_from_a_list_are_stored_as_a_tuple(self):
        values = [0.5, 0.25]
        m = Mat(1, 2, values)
        twin = Mat(1, 2, (0.5, 0.25))
        assert m == twin and hash(m) == hash(twin)
        values[0] = float("nan")
        assert m.entries == (0.5, 0.25)

    def test_negative_dimensions_rejected(self):
        with pytest.raises(ShapeError, match=r"^negative dimensions -1x2$"):
            Mat(-1, 2, ())

    @pytest.mark.parametrize("index", [(2, 0), (0, 3), (-1, 0)])
    def test_index_out_of_range(self, index):
        m = Mat.from_rows([(1, 2, 3), (4, 5, 6)])
        with pytest.raises(ShapeError, match=r"outside 2x3$"):
            m[index]

    @pytest.mark.parametrize("j", [2, 3, -1, -2])
    def test_row_out_of_range(self, j):
        # a slice would give () for 2 and -1, and row 0 for -2
        m = Mat.from_rows([(1, 2), (3, 4)])
        with pytest.raises(ShapeError, match=rf"^row {j} outside 2x2$"):
            m.row(j)

    def test_no_row_of_a_matrix_without_rows(self):
        with pytest.raises(ShapeError, match=r"^row 0 outside 0x3$"):
            Mat(0, 3, ()).row(0)


class TestKleisliApply:
    def test_worked_example_first_layer(self):
        t = Mat.from_rows([(0.15, 0.2, 0.35), (0.25, 0.3, 0.35)])
        z = kleisli_apply(t, (0.05, 0.1))
        assert z == pytest.approx((0.3775, 0.3925), abs=1e-15)

    def test_zero_matrix(self):
        assert kleisli_apply(Mat(2, 3, (0.0,) * 6), (7.0, -3.0)) == (0.0, 0.0)

    def test_identity_weights_plus_bias(self):
        t = Mat.from_rows([(1, 0, 5), (0, 1, 5)])
        assert kleisli_apply(t, (2.0, 3.0)) == (7.0, 8.0)

    def test_shape_error_names_both_dimensions(self):
        with pytest.raises(
            ShapeError, match=r"^matrix is 2x3 but input of length 3 needs 4 columns$"
        ):
            kleisli_apply(Mat(2, 3, (0.0,) * 6), (1.0, 2.0, 3.0))

    def test_matches_direct_summation(self):
        # same arithmetic order as the implementation contract:
        # ascending columns, bias last
        rng = random.Random(1001)
        for _ in range(50):
            rows, cols = rng.randint(0, 4), rng.randint(1, 5)
            t = Mat(rows, cols, tuple(rng.uniform(-9, 9) for _ in range(rows * cols)))
            x = tuple(rng.uniform(-9, 9) for _ in range(cols - 1))
            got = kleisli_apply(t, x)
            for j in range(rows):
                acc = 0.0
                for i in range(cols - 1):
                    acc += t[j, i] * x[i]
                acc += t[j, cols - 1]
                assert got[j] == acc

    def test_bias_only_matrix(self):
        t = Mat.from_rows([(1.5,), (-2.0,)])
        assert kleisli_apply(t, ()) == (1.5, -2.0)


class TestHadamard:
    def test_definition(self):
        assert hadamard((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)) == (4.0, 10.0, 18.0)

    def test_ones_identity(self):
        u = (0.25, -3.5, 7.0)
        assert hadamard(u, (1.0, 1.0, 1.0)) == u

    def test_mask_row(self):
        assert hadamard((1.0, 0.0), (0.3, 0.7)) == (0.3, 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            hadamard((1.0, 2.0), (1.0, 2.0, 3.0))

    @given(st.lists(finite_floats, max_size=6), st.data())
    def test_commutative_exactly(self, us, data):
        vs = data.draw(st.lists(finite_floats, min_size=len(us), max_size=len(us)))
        u, v = tuple(us), tuple(vs)
        assert hadamard(u, v) == hadamard(v, u)

    def test_associative_on_small_integer_entries(self):
        # exact float arithmetic: products of small integers never round
        rng = random.Random(2002)
        for _ in range(100):
            n = rng.randint(0, 5)
            u, v, w = (
                tuple(float(rng.randint(-8, 8)) for _ in range(n)) for _ in range(3)
            )
            assert hadamard(hadamard(u, v), w) == hadamard(u, hadamard(v, w))


class TestOuter:
    def test_definition(self):
        got = outer((2.0, 3.0), (1.0, 0.0, 1.0))
        assert got.to_rows() == ((2.0, 0.0, 2.0), (3.0, 0.0, 3.0))

    def test_zero_vector(self):
        assert outer((0.0, 0.0), (1.0, 2.0)).entries == (0.0,) * 4

    def test_worked_example_signal_gives_half_displayed_gradient(self):
        # independent recomputation of the example's error signal (rate
        # folded in); its outer product with the hidden state must be
        # exactly half the matrices published with the rate left out
        s = ref_second_layer_signal()
        got = outer(s, GOLD_HIDDEN + (1.0,))
        for j in range(2):
            for i in range(3):
                assert got[j, i] == pytest.approx(
                    RATE * DISPLAYED_GRAD_SECOND[j][i], abs=TOL8
                )


class TestWeightsPart:
    def test_worked_example_matrix(self):
        t = Mat.from_rows([(0.4, 0.45, 0.6), (0.5, 0.55, 0.6)])
        assert weights_part(t).to_rows() == SECOND_WEIGHTS

    def test_bias_only_layer(self):
        m = weights_part(Mat.from_rows([(1.0,), (2.0,)]))
        assert (m.rows, m.cols) == (2, 0)

    def test_identity_with_bias(self):
        t = Mat.from_rows([(1, 0, 9), (0, 1, 9)])
        assert weights_part(t).to_rows() == ((1.0, 0.0), (0.0, 1.0))

    def test_zero_columns_rejected(self):
        with pytest.raises(ShapeError):
            weights_part(Mat(2, 0, ()))

    def test_slicing_compatible_with_outer(self):
        rng = random.Random(3003)
        for _ in range(50):
            k, n = rng.randint(1, 5), rng.randint(0, 5)
            s = tuple(rng.uniform(-4, 4) for _ in range(k))
            a = tuple(rng.uniform(-4, 4) for _ in range(n))
            sliced = weights_part(outer(s, a + (1.0,)))
            for j in range(k):
                for i in range(n):
                    assert sliced[j, i] == s[j] * a[i]


class TestVecMat:
    def test_row_selection(self):
        a = Mat.from_rows([(1.5, 2.5), (3.5, 4.5)])
        assert vec_mat((1.0, 0.0), a) == (1.5, 2.5)

    def test_worked_example_backward_product(self):
        # frozen from the finite-difference derivative of the pulled-back
        # loss at the hidden state (see test_backward for the fd route)
        s = ref_second_layer_signal()
        got = vec_mat(s, Mat.from_rows(SECOND_WEIGHTS))
        assert got == pytest.approx((0.01817515, 0.02068516), abs=TOL8)

    def test_zero_vector(self):
        assert vec_mat((0.0, 0.0), Mat.from_rows([(1, 2), (3, 4)])) == (0.0, 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            vec_mat((1.0,), Mat(2, 2, (0.0,) * 4))

    def test_matches_direct_summation(self):
        rng = random.Random(4004)
        for _ in range(50):
            rows, cols = rng.randint(0, 4), rng.randint(0, 4)
            a = Mat(rows, cols, tuple(rng.uniform(-9, 9) for _ in range(rows * cols)))
            s = tuple(rng.uniform(-9, 9) for _ in range(rows))
            got = vec_mat(s, a)
            for i in range(cols):
                acc = 0.0
                for j in range(rows):
                    acc += s[j] * a[j, i]
                assert got[i] == acc
