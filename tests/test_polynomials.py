"""Exact rationals and polynomials, and the DF coefficient.

The interpolation, blind-fit and df_coefficient tests check the
reference that tests/test_flags.py compares the DF reports against.
"""

import random
from fractions import Fraction

import pytest

from kstab import (
    GridTooShortError,
    InputError,
    MultiPoly,
    SizeError,
    UniPoly,
    det_symbolic,
    rat,
    rat_str,
)
from kstab import (
    CentralArrangement,
    MonomialIdeal,
    braid_arrangement,
    diagonal_discrepancy,
    gamma_at_k,
    gamma_report,
    lct_braid,
    summation_check,
    vandermonde_product,
    veronese_determinant,
)
from kstab.rationals import MAX_EXPONENT, integer
from test_flags import df_coefficient, interpolate, stabilized_fit

F = Fraction


# ---------------------------------------------------------------------------
# rationals


def test_rat_accepts_ints_strings_fractions():
    assert rat(3) == F(3)
    assert rat("3/4") == F(3, 4)
    assert rat(" -5/10 ") == F(-1, 2)
    assert rat(F(7, 2)) == F(7, 2)


def test_rat_rejects_floats_and_bools():
    with pytest.raises(InputError):
        rat(0.5)
    with pytest.raises(InputError):
        rat(True)
    with pytest.raises(InputError):
        rat("not-a-number")
    with pytest.raises(InputError):
        rat("1/0")


def test_rat_caps_the_decimal_exponent():
    # exponents up to the cap parse; past it they are refused before
    # Fraction builds the power
    assert MAX_EXPONENT == 4_300
    assert rat("2.5e-3") == F(1, 400)
    assert rat("1e4300") == F(10**4300)
    assert rat("-3E-4300") == F(-3, 10**4300)
    for text in ("1e4301", "1e-4301", "1e10000000", " 2.5E+99999 "):
        with pytest.raises(SizeError) as info:
            rat(text)
        exponent = text.strip().lower().partition("e")[2]
        assert str(info.value) == f"decimal exponent capped at 4300 (got {exponent})"
    for text in ("1e" + "9" * 5000, "1e 99999", "1e"):  # not rationals
        with pytest.raises(InputError):
            rat(text)


def test_rat_str_round_trip():
    assert rat_str(F(-3, 4)) == "-3/4"
    assert rat_str(F(8, 2)) == "4"
    assert rat(rat_str(F(22, 7))) == F(22, 7)


def test_integer_accepts_ints_only():
    assert integer("n", 3) == 3
    assert integer("n", 0, least=0) == 0
    for value in (True, 3.0, "3", F(3), 0):
        with pytest.raises(InputError, match=r"^n must be an integer >= 1$"):
            integer("n", value)


X = MonomialIdeal(1, [(1,)])


@pytest.mark.parametrize("call,args,message", [
    (gamma_at_k, (1.5,), "k must be an integer >= 1"),
    (gamma_at_k, (True,), "k must be an integer >= 1"),
    (gamma_report, (2.5,), "k_max must be an integer >= 1"),
    (lct_braid, (2.5,), "g must be an integer >= 2"),
    (braid_arrangement, (2.5,), "g must be an integer >= 2"),
    (veronese_determinant, (1.5,), "k must be an integer >= 0"),
    (diagonal_discrepancy, (2.5, 1), "g must be an integer >= 2"),
    (vandermonde_product, (2.5,), "nvars must be an integer >= 1"),
    (CentralArrangement, (2.0, [[1, 0]]), "ambient dimension must be an integer >= 1"),
    (MonomialIdeal, (1.0, [(1,)]), "arity must be an integer >= 1"),
    (summation_check, (X, 0, [X], 1, 24.0), "denom_bound must be an integer >= 1"),
], ids=[
    "gamma_at_k-float", "gamma_at_k-bool", "gamma_report", "lct_braid",
    "braid_arrangement", "veronese_determinant", "diagonal_discrepancy",
    "vandermonde_product", "CentralArrangement", "MonomialIdeal", "summation_check",
])
def test_count_arguments_must_be_integers(call, args, message):
    # each of these once raised a bare TypeError or accepted the value
    with pytest.raises(InputError) as info:
        call(*args)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# interpolation


def test_interpolate_quadratic():
    poly = interpolate([(0, 1), (1, 3), (2, 7)])
    assert poly == UniPoly([1, 1, 1])  # k^2 + k + 1


def test_interpolate_weight_samples():
    # samples of the fat-point weight -(k^2+k)/2 on a divisible grid
    poly = interpolate([(6, -21), (12, -78), (18, -171)])
    assert poly == UniPoly([0, F(-1, 2), F(-1, 2)])


def test_interpolate_constant():
    poly = interpolate([(1, 5), (2, 5)])
    assert poly == UniPoly([5])


def test_interpolate_reproduces_samples():
    rng = random.Random("interp")
    for _ in range(20):
        n = rng.randint(2, 6)
        ks = rng.sample(range(0, 40), n)
        samples = [(k, F(rng.randint(-50, 50), rng.randint(1, 9))) for k in ks]
        poly = interpolate(samples)
        assert poly.degree < n
        for k, v in samples:
            assert poly(k) == v


def test_interpolate_rejects_duplicates_and_tiny_input():
    with pytest.raises(InputError):
        interpolate([(1, 2), (1, 3)])
    with pytest.raises(InputError):
        interpolate([(1, 2)])


# ---------------------------------------------------------------------------
# stabilized fits


def _w(k):
    return F(-(k * k + k), 2)


def test_stabilized_fit_weight_polynomial():
    samples = [(k, _w(k)) for k in range(2, 9)]
    poly, onset = stabilized_fit(samples, 2)
    assert poly == UniPoly([0, F(-1, 2), F(-1, 2)])
    assert onset == 2


def test_stabilized_fit_constant_data():
    poly, onset = stabilized_fit([(k, F(9)) for k in range(1, 7)], 2)
    assert poly == UniPoly([9])
    assert onset == 1


def test_stabilized_fit_degree_zero():
    # a constant fit rests on one sample, fewer than interpolate accepts
    assert stabilized_fit([(k, 5) for k in range(1, 6)], 0) == (UniPoly([5]), 1)
    samples = [(1, 3), (2, 4), (3, 5), (4, 5), (5, 5)]
    assert stabilized_fit(samples, 0) == (UniPoly([5]), 3)
    with pytest.raises(GridTooShortError):
        stabilized_fit(samples[:2] + [(3, 4)] + samples[3:], 0)


def test_stabilized_fit_transient_head():
    # polynomial only from k = 4 onward: onset must skip the head
    samples = [(1, F(100)), (2, F(200)), (3, F(5))] + [
        (k, F(k * k)) for k in range(4, 10)
    ]
    poly, onset = stabilized_fit(samples, 2)
    assert poly == UniPoly([0, 0, 1])
    assert onset == 4


def test_stabilized_fit_rejects_cubic_growth():
    samples = [(k, F(k ** 3)) for k in range(1, 7)]
    with pytest.raises(GridTooShortError, match="largest k tried: 6"):
        stabilized_fit(samples, 2)


def _last_difference(window):
    """Top divided difference of a window of (k, value) samples."""
    xs = [k for k, _ in window]
    table = [v for _, v in window]
    for order in range(1, len(window)):
        table = [
            (table[i + 1] - table[i]) / (xs[i + order] - xs[i])
            for i in range(len(table) - 1)
        ]
    return table[0]


def test_stabilized_fit_matches_window_criterion():
    # reference: accept iff the (d+1)-th divided differences vanish on
    # the last two windows of d+2 samples, then fit the last d+1
    rng = random.Random("window-criterion")
    for _ in range(400):
        d = rng.randint(1, 3)
        ks = sorted(rng.sample(range(1, 40), rng.randint(d + 3, d + 6)))
        coeffs = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d + 1)]
        samples = [(k, UniPoly(coeffs)(k)) for k in ks]
        for _ in range(rng.randint(0, 2)):
            i = rng.randrange(len(samples))
            samples[i] = (samples[i][0], samples[i][1] + rng.choice([-1, 1]))
        tail = samples[-(d + 3):]
        accept = _last_difference(tail[:-1]) == 0 == _last_difference(tail[1:])
        if accept:
            poly, onset = stabilized_fit(samples, d)
            assert poly == interpolate(samples[-(d + 1):])
            assert all(poly(k) == v for k, v in samples if k >= onset)
        else:
            with pytest.raises(GridTooShortError):
                stabilized_fit(samples, d)


def test_stabilized_fit_needs_enough_samples():
    with pytest.raises(InputError):
        stabilized_fit([(k, F(0)) for k in range(1, 5)], 2)


# ---------------------------------------------------------------------------
# the Donaldson-Futaki coefficient


N = UniPoly([1, 2])  # 2k + 1


def test_df_coefficient_weight_example():
    w = UniPoly([0, F(-1, 2), F(-1, 2)])
    assert df_coefficient(w, N, 1) == F(1, 2)


def test_df_coefficient_zero_weight():
    assert df_coefficient(UniPoly([]), N, 1) == 0


def test_df_coefficient_boundary_case():
    # w = -2k^2 - k: expansion gives -2 - 2(-1) = 0
    assert df_coefficient(UniPoly([0, -1, -2]), N, 1) == 0


def test_df_coefficient_matches_w2_minus_2w1():
    rng = random.Random("df")
    for _ in range(20):
        w2, w1, w0 = (F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
        w = UniPoly([w0, w1, w2])
        assert df_coefficient(w, N, 1) == w2 - 2 * w1


def test_df_coefficient_bilinear():
    def df_of(coeffs):
        return df_coefficient(UniPoly(coeffs), N, 1)

    rng = random.Random("df-bilinear")
    for _ in range(10):
        a = [rng.randint(-5, 5) for _ in range(3)]
        b = [rng.randint(-5, 5) for _ in range(3)]
        lam = F(rng.randint(-6, 6), rng.randint(1, 3))
        assert df_of(map(sum, zip(a, b))) == df_of(a) + df_of(b)
        assert df_of([lam * c for c in a]) == lam * df_of(a)


def test_df_coefficient_degree_contracts():
    with pytest.raises(InputError):
        df_coefficient(UniPoly([0, 0, 0, 1]), N, 1)  # deg w > n+1
    with pytest.raises(InputError):
        df_coefficient(UniPoly([1]), UniPoly([1, 0, 3]), 1)  # deg N != n


# ---------------------------------------------------------------------------
# symbolic determinants


def _vars(n):
    return [MultiPoly.variable(i, n) for i in range(n)]


def test_det_1x1():
    (u,) = _vars(1)
    assert det_symbolic([[u]]) == u


def test_det_2x2_vandermonde():
    u1, u2 = _vars(2)
    one = MultiPoly.constant(1, 2)
    assert det_symbolic([[one, u1], [one, u2]]) == u2 - u1


def test_det_3x3_vandermonde():
    u1, u2, u3 = _vars(3)
    one = MultiPoly.constant(1, 3)
    matrix = [[one, u, u * u] for u in (u1, u2, u3)]
    product = (u2 - u1) * (u3 - u1) * (u3 - u2)
    assert det_symbolic(matrix) == product


def test_det_alternating_on_random_matrices():
    rng = random.Random("det-alt")
    for _ in range(10):
        matrix = [
            [MultiPoly.constant(rng.randint(-4, 4), 1) for _ in range(3)]
            for _ in range(3)
        ]
        i, j = rng.sample(range(3), 2)
        swapped = list(matrix)
        swapped[i], swapped[j] = matrix[j], matrix[i]
        assert det_symbolic(swapped) == -det_symbolic(matrix)


def test_det_rejects_nonsquare_and_oversize():
    one = MultiPoly.constant(1, 1)
    with pytest.raises(InputError):
        det_symbolic([[one, one]])
    with pytest.raises(SizeError):
        det_symbolic([[one] * 8 for _ in range(8)])


@pytest.mark.parametrize("build,message", [
    (lambda: MultiPoly.variable(5, 2), "variable index must be below the arity 2"),
    (lambda: MultiPoly.variable(-1, 2), "index must be an integer >= 0"),
    (lambda: MultiPoly.variable(0, 0), "arity must be an integer >= 1"),
    (lambda: MultiPoly.constant(1, 2.5), "arity must be an integer >= 1"),
    (lambda: MultiPoly.constant(1, True), "arity must be an integer >= 1"),
    (lambda: MultiPoly("2", {(1, 0): 1}), "arity must be an integer >= 1"),
    (lambda: det_symbolic([[1]]), "entries must be MultiPolys of one arity"),
    (lambda: det_symbolic([[MultiPoly.constant(1, 1), 0], [0, 0]]),
     "entries must be MultiPolys of one arity"),
    (lambda: det_symbolic([[MultiPoly.constant(1, 1), MultiPoly.constant(1, 2)],
                           [MultiPoly.constant(1, 1), MultiPoly.constant(1, 1)]]),
     "entries must be MultiPolys of one arity"),
], ids=["index-past-arity", "index-negative", "arity-zero", "arity-float",
        "arity-bool", "arity-str", "det-int", "det-mixed", "det-arities"])
def test_multipoly_inputs_raise_typed_errors(build, message):
    # each once raised a bare IndexError, TypeError or AttributeError
    with pytest.raises(InputError, match=message):
        build()
