import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repmut.report import E18_SLOT, _digits19, format_e18


def texts(values):
    """format_e18's rows as strings, NULs removed."""
    rows = format_e18(values)
    assert rows.shape == (np.size(values), E18_SLOT) and not rows[:, -1].any()
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in rows]


def assert_as_percent(values):
    values = np.asarray(values, dtype=np.float64)
    expected = ["%.18e" % v for v in values.tolist()]
    got = texts(values)
    wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, expected) if g != w]
    assert not wrong, wrong[:5]


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.integers(0, 64),
              elements=st.floats(allow_nan=True, allow_infinity=True,
                                 allow_subnormal=True)))
def test_matches_percent_on_any_float64(values):
    assert_as_percent(values)


def test_extremes():
    f64 = np.finfo(np.float64)
    assert_as_percent([0.0, -0.0, 5e-324, -5e-324, f64.smallest_normal,
                       -f64.smallest_normal, f64.max, -f64.max,
                       np.inf, -np.inf, np.nan, -np.nan])
    assert texts([0.0, -0.0]) == ["0.000000000000000000e+00", "-0.000000000000000000e+00"]


def test_powers_of_ten_and_their_neighbours():
    p = np.array([10.0**k for k in range(-307, 309)])
    values = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    assert_as_percent(np.concatenate([values, -values]))
    # the double 1e153 lies below 10**153, and log10 gives 153 for it
    assert texts([1e153]) == ["9.999999999999999997e+152"]


def test_powers_of_two():
    assert_as_percent(np.ldexp(1.0, np.arange(-1074, 1024)))


def test_integers_up_to_2_53():
    gen = np.random.default_rng(0)
    ints = np.concatenate([np.arange(100_001), 2**53 - np.arange(1000),
                           gen.integers(0, 2**53, 100_000, endpoint=True)])
    assert_as_percent(ints.astype(np.float64))


def test_random_magnitudes():
    gen = np.random.default_rng(1)
    values = np.exp(gen.uniform(-700.0, 700.0, 100_000)) * gen.choice([-1.0, 1.0], 100_000)
    assert_as_percent(np.concatenate([values, gen.normal(size=100_000)]))


def test_ties_go_through_percent():
    # each has 20 significant digits, the last a 5: an exact tie at 19
    # digits, which "%" rounds to even.  10**19 is a double, so the first
    # product is exact; 10**23 is not, so the second is a tie only to within
    # the pair's rounding error and must not be rounded by the vector path.
    ties = [524289 / 2**20, 169 / 2**24]  # 0.50000095367431640625, 1.0073184967041015625e-05
    for x, e in zip(ties, [-1, -5]):
        _, frac, _ = _digits19(np.array([x]), np.array([e]))
        assert abs(abs(frac[0]) - 0.5) < 1e-12
    assert texts(ties) == ["5.000009536743164062e-01", "1.007318496704101562e-05"]
    assert_as_percent(np.concatenate([ties, np.negative(ties)]))


def test_empty_and_shape():
    assert format_e18(np.empty(0)).shape == (0, E18_SLOT)
    assert texts(np.array([[1.5, -2.0], [3.0, 0.25]])) == [
        "1.500000000000000000e+00", "-2.000000000000000000e+00",
        "3.000000000000000000e+00", "2.500000000000000000e-01"]
