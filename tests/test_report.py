import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repmut.report import (E18_SLOT, G17_SLOT, _digits, density_prefix, format_e18,
                           format_g17, join_fields, write_csv)


ENCODERS = {"%.18e": (format_e18, E18_SLOT), "%.17g": (format_g17, G17_SLOT)}


def texts(values, spec="%.18e"):
    """The encoder's rows as strings, NULs removed."""
    encode, slot = ENCODERS[spec]
    rows = encode(values)
    assert rows.shape == (np.size(values), slot) and not rows[:, -1].any()
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in rows]


def assert_as_percent(values, spec="%.18e"):
    values = np.asarray(values, dtype=np.float64)
    expected = [spec % v for v in values.tolist()]
    got = texts(values, spec)
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
        _, frac, _ = _digits(np.array([x]), np.array([e]), 19)
        assert abs(abs(frac[0]) - 0.5) < 1e-12
    assert texts(ties) == ["5.000009536743164062e-01", "1.007318496704101562e-05"]
    assert_as_percent(np.concatenate([ties, np.negative(ties)]))


def test_empty_and_shape():
    assert format_e18(np.empty(0)).shape == (0, E18_SLOT)
    assert texts(np.array([[1.5, -2.0], [3.0, 0.25]])) == [
        "1.500000000000000000e+00", "-2.000000000000000000e+00",
        "3.000000000000000000e+00", "2.500000000000000000e-01"]


# "%.17g": fixed notation for a rounded exponent in [-4, 16], else exponential


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.integers(0, 64),
              elements=st.floats(allow_nan=True, allow_infinity=True,
                                 allow_subnormal=True)))
def test_g17_matches_percent_on_any_float64(values):
    assert_as_percent(values, "%.17g")


def test_g17_extremes_and_numbers_of_every_shape():
    f64 = np.finfo(np.float64)
    gen = np.random.default_rng(2)
    values = np.concatenate([
        [0.0, -0.0, 5e-324, f64.smallest_normal, f64.max, np.inf, -np.inf, np.nan],
        np.ldexp(1.0, np.arange(-1074, 1024)),
        np.arange(-100_000, 100_000) / 64,                       # short fractions
        gen.integers(-2**53, 2**53, 100_000).astype(np.float64),  # integers
        [round(v, k) for v, k in zip(gen.normal(size=20_000), gen.integers(0, 18, 20_000))],
        gen.normal(size=100_000) * 10.0 ** gen.integers(-8, 20, 100_000),
        np.exp(gen.uniform(-700.0, 700.0, 100_000))])
    assert_as_percent(np.concatenate([values, -values]), "%.17g")
    assert texts([0.0, -0.0, 0.5, 100.0, 1e300], "%.17g") == ["0", "-0", "0.5", "100",
                                                             "1.0000000000000001e+300"]


def test_g17_notation_switches():
    # exponential below 1e-4 and from 1e17 on, fixed between; no double
    # rounds across these two switches at 17 digits (10**17 is exact, and
    # the doubles next to 1e-4 are 1e-20 away), but these doubles round
    # across their decade, so "%" writes them
    switches = np.array([1e-5, 1e-4, 1e16, 1e17])
    values = np.concatenate([switches, np.nextafter(switches, 0.0),
                             np.nextafter(switches, np.inf)])
    assert_as_percent(np.concatenate([values, -values]), "%.17g")
    assert texts([1e-4, np.nextafter(1e-4, 0.0), 1e16, 1e17, np.nextafter(1e17, 0.0)],
                 "%.17g") == ["0.0001", "9.9999999999999991e-05", "10000000000000000",
                              "1e+17", "99999999999999984"]
    across = [1e-243, 1e-176, 1e-79, 1e-70, 1e-14]
    assert texts(across, "%.17g") == ["1e-243", "1e-176", "1e-79", "1e-70", "1e-14"]
    p = np.array([10.0**k for k in range(-307, 309)])
    values = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    assert_as_percent(np.concatenate([values, -values]), "%.17g")


def test_g17_ties_go_through_percent():
    # each has 18 significant digits, the last a 5: an exact tie at 17,
    # which "%" rounds to even; one in each notation and point position
    ties = [0.03125190734863281, 0.0002455711364746094, 1.0000076293945312,
            1024.0003051757812, 1099511627776.2188, 2.5033950805664062e-06]
    for x in ties:
        e = int(np.floor(np.log10(x)))
        _, frac, _ = _digits(np.array([x]), np.array([e]), 17)
        assert abs(abs(frac[0]) - 0.5) < 1e-12
    assert texts(ties, "%.17g") == [
        "0.031251907348632812", "0.00024557113647460938", "1.0000076293945312",
        "1024.0003051757812", "1099511627776.2188", "2.5033950805664062e-06"]
    assert_as_percent(np.concatenate([ties, np.negative(ties)]), "%.17g")


def test_g17_empty_and_shape():
    assert format_g17(np.empty(0)).shape == (0, G17_SLOT)
    assert texts(np.array([[1.5, -2.0], [3.0, 0.25]]), "%.17g") == ["1.5", "-2", "3", "0.25"]


def test_density_prefix_rows_equal_whole_rows(tmp_path):
    # a density table: each t repeated over the grid, the grid repeated per t
    t, x = np.array([0.0, 0.05, 0.1]), np.linspace(-12.0, 12.0, 101)
    u = np.exp(-x**2 / 2)[None] * np.array([1.0, 1e-290, 0.0])[:, None]
    whole = np.column_stack([np.repeat(t, x.size), np.tile(x, t.size), u.ravel()])
    written = write_csv(tmp_path / "a.csv", "t,x,u", u.reshape(-1, 1),
                        prefix=density_prefix(t, x))
    assert written == write_csv(tmp_path / "b.csv", "t,x,u", whole)
    assert written == (tmp_path / "a.csv").read_bytes()


def test_join_fields_lays_out_rows():
    # "a" and "12", then "b" and an empty field: each field ends in its
    # free last column, and the NULs drop out
    a = np.array([[ord("a"), 0, 0], [0, ord("b"), 0]], np.uint8)
    b = np.array([[ord("1"), ord("2"), 0], [0, 0, 0]], np.uint8)
    assert join_fields([a, b]) == b"a,12\nb,\n"
    assert join_fields([a[:0], b[:0]]) == b""
