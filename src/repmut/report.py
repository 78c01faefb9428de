"""CSV and SVG report writers with atomic file replacement.

CSV schemas (versioned; see README):
  densities: t,x,u
  rates:     N,D,ci_lo,ci_hi
  masses:    t,h_t,h_t_mc,se
  l1_table:  engine_a,engine_b,l1
  slope:     slope,ci_lo,ci_hi,theory,inversions
  ensemble:  particle,t,x0..,logw  (written by WeightedParticleEnsemble.to_csv)
"""

from __future__ import annotations

import contextlib
import functools
import os

import numpy as np


@contextlib.contextmanager
def atomic_open(path):
    """A binary handle on a temporary file beside ``path``, which replaces
    ``path`` when the block ends, with the mode a plain ``open`` would give;
    if the block raises, ``path`` is left as it was and the temporary file
    is removed."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    # mode 0o666 less the umask, as open() gives (mkstemp would give 0600)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def atomic_write_text(path, text):
    """Write ``text``, a str (as UTF-8) or bytes, to ``path`` atomically."""
    with atomic_open(path) as fh:
        fh.write(text.encode() if isinstance(text, str) else text)


def write_csv(path, header: str, rows, prefix=None) -> bytes:
    """Write a table under ``header`` and return the bytes written.  With
    ``prefix``, each row's leading fields already encoded (as
    ``density_prefix`` gives them), ``rows`` is a column of floats, written by
    ``format_g17``.  Without, ``rows`` are equal-length rows (or a 2-D array),
    written field by field by "%": text as it is, integers as digits, other
    numbers as "%.17g"."""
    if prefix is not None:
        body = join_fields([prefix, format_g17(rows)])
    else:
        rows = list(rows)
        if len({len(row) for row in rows}) > 1:
            raise TypeError("rows of unequal length")
        body = "".join(",".join(_spec(type(v)) % v for v in row) + "\n" for row in rows).encode()
    data = header.encode() + b"\n" + body
    with atomic_open(path) as fh:
        fh.write(data)
    return data


def _spec(tp) -> str:
    return "%s" if issubclass(tp, str) else "%d" if issubclass(tp, (int, np.integer)) else "%.17g"


def join_fields(fields) -> bytearray:
    """The rows of ``fields``, (n, width) uint8 slot matrices whose NULs mark
    no character and whose last column is free: the fields side by side,
    each ended by "," and each row by "\n", the NULs dropped.  The rows are
    laid out in the buffer that is translated, which saves a copy."""
    n, ends = len(fields[0]), np.cumsum([f.shape[1] for f in fields])
    buf = bytearray(n * int(ends[-1]))
    table = np.frombuffer(buf, np.uint8).reshape(n, ends[-1])
    for field, hi in zip(fields, ends):
        table[:, hi - field.shape[1]:hi] = field
    table[:, ends - 1] = ord(",")
    table[:, -1] = ord("\n")
    return buf.translate(None, b"\0")


def density_prefix(times, grid) -> np.ndarray:
    """The "t,x" that leads each row of a density table, each time over the
    whole grid, as ``write_csv``'s ``prefix``: each t and x encoded once."""
    t, x = (f[:, _used_columns(f)] for f in (format_g17(times), format_g17(grid)))
    rows = np.empty((len(t), len(x), t.shape[1] + x.shape[1]), np.uint8)
    rows[:, :, :t.shape[1]] = t[:, None]
    rows[:, :, t.shape[1]:] = x
    rows[:, :, t.shape[1] - 1] = ord(",")
    return rows.reshape(-1, rows.shape[2])


def _used_columns(field) -> slice:
    """A slice of ``field``'s columns from the first to the last that is not
    all NUL, and the last column, which is free."""
    lo, hi = 0, field.shape[1] - 1
    while hi and not field[:, hi - 1].any():
        hi -= 1
    while lo < hi and not field[:, lo].any():
        lo += 1
    return slice(lo, hi + 1)


# ---------------------------------------------------------------------------
# exact "%.18e" and "%.17g" text of float64 arrays

# bytes per "%.18e" slot: NUL, sign, digit, ".", 18 digits, "e", sign,
# 3 exponent digits, NUL; a NUL stands where the text has no character
E18_SLOT = 28
# bytes per "%.17g" slot: sign, "0.000", lead digit, ".", 16 digits,
# "e", sign, 3 exponent digits, NULs; a NUL stands where the text has no
# character
G17_SLOT = 32


def _words(*columns):
    """Unsigned words whose bytes in memory are the given byte columns."""
    b = np.stack(np.broadcast_arrays(*columns), axis=-1).astype(np.uint8)
    return np.ascontiguousarray(b).view(f"u{len(columns)}")[..., 0]


# The "%.18e" slot is 7 words, each read from one table: [NUL, sign, digit,
# "."], four words of 4 digits, [digit, digit, "e", exponent sign] and
# [exponent digits, NUL] (NUL first below 100).
_n = np.arange(10_000)
_HEAD = _words(0, _n[:20] // 10 * ord("-"), _n[:20] % 10 + ord("0"), ord("."))
_DIGITS4 = _words(*(_n // 10**p % 10 + ord("0") for p in (3, 2, 1, 0)))
_TAIL = _words(_n[:200] // 10 % 10 + ord("0"), _n[:200] % 10 + ord("0"), ord("e"),
               np.where(_n[:200] < 100, ord("+"), ord("-")))
_EXPONENT = _words(np.where(_n[:1000] < 100, 0, _n[:1000] // 100 + ord("0")),
                   _n[:1000] // 10 % 10 + ord("0"), _n[:1000] % 10 + ord("0"), 0)
del _n
# |x| in [_CERTIFIED_MIN, _CERTIFIED_MAX): 10**(p - 1 - e) and its split
# cannot overflow, and no split part is subnormal
_CERTIFIED_MIN, _CERTIFIED_MAX = 1e-280, 1e280
# a scaled fraction this close to a tie, or a product this close to
# 10**(p - 1), goes to "%": the computed product is within 1e-12 of the
# exact one
_TIE_MARGIN = 1e-6
# values per block: its temporaries stay in cache (a third faster than 16384)
_BLOCK = 4096


def format_e18(values) -> np.ndarray:
    """The "%.18e" text of each float64 value, byte for byte as Python's ``%``
    writes it, as the rows of an (n, E18_SLOT) uint8 array: a row's text is
    its bytes with the NULs removed, and its last byte is always NUL, free
    for a separator.  The 19 digits come from ``_rounded``; the values it
    leaves to "%" are formatted one by one."""
    return _encode(values, E18_SLOT, _e18_block)


def format_g17(values) -> np.ndarray:
    """The "%.17g" text of each float64 value, byte for byte as Python's ``%``
    writes it, as the rows of an (n, G17_SLOT) uint8 array: a row's text is
    its bytes with the NULs removed, and its last byte is always NUL, free
    for a separator.

    From ``_rounded``'s 17 digits and exponent e: fixed notation for e in
    [-4, 16], else exponential with at least two exponent digits; trailing
    zeros after the point, and a bare point, are dropped.  The values that
    ``_rounded`` leaves to "%" are formatted one by one."""
    return _encode(values, G17_SLOT, _g17_block)


def _encode(values, slot, block) -> np.ndarray:
    x = np.asarray(values, dtype=np.float64).ravel()
    out = np.empty((x.size, slot), np.uint8)
    for lo in range(0, x.size, _BLOCK):
        block(x[lo:lo + _BLOCK], out[lo:lo + _BLOCK])
    return out


def _e18_block(x, out):
    """format_e18 of a block of values, into its rows ``out``."""
    d, e, vector = _rounded(x, 19)
    q = (d // 10**10).astype(np.int64)           # the lead digit and 8 digits
    r = (d - q.astype(np.uint64) * 10**10).astype(np.int64)   # 10 digits
    lead = q // 10**8
    hi8, mid8 = q - lead * 10**8, r // 100
    words = out.view(np.uint32)
    words[:, 0] = _HEAD[np.signbit(x) * 10 + lead]
    words[:, 1] = _DIGITS4[hi8 // 10_000]
    words[:, 2] = _DIGITS4[hi8 % 10_000]
    words[:, 3] = _DIGITS4[mid8 // 10_000]
    words[:, 4] = _DIGITS4[mid8 % 10_000]
    words[:, 5] = _TAIL[(e < 0) * 100 + r % 100]
    words[:, 6] = _EXPONENT[np.abs(e)]
    _by_percent(x, vector, out, "%.18e")


# The "%.17g" slot, a NUL where the text has no character: 8 bytes of
# head, four words of 4 digits (their trailing zeros NUL where no digit
# after them is nonzero) and 8 bytes of exponent ["e", sign, digits, NUL...]
# (all NUL in fixed notation).  The head is the sign, the lead digit (byte 6)
# and the point (byte 7), or where -4 <= e < 0, the sign, "0." and -e - 1
# zeros, then the lead digit at byte 7.  NULs in a run cost the final NUL
# removal less than NULs between characters.  Where 1 <= e <= 16 the point
# goes inside the digits: "%" writes such a value.
# The tables below are indexed by e - _G_E0, for every exponent _rounded
# returns, with margin.
_G_E0 = -300


@functools.cache
def _g17_tables():
    """The "%.17g" layout tables, built on first use, so that an import
    does not pay for them."""
    e = np.arange(_G_E0, 301)
    fixed = (e >= -4) & (e <= 16)
    zeros = np.where(fixed & (e < 0), -e, 0).astype(np.uint8)  # "0." and zeros - 1 zeros
    # at 5 * sign + zeros: the head's text, ending just before the lead digit
    head = np.frombuffer(b"".join(
        ((b"-" if sign else b"") + (b"0." + b"0" * (z - 1) if z else b"")).rjust(
            7 if z else 6, b"\0").ljust(8, b"\0") for sign in (0, 1) for z in range(5)), np.uint64)
    n, short = abs(e), abs(e) < 100  # two exponent digits, else three
    exponent = np.where(fixed, 0, _words(
        ord("e"), np.where(e < 0, ord("-"), ord("+")),
        np.where(short, n // 10, n // 100) + ord("0"),
        np.where(short, n, n // 10) % 10 + ord("0"),
        np.where(short, 0, n % 10 + ord("0")), 0, 0, 0))
    # at 2 * digit + point: the lead digit at byte 6, then the point or NUL;
    # from 20 on, after a "0." head: the lead digit at byte 7
    n = np.arange(40)
    lead = _words(0, 0, 0, 0, 0, 0, np.where(n < 20, n // 2 % 10 + ord("0"), 0),
                  np.where(n < 20, n % 2 * ord("."), n // 2 % 10 + ord("0")))
    # _DIGITS4 and, from 10_000 on, the same digits with trailing zeros NUL
    n = np.arange(10_000)
    digits4_trim = np.concatenate([_DIGITS4, _words(*(
        np.where(n % 10**(p + 1), n // 10**p % 10 + ord("0"), 0) for p in (3, 2, 1, 0)))])
    return zeros, head, exponent, lead, digits4_trim


def _g17_block(x, out):
    """format_g17 of a block of values, into its rows ``out``."""
    zeros_of, head_of, exponent_of, lead_of, digits4_trim = _g17_tables()
    d, e, vector = _rounded(x, 17)
    vector &= (e < 1) | (e > 16)  # the point inside the digits: "%" writes it
    d[~vector] = 0  # such a D may exceed 10**17
    ei = e - _G_E0
    lead, f = np.divmod(d.astype(np.int64), 10**16)
    g1, f = np.divmod(f, 10**12)
    g2, f = np.divmod(f, 10**8)
    g3, g4 = np.divmod(f, 10**4)
    # a group's trailing zeros go where the groups after it are 0
    trim3 = g4 == 0
    trim2 = trim3 & (g3 == 0)
    trim1 = trim2 & (g2 == 0)
    zeros = zeros_of[ei]
    point = (zeros == 0) & ~(trim1 & (g1 == 0))
    head = out.view(np.uint64)
    head[:, 0] = head_of[np.signbit(x) * 5 + zeros]
    head[:, 0] |= lead_of[lead * 2 + point + (zeros > 0) * 20]
    words = out.view(np.uint32)
    words[:, 2] = digits4_trim[g1 + trim1 * 10_000]
    words[:, 3] = digits4_trim[g2 + trim2 * 10_000]
    words[:, 4] = digits4_trim[g3 + trim3 * 10_000]
    words[:, 5] = digits4_trim[g4 + 10_000]
    head[:, 3] = exponent_of[ei]
    _by_percent(x, vector, out, "%.17g")


def _by_percent(x, vector, out, spec):
    """Each value outside ``vector`` as ``spec % value``, into its row of
    ``out``, NUL-padded."""
    slow = np.flatnonzero(~vector)
    if slow.size:
        width = out.shape[1]
        text = b"".join((spec % v).encode().ljust(width, b"\0") for v in x[slow].tolist())
        out[slow] = np.frombuffer(text, np.uint8).reshape(-1, width)


def _rounded(x, p):
    """|x| to p significant digits, for float64 ``x``: D as uint64 in
    [10**(p-1), 10**p), its decimal exponent e (both 0 for a zero), and
    where the vector path may write them.

    D = round(|x| 10**(p - 1 - e)) with e = floor(log10|x|), from a Dekker
    product with 10**(p - 1 - e) held as an exact-to-2**-106 pair of
    doubles; e moves by one where D misses [10**(p-1), 10**p).  Non-finite
    values, |x| outside [1e-280, 1e280), and products within _TIE_MARGIN of
    a rounding tie or of 10**(p-1), or that round to 10**p, are left to
    "%"; zeros are not."""
    a = np.abs(x)
    zero = a == 0.0
    vector = zero | ((a >= _CERTIFIED_MIN) & (a < _CERTIFIED_MAX))
    a = np.where(vector & ~zero, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    d, frac, fits = _digits(a, e, p)
    step = _decade_miss(d, frac, fits, p)
    moved = np.flatnonzero(step)
    if moved.size:
        e[moved] += step[moved]
        d[moved], frac[moved], fits_m = _digits(a[moved], e[moved], p)
        vector[moved] &= _decade_miss(d[moved], frac[moved], fits_m, p) == 0
    near = np.abs(frac)
    # "%" takes a near tie, a product too near 10**(p-1) to tell its decade,
    # and one that rounds up to 10**p (1.000...e(e+1))
    vector &= zero | ((near < 0.5 - _TIE_MARGIN) & (d < 10**p)
                      & ((near >= _TIE_MARGIN) | (d != 10**(p - 1))))
    d[zero], e[zero] = 0, 0
    return d, e, vector


def _digits(a, e, p):
    """For non-empty ``a``: D = round(a 10**(p - 1 - e)) as uint64, the
    product's distance above D, and whether the product is below 1.8e19
    (where it is not, D is meaningless)."""
    k = p - 1 - e
    k0 = int(k.min())
    used = np.flatnonzero(np.bincount(k - k0))
    hi_tab, lo_tab = np.zeros((2, used[-1] + 1))
    hi_tab[used], lo_tab[used] = _pow10_pairs((used + k0).tolist())
    hi, lo = hi_tab[k - k0], lo_tab[k - k0]
    prod = a * hi
    a1, a2 = _split(a)
    h1, h2 = _split(hi)
    s = (((a1 * h1 - prod) + a1 * h2 + a2 * h1) + a2 * h2) + a * lo  # prod + s = a (hi + lo)
    n = np.rint(s)
    fits = prod < 1.8e19
    d = np.where(fits, prod, 0.0).astype(np.uint64) + n.astype(np.int64).view(np.uint64)
    return d, s - n, fits


def _decade_miss(d, frac, fits, p):
    """-1 where the product was below 10**(p-1) (e too high), +1 where it
    was at least 10**p (e too low), 0 where e was right."""
    low = (d < 10**(p - 1)) | ((d == 10**(p - 1)) & (frac < 0))
    high = ~fits | (d > 10**p) | ((d == 10**p) & (frac >= 0))
    return high.astype(np.int64) - low


def _pow10_pairs(ks):
    """(hi, lo) doubles with hi + lo = 10**k within 2**-106 relative, for each
    integer k, from exact integer arithmetic: int / int and float(int) round
    correctly."""
    hi, lo = [], []
    for k in ks:
        if k >= 0:
            h = float(10**k)
            lo.append(float(10**k - int(h)))
        else:
            q = 10**-k
            h = 1 / q
            num, den = h.as_integer_ratio()
            lo.append((den - num * q) / (den * q))
        hi.append(h)
    return hi, lo


def _split(v):
    """Dekker's split of a double into two halves of at most 26 bits each."""
    c = v * 134217729.0  # 2**27 + 1
    h = c - (c - v)
    return h, v - h


# ---------------------------------------------------------------------------
# dependency-free SVG plotting


def _ticks(lo, hi, count=5):
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / count
    mag = 10 ** np.floor(np.log10(raw))
    step = mag * min((m for m in (1, 2, 5, 10) if m * mag >= raw), default=10)
    start = np.ceil(lo / step) * step
    return list(np.arange(start, hi + step / 2, step))


def loglog_svg(path, x, y, ci=None, fit=None, annotation="", title="",
               xlabel="N", ylabel="D(N)", size=(640, 440)):
    """Log-log scatter with an optional fitted line and slope annotation."""
    W, H = size
    ml, mr, mt, mb = 70, 20, 40, 55
    lx = np.log10(np.asarray(x, float))
    ly = np.log10(np.asarray(y, float))
    xlo, xhi = lx.min(), lx.max()
    ylo = ly.min() if ci is None else np.log10(max(min(c[0] for c in ci), 1e-300))
    yhi = ly.max() if ci is None else np.log10(max(c[1] for c in ci))
    xpad, ypad = 0.05 * (xhi - xlo + 1e-9), 0.08 * (yhi - ylo + 1e-9)
    xlo, xhi, ylo, yhi = xlo - xpad, xhi + xpad, ylo - ypad, yhi + ypad

    def sx(v):
        return ml + (v - xlo) / (xhi - xlo) * (W - ml - mr)

    def sy(v):
        return H - mb - (v - ylo) / (yhi - ylo) * (H - mt - mb)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
             f'viewBox="0 0 {W} {H}" font-family="monospace" font-size="12">',
             f'<rect width="{W}" height="{H}" fill="white"/>',
             f'<text x="{W/2}" y="20" text-anchor="middle" font-size="14">{title}</text>']
    # axes
    parts.append(f'<line x1="{ml}" y1="{H-mb}" x2="{W-mr}" y2="{H-mb}" stroke="black"/>')
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{H-mb}" stroke="black"/>')
    for tv in _ticks(xlo, xhi):
        parts.append(f'<line x1="{sx(tv)}" y1="{H-mb}" x2="{sx(tv)}" y2="{H-mb+5}" stroke="black"/>')
        parts.append(f'<text x="{sx(tv)}" y="{H-mb+18}" text-anchor="middle">1e{tv:.1f}</text>')
    for tv in _ticks(ylo, yhi):
        parts.append(f'<line x1="{ml-5}" y1="{sy(tv)}" x2="{ml}" y2="{sy(tv)}" stroke="black"/>')
        parts.append(f'<text x="{ml-8}" y="{sy(tv)+4}" text-anchor="end">1e{tv:.1f}</text>')
    parts.append(f'<text x="{(W)/2}" y="{H-15}" text-anchor="middle">{xlabel} (log)</text>')
    parts.append(f'<text x="18" y="{H/2}" text-anchor="middle" '
                 f'transform="rotate(-90 18 {H/2})">{ylabel} (log)</text>')
    # confidence bars
    if ci is not None:
        for xv, (c0, c1) in zip(lx, ci):
            if c0 > 0:
                parts.append(f'<line x1="{sx(xv)}" y1="{sy(np.log10(c0))}" '
                             f'x2="{sx(xv)}" y2="{sy(np.log10(c1))}" stroke="gray"/>')
    # fit line
    if fit is not None:
        slope, intercept = fit
        xs = np.array([lx.min(), lx.max()])
        ys = slope * xs + intercept
        parts.append(f'<polyline fill="none" stroke="crimson" stroke-dasharray="6 3" points="'
                     + " ".join(f"{sx(a)},{sy(b)}" for a, b in zip(xs, ys)) + '"/>')
    # points and connecting line
    parts.append('<polyline fill="none" stroke="steelblue" points="'
                 + " ".join(f"{sx(a)},{sy(b)}" for a, b in zip(lx, ly)) + '"/>')
    for a, b in zip(lx, ly):
        parts.append(f'<circle cx="{sx(a)}" cy="{sy(b)}" r="3.5" fill="steelblue"/>')
    if annotation:
        parts.append(f'<text x="{W-mr-6}" y="{mt+14}" text-anchor="end" '
                     f'fill="crimson">{annotation}</text>')
    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts))
