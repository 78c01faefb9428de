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
import os

import numpy as np


@contextlib.contextmanager
def atomic_open(path):
    """A text handle on a temporary file beside ``path``, which replaces
    ``path`` when the block ends, with the mode a plain ``open`` would give;
    if the block raises, ``path`` is left as it was and the temporary file
    is removed."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    # mode 0o666 less the umask, as open() gives (mkstemp would give 0600)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def atomic_write_text(path, text: str):
    with atomic_open(path) as fh:
        fh.write(text)


def write_csv(path, header: str, rows) -> str:
    """Write ``rows`` (equal-length rows or a 2-D array) under ``header``, by one
    ``%`` per table: text as it is, integers as digits, other numbers "%.17g";
    returns the text written."""
    table = np.array(rows, dtype=object)  # a copy: a column of mixed kinds becomes text
    specs = []
    for col in table.T if table.ndim == 2 else ():  # ragged rows fail in the % below
        kinds = {_spec(tp) for tp in set(map(type, col))}
        if len(kinds) != 1:  # mixed, or no rows
            col[:], kinds = csv_text(col), {"%s"}
        specs.append(kinds.pop())
    line = ",".join(specs) + "\n"
    text = header + "\n" + line * len(table) % tuple(table.ravel().tolist())
    atomic_write_text(path, text)
    return text


def csv_text(values) -> list:
    """Each value as ``write_csv`` writes it, to format a repeated one once."""
    return [_spec(type(v)) % v for v in values]


def _spec(tp) -> str:
    return "%s" if issubclass(tp, str) else "%d" if issubclass(tp, (int, np.integer)) else "%.17g"


# ---------------------------------------------------------------------------
# "%.18e" text of float64 arrays

# bytes per "%.18e" slot: NUL, sign, digit, ".", 18 digits, "e", sign,
# 3 exponent digits, NUL; a NUL stands where the text has no character
E18_SLOT = 28


def _words(*columns):
    """uint32 words whose four bytes in memory are the given byte columns."""
    b = np.stack(np.broadcast_arrays(*columns), axis=-1).astype(np.uint8)
    return np.ascontiguousarray(b).view(np.uint32)[..., 0]


# The slot is 7 words, each read from one table: [NUL, sign, digit, "."],
# four words of 4 digits, [digit, digit, "e", exponent sign] and
# [exponent digits, NUL] (NUL first below 100).
_n = np.arange(10_000)
_HEAD = _words(0, _n[:20] // 10 * ord("-"), _n[:20] % 10 + ord("0"), ord("."))
_DIGITS4 = _words(*(_n // 10**p % 10 + ord("0") for p in (3, 2, 1, 0)))
_TAIL = _words(_n[:200] // 10 % 10 + ord("0"), _n[:200] % 10 + ord("0"), ord("e"),
               np.where(_n[:200] < 100, ord("+"), ord("-")))
_EXPONENT = _words(np.where(_n[:1000] < 100, 0, _n[:1000] // 100 + ord("0")),
                   _n[:1000] // 10 % 10 + ord("0"), _n[:1000] % 10 + ord("0"), 0)
del _n
# |x| in [_CERTIFIED_MIN, _CERTIFIED_MAX): 10**(18 - e) and its split cannot
# overflow, and no split part is subnormal
_CERTIFIED_MIN, _CERTIFIED_MAX = 1e-280, 1e280
# a scaled fraction this close to a tie, or a product this close to 10**18,
# goes to "%": the computed product is within 1e-12 of the exact one
_TIE_MARGIN = 1e-6
# values per block: its temporaries stay in cache (a third faster than 16384)
_BLOCK = 4096


def format_e18(values) -> np.ndarray:
    """The "%.18e" text of each float64 value, byte for byte as Python's ``%``
    writes it, as the rows of an (n, E18_SLOT) uint8 array: a row's text is
    its bytes with the NULs removed, and its last byte is always NUL, free
    for a separator.

    Each value's 19 digits are D = round(|x| 10**(18 - e)) with
    e = floor(log10|x|), from a Dekker product with 10**(18 - e) held as an
    exact-to-2**-106 pair of doubles; e moves by one where D misses
    [10**18, 10**19).  Non-finite values, |x| outside [1e-280, 1e280), and
    products within _TIE_MARGIN of a rounding tie or of 10**18, or that
    round to 10**19, are formatted one by one with ``%``; zeros are not."""
    x = np.asarray(values, dtype=np.float64).ravel()
    out = np.empty((x.size, E18_SLOT), np.uint8)
    for lo in range(0, x.size, _BLOCK):
        _format_block(x[lo:lo + _BLOCK], out[lo:lo + _BLOCK])
    return out


def _format_block(x, out):
    """format_e18 of a block of values, into its rows ``out``."""
    a = np.abs(x)
    zero = a == 0.0
    vector = zero | ((a >= _CERTIFIED_MIN) & (a < _CERTIFIED_MAX))
    a = np.where(vector & ~zero, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    d, frac, fits = _digits19(a, e)
    step = _decade_miss(d, frac, fits)
    moved = np.flatnonzero(step)
    if moved.size:
        e[moved] += step[moved]
        d[moved], frac[moved], fits_m = _digits19(a[moved], e[moved])
        vector[moved] &= _decade_miss(d[moved], frac[moved], fits_m) == 0
    near = np.abs(frac)
    # "%" takes a near tie, a product too near 10**18 to tell its decade, and
    # one that rounds up to 10**19 (1.000...e(e+1))
    vector &= zero | ((near < 0.5 - _TIE_MARGIN) & (d < 10**19)
                      & ((near >= _TIE_MARGIN) | (d != 10**18)))
    d[zero], e[zero] = 0, 0

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

    slow = np.flatnonzero(~vector)
    if slow.size:
        text = b"".join(("%.18e" % v).encode().ljust(E18_SLOT, b"\0")
                        for v in x[slow].tolist())
        out[slow] = np.frombuffer(text, np.uint8).reshape(-1, E18_SLOT)


def _digits19(a, e):
    """For non-empty ``a``: D = round(a 10**(18 - e)) as uint64, the
    product's distance above D, and whether the product is below 1.8e19
    (where it is not, D is meaningless)."""
    k = 18 - e
    k0 = int(k.min())
    used = np.flatnonzero(np.bincount(k - k0))
    hi_tab, lo_tab = np.zeros((2, used[-1] + 1))
    hi_tab[used], lo_tab[used] = _pow10_pairs((used + k0).tolist())
    hi, lo = hi_tab[k - k0], lo_tab[k - k0]
    p = a * hi
    a1, a2 = _split(a)
    h1, h2 = _split(hi)
    s = (((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2) + a * lo  # p + s = a (hi + lo)
    n = np.rint(s)
    fits = p < 1.8e19
    d = np.where(fits, p, 0.0).astype(np.uint64) + n.astype(np.int64).view(np.uint64)
    return d, s - n, fits


def _decade_miss(d, frac, fits):
    """-1 where the product was below 10**18 (e too high), +1 where it was at
    least 10**19 (e too low), 0 where e was right."""
    low = (d < 10**18) | ((d == 10**18) & (frac < 0))
    high = ~fits | (d > 10**19) | ((d == 10**19) & (frac >= 0))
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
