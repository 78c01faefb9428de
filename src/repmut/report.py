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


def write_csv(path, header: str, rows):
    """Write ``rows`` (equal-length rows or a 2-D array) under ``header``, by one
    ``%`` per table: text as it is, integers as digits, other numbers "%.17g"."""
    table = np.array(rows, dtype=object)  # a copy: a column of mixed kinds becomes text
    specs = []
    for col in table.T if table.ndim == 2 else ():  # ragged rows fail in the % below
        kinds = {_spec(tp) for tp in set(map(type, col))}
        if len(kinds) != 1:  # mixed, or no rows
            col[:], kinds = csv_text(col), {"%s"}
        specs.append(kinds.pop())
    line = ",".join(specs) + "\n"
    atomic_write_text(path, header + "\n" + line * len(table) % tuple(table.ravel().tolist()))


def csv_text(values) -> list:
    """Each value as ``write_csv`` writes it, to format a repeated one once."""
    return [_spec(type(v)) % v for v in values]


def _spec(tp) -> str:
    return "%s" if issubclass(tp, str) else "%d" if issubclass(tp, (int, np.integer)) else "%.17g"


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
