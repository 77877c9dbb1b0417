"""Artifact output: the one format and the one failure policy of every file
a command leaves under --out.

Rows are ASCII lines of a ``%``-style format with two conversions,
``%.17g`` (17 significant digits round-trip a double) and ``%d``; their
bytes equal Python's ``fmt % row``.  A file is written whole or not at
all, under a temporary name renamed onto it once whole, and the files of
one command are renamed together (see ``write``); a failure of the file
system, a fork or a worker is raised as ``OutputWriteError`` (exit 1).

A table of at most ``_SMALL`` values is formatted with ``%`` itself.
Larger ones come from an exact vectorised formatter.  Each field is built
as fixed NUL-padded uint64 words with numpy, over a pass of rows at a
time, and one ``bytearray.translate`` a pass drops the NULs:

* the 17 digits of ``%.17g`` come from a*10^(16-e) as a double-double,
  Dekker's exact product of a with a (hi, lo) table of 10^k; the rounding
  is certain unless the fraction is within 1e-6 of one half;
* the layout (fixed or scientific, the point, the stripped trailing
  zeros) is a word-wise select from small mask tables, with no per-byte
  gather;
* nan, inf and -inf are fixed words, like the literal text;
* a value the product does not certify (nonzero |x| outside [2^-200,
  2^200), a rounding near a tie), and ``%d`` of |x| >= 2^53, is
  formatted alone with ``%``; a pass with a ``%d`` of 17 digits or more,
  too long for its words, is formatted whole with ``%``.

Each thread keeps one pass's scratch, the word array and the buffer the
NULs are dropped from, and reuses it from pass to pass: about 2 MB for
the 31 words a row of ``mc_records.csv`` takes.  So a pass allocates only
its column temporaries and the bytes it returns.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from types import SimpleNamespace

import numpy as np

from .forkpool import PoolBroken
from .kernels import _split

__all__ = ["OutputWriteError", "row_chunks", "write"]

#: rows per pass: the temporaries of a column stay in the CPU cache
_PASS = 4096
#: a table of at most this many values (rows times columns) is formatted
#: with ``%`` itself, and the formatter's tables are never built: ``%``
#: is faster up to about 2k values once they are built, and up to about
#: 7k on a first call, which builds them (2-3 ms, 0.7 MB of peak RSS)
_SMALL = 4096
#: |x| in [2^-200, 2^200) (about 6.2e-61 to 1.6e60) has its digits
#: computed in double-double; a wider range buys nothing for the artifacts
#: and costs table build time on every first call
_E2_MIN, _E2_SPAN = -200, 400
#: exponents k of the double-double table of 10^k, and of the tables
#: indexed by the decimal exponent of a value
_K_LO, _K_HI = -64, 80
#: a rounding is trusted when the fraction is this far from one half
_TIE = 0.5 - 1e-6
#: %.17g of nan (of either sign), inf and -inf, as little-endian words
_NAN, _INF, _NEG_INF = (int.from_bytes(w, "little") for w in (b"nan", b"inf", b"-inf"))
#: this thread's scratch of ``_pass``: its word array, grown to the
#: largest pass, and its compaction buffer
_scratch = threading.local()


class OutputWriteError(RuntimeError):
    """An output file could not be written; no partial file is left (exit 1)."""


def row_chunks(fmt: str, *columns):
    """The lines fmt % row, one per row of the equal-length columns, as
    consecutive ASCII byte pieces of at most _PASS rows, each formatted
    when it is taken, so that ``write`` never holds the whole table; a
    table of at most _SMALL values is one piece.  fmt holds literal text,
    ``%.17g``, ``%d`` and ``%%``; the columns take their common numpy type,
    as one stacked block would, so a %d of a float column prints
    int(value).

    The bytes equal ``%`` for every value.  Past _SMALL values the
    vectorised formatter takes about 0.1 us a field on one core, a quarter
    of what ``%`` takes (the rows of a 200k-trial closed run, pass by
    pass, on a 2-CPU Xeon with Python 3.11 and numpy 2.4).
    """
    layout = _layout(fmt)
    convs = [conv for conv, _ in layout if conv is not None]
    cols = [np.asarray(c) for c in columns]
    if len(cols) != len(convs):
        raise TypeError(f"row_chunks: {len(convs)} conversions in {fmt!r}, "
                        f"{len(cols)} columns")
    if not cols or any(c.ndim != 1 or len(c) != len(cols[0]) for c in cols):
        raise ValueError("row_chunks needs 1-D columns of one length")
    kind = np.result_type(*cols)
    if kind.kind not in "biuf" or kind.itemsize > 8:
        raise TypeError(f"row_chunks formats real numbers, got {kind}")
    cols = [c.astype(kind, copy=False) for c in cols]
    if len(cols) * len(cols[0]) <= _SMALL:
        yield _percent(fmt, cols)
        return
    t = _tables()
    for s in range(0, len(cols[0]), _PASS):
        yield _pass(t, fmt, layout, [c[s:s + _PASS] for c in cols])


def _percent(fmt: str, cols) -> bytes:
    """The rows of the columns formatted with ``%`` itself."""
    return "".join([fmt % row for row in zip(*[c.tolist() for c in cols])]).encode()


def write(files) -> None:
    """Write files, a mapping of each path to its byte chunks, as one
    commit: every path whole, or none of them.

    Each path's chunks go to ``<path>.tmp``, path after path, so a later
    path's chunks may rest on what an earlier path's computed.  Once every
    temporary file is whole, each is renamed onto its path.  A failed or
    killed run leaves every previous path as it was, and a killed one
    leaves at most those strays, which the next write reuses; only a crash
    between two renames, or a rename that fails (a path that is a
    directory), splits a commit.

    chunks may be a generator that computes each chunk as it is written;
    if the write fails it is closed first, so a worker pool it holds is
    shut down before the partial file is removed.  Any exception removes
    every temporary file; an OSError or a broken worker pool is raised as
    OutputWriteError, anything else unchanged.
    """
    pending = []    # (temporary file, path) pairs written, not yet renamed
    try:
        for path, chunks in files.items():
            pending.append((_write_tmp(path, chunks), path))
        while pending:
            tmp, path = pending[0]
            try:
                os.replace(tmp, path)
            except OSError as e:
                raise OutputWriteError(f"cannot write {path}: {e.strerror or e}") from e
            del pending[0]
    finally:
        for tmp, _ in pending:
            os.remove(tmp)


def _write_tmp(path, chunks) -> str:
    """The chunks written to ``<path>.tmp``, whose name is returned; a
    failure removes the partial file (see ``write``)."""
    tmp = f"{path}.tmp"
    try:
        fh = open(tmp, "wb")
    except OSError as e:
        raise OutputWriteError(f"cannot write {tmp}: {e.strerror or e}") from e
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
                del chunk   # not held while the next chunk is computed
    except BaseException as e:
        if hasattr(chunks, "close"):
            chunks.close()
        os.remove(tmp)
        if isinstance(e, (OSError, PoolBroken)):
            raise OutputWriteError(
                f"writing {path} failed ({type(e).__name__}: {e}); the partial "
                "file was removed") from e
        raise
    return tmp


# --------------------------------------------------------------------------
# the formatter


def _residual(k: int, hi: float) -> float:
    """10^k - hi, correctly rounded (int / int true division is)."""
    n, d = hi.as_integer_ratio()
    if k >= 0:
        return (10 ** k * d - n) / d
    return (d - n * 10 ** -k) / (d * 10 ** -k)


@functools.cache
def _tables() -> SimpleNamespace:
    """The lookup tables, built on first use.  pow10 has one row per index,
    so that a single take gathers what a value needs; by_x, area and lead
    have one row per word, so that a take along axis 1 gathers contiguous
    word rows.  The small ones are built in Python: the pages of numpy
    code that only this function ran would stay resident, and count in
    the peak RSS of every command that writes a table.

    Words hold bytes little-endian: byte i of a field is bits 8i..8i+7.
    """
    pow10, thr = [], []
    for k in range(_K_LO, _K_HI + 1):
        hi = float(f"1e{k}")
        lo = _residual(k, hi)
        pow10.append((hi, *_split(hi), lo))    # split for Dekker's exact product
        thr.append(math.nextafter(hi, math.inf) if lo > 0 else hi)  # least >= 10^k

    # per decimal exponent X of a %.17g value: 17 times the point's place
    # q in the digit area (17: no point there, it is in the head), the
    # head after the sign and the exponent tail
    by_x = []
    for x in range(_K_LO, _K_HI + 1):
        fixed = -4 <= x <= 16
        q = (17 if x < 0 else x) if fixed else 0
        head = b"0." + b"0" * (-x - 1) if fixed and x < 0 else b""
        tail = b"" if fixed else b"e%+03d" % x
        by_x.append((17 * q, int.from_bytes(head, "little") << 8,
                     int.from_bytes(tail, "little") << 16))

    # the digit area (17 digits and a point, 24 bytes) for the point after
    # digit q and the last nonzero digit `last`: the bytes kept from the
    # digits (ma), from the digits shifted one byte (ms) and the point (pt),
    # each as three words; low[n] is 0xFF in bytes 0..n-1
    low = [(1 << 8 * n) - 1 for n in range(25)]
    ma, ms, pt = [], [], []
    for q in range(18):
        for last in range(17):
            point = q < 17 and last > q
            ma.append(low[q + 1 if q < 17 else last + 1])
            ms.append(low[last + 2] ^ low[q + 2] if point else 0)
            pt.append((low[q + 2] ^ low[q + 1]) // 0xFF * 0x2E if point else 0)

    def words(masks):
        return np.frombuffer(b"".join(m.to_bytes(24, "little") for m in masks),
                             "<u8").reshape(-1, 3)

    # 4-digit groups: ASCII words, and the place of the last nonzero
    # digit, broadcast from one digit an axis
    digits = [np.arange(10).reshape((10,) + (1,) * (3 - i)) for i in range(4)]
    place = np.full(1, -99)
    for i, d in enumerate(digits):
        place = np.where(d == 0, place, i)

    return SimpleNamespace(
        pow10=np.array(pow10), thr=np.array(thr),
        ascii4=sum((d + 0x30) * 256 ** i for i, d in enumerate(digits))
        .ravel().view(np.uint64),
        place=place.ravel(),
        by_x=np.array(by_x, dtype=np.uint64).T.copy(),
        area=np.stack([words(ma), words(ms), words(pt)], axis=2).reshape(-1, 9)
        .T.copy(),
        # %d: byte 0 holds the sign, bytes 1..16 the digits; row nd - 1
        # keeps the last nd of them
        lead=words(low[1] | low[17] ^ low[17 - nd] for nd in range(1, 17)).T.copy(),
        p10=np.array([10 ** j for j in range(1, 16)]))


def _digit_words(t, b0, r):
    """Words 0-2 of byte b0 followed by the 16 digits of r (int64 < 10^16),
    and r's four 4-digit groups."""
    h = r // 100_000_000
    lo = r - h * 100_000_000
    g1 = h // 10000
    g3 = lo // 10000
    groups = (g1, h - g1 * 10000, g3, lo - g3 * 10000)
    w1, w2, w3, w4 = (t.ascii4.take(g) for g in groups)
    return (b0 | w1 << 8 | w2 << 40, w2 >> 24 | w3 << 8 | w4 << 40,
            w4 >> 24, groups)


def _g_words(t, x, out, lit):
    """%.17g of the float64 values x into the four word rows of out: the
    head (sign, "0.000"), the digit area and its tail (exponent, then lit,
    at most one byte).  Returns the indices left to ``%``: nonzero |x|
    outside [2^-200, 2^200) and roundings within 1e-6 of a tie.
    """
    bits = x.view(np.uint64)
    e2 = (bits >> 52 & 0x7FF).view(np.int64) - 1023
    ok = (e2 - _E2_MIN).view(np.uint64) < _E2_SPAN
    a = np.where(ok, np.abs(x), 1.0)
    # the decimal exponent: floor(e2*log10(2)), then the exact test a >= 10^(e+1)
    e = np.where(ok, (e2 * 78913) >> 18, 0)
    e += a >= t.thr.take(e + (1 - _K_LO))
    # a*10^(16-e) as p + r, exact to 2^-104: Dekker's product with the
    # double-double (hi, lo); p >= 10^16 > 2^53 is an integer
    hi, hh, hl, lo = t.pow10.take((16 - _K_LO) - e, axis=0).T
    p = a * hi
    ah, al = _split(a)
    r = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo
    q = np.rint(r)
    tie = np.abs(r - q) >= _TIE
    d = (p.astype(np.int64) + q.astype(np.int64)) * ok
    top = np.flatnonzero(d == 10 ** 17)
    d[top] = 10 ** 16
    e[top] += 1
    d0 = d // 10 ** 16
    w0, w1, w2, groups = _digit_words(t, (d0 + 0x30).view(np.uint64),
                                      d - d0 * 10 ** 16)
    last = t.place.take(groups[3]) + 13
    few = np.flatnonzero(last < 0)
    if few.size:
        last[few] = np.maximum.reduce(
            [t.place.take(g[few]) + k for g, k in zip(groups, (1, 5, 9, 13))]
            + [np.zeros(few.size, np.int64)])
    q17, head, tail = t.by_x.take(e - _K_LO, axis=1)
    area = t.area.take(q17.view(np.int64) + last, axis=1)
    s0 = w0 << 8
    s1 = w1 << 8 | w0 >> 56
    s2 = w2 << 8 | w1 >> 56
    np.bitwise_or(head, (bits >> 63) * 0x2D, out=out[0])
    for j, (w, s) in enumerate(((w0, s0), (w1, s1), (w2, s2))):
        ma, ms, pt = area[3 * j:3 * j + 3]
        np.bitwise_or(w & ma | s & ms, pt, out=out[j + 1])
    out[3] |= tail | lit << 56
    special = e2 == 1024     # nan and inf: fixed words
    if special.any():
        i = np.flatnonzero(special)
        out[0, i] = np.where(np.isnan(x[i]), _NAN,
                             np.where(x[i] > 0, _INF, _NEG_INF))
        out[1:3, i] = 0
        out[3, i] = np.uint64(lit << 56)
    return np.flatnonzero(~ok & ~special & (x != 0) | tie)


def _d_words(t, x, out, lit):
    """%d of the float64 values x into the three word rows of out: the sign,
    16 digit places and lit (at most seven bytes).  Returns the indices
    left to ``%``: |x| >= 2^53, nan and inf."""
    ok = np.abs(x) < 2.0 ** 53
    v = np.trunc(np.where(ok, x, 0.0)).astype(np.int64)
    m = np.abs(v)
    row = np.searchsorted(t.p10, m, side="right")    # digits of m, less one
    w0, w1, w2, _ = _digit_words(t, (v < 0).astype(np.uint64) * 0x2D, m)
    np.bitwise_and(w0, t.lead[0].take(row), out=out[0])
    np.bitwise_and(w1, t.lead[1].take(row), out=out[1])
    np.bitwise_or(w2 & t.lead[2].take(row), lit << 8, out=out[2])
    return np.flatnonzero(~ok)


#: per conversion: (words of a field, spare bytes for the next literal, kernel)
_FIELDS = {"%.17g": (4, 1, _g_words), "%d": (3, 7, _d_words)}


@functools.lru_cache(maxsize=32)
def _layout(fmt: str):
    """fmt as a list of (conversion, literal) items: a conversion with the
    bytes of the literal after it that fit its spare bytes, or (None, a
    literal) that takes whole NUL-padded words."""
    if "\0" in fmt:
        raise ValueError("row_chunks cannot write a NUL byte")
    first, *rest = fmt.replace("%%", "\0").split("%")
    layout = [(None, first.replace("\0", "%").encode())] if first else []
    for part in rest:
        conv = next((c for c in _FIELDS if part.startswith(c[1:])), None)
        if conv is None:
            raise ValueError(f"row_chunks formats only %.17g and %d, got {fmt!r}")
        data = part[len(conv) - 1:].replace("\0", "%").encode()
        spare = _FIELDS[conv][1]
        layout.append((conv, data[:spare]))
        if data[spare:]:
            layout.append((None, data[spare:]))
    return layout


def _pass(t, fmt, layout, cols) -> bytes:
    """The rows of one pass: every field's words, the values left to ``%``
    written into theirs, then the NULs dropped.  A value whose text is too
    long for its words (a %d of 17 digits or more) sends the whole pass
    to ``%``."""
    n = len(cols[0])
    spans = []
    n_words = 0
    for conv, data in layout:
        size = _FIELDS[conv][0] if conv else -(-len(data) // 8)
        spans.append((n_words, size))
        n_words += size
    W = getattr(_scratch, "words", None)
    if W is None or W.size < n_words * n:
        W = _scratch.words = np.empty(n_words * n, dtype=np.uint64)
    W = W[:n_words * n].reshape(n_words, n)
    col = iter(cols)
    for (conv, data), (w, size) in zip(layout, spans):
        if conv is None:
            W[w:w + size] = np.frombuffer(data.ljust(8 * size, b"\0"),
                                          "<u8")[:, None]
            continue
        c = next(col)
        lit = int.from_bytes(data, "little")
        for i in _FIELDS[conv][2](t, c.astype(np.float64, copy=False),
                                  W[w:w + size], lit).tolist():
            text = (conv % c[i].item()).encode() + data
            if len(text) > 8 * size:
                return _percent(fmt, cols)
            W[w:w + size, i] = np.frombuffer(text.ljust(8 * size, b"\0"), "<u8")
    return _compact(W)


def _compact(W) -> bytearray:
    """The row-major bytes of the word columns W, less the words NUL in
    every row, with the NULs dropped.  They are laid out in this thread's
    scratch buffer, which the returned bytes do not share."""
    keep = np.flatnonzero(W.any(axis=1)).tolist()
    size = 8 * len(keep) * W.shape[1]
    buf = _scratch.__dict__.setdefault("buf", bytearray())
    if len(buf) < size:
        buf += bytes(size - len(buf))
    del buf[size:]
    out = np.frombuffer(buf, "<u8").reshape(W.shape[1], len(keep))
    for j, w in enumerate(keep):
        out[:, j] = W[w]
    del out     # a buffer with an export cannot be resized
    return buf.translate(None, b"\0")
