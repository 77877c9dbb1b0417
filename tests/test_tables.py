"""bioctl.tables.row_chunks against the whole-block ``%`` builder it replaced:
the same bytes for every float64 bit pattern, the same exception for a
value ``%d`` cannot take, and an exact double-double table of 10^k; and
``tables.write``'s commit by rename."""

import os
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bioctl import tables
from helpers import rows_reference

RECORDS = "%d" + ",%.17g" * 6 + ",closed,%d\n"
#: the crossover of row_chunks: tables of at most this many values use ``%``
SMALL = tables._SMALL


@pytest.fixture(autouse=True, scope="module")
def kernel_only():
    """Every test here runs the vectorised kernel, however small its table;
    the tests of the crossover put the ``%`` path back themselves."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tables, "_SMALL", 0)
        yield


def _rows(fmt, *columns) -> bytes:
    """The whole table, joined from its row_chunks."""
    return b"".join(tables.row_chunks(fmt, *columns))


def same_as_percent(fmt, *columns):
    """_rows and the reference give equal bytes, or raise the same type."""
    try:
        want = rows_reference(fmt, *columns)
    except (ValueError, OverflowError) as e:
        with pytest.raises(type(e)):
            _rows(fmt, *columns)
        return
    got = _rows(fmt, *columns)
    if got != want:
        for g, w in zip(got.split(b"\n"), want.split(b"\n")):
            assert g == w
    assert got == want


def with_neighbours(values):
    x = np.array(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        x = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
    return np.concatenate([x, -x])


# any bit pattern, or one whose exponent lies in the range the vectorised
# digits cover (2^-200 to 2^200) rather than in the formatter's fallback
_ANY_BITS = st.integers(0, 2 ** 64 - 1)
_COVERED_BITS = st.builds(lambda sign, exp, frac: sign << 63 | exp << 52 | frac,
                          st.integers(0, 1), st.integers(1023 - 200, 1023 + 199),
                          st.integers(0, 2 ** 52 - 1))


def float_bits(n_cols):
    return arrays(np.uint64, st.tuples(st.integers(1, 40), st.just(n_cols)),
                  elements=st.one_of(_ANY_BITS, _COVERED_BITS))


@given(float_bits(3))
def test_any_float64_bit_pattern(bits):
    x = bits.view(np.float64)
    same_as_percent("%.17g,%.17g;%.17g\n", *x.T)


@given(float_bits(3))
def test_any_bit_pattern_in_a_record_row(bits):
    x = bits.view(np.float64)
    same_as_percent("%d %.17g%%|%d\n", *x.T)
    same_as_percent(RECORDS, np.arange(len(x)), *np.tile(x, 2).T,
                    np.zeros(len(x), bool))


def test_powers_of_ten_and_their_neighbours():
    x = with_neighbours([float(f"1e{k}") for k in range(-300, 301)])
    same_as_percent("%.17g\n", x)


def test_notation_switches_and_the_certified_range():
    x = with_neighbours([1e-5, 1e-4, 1e16, 1e17, 1e-280, 1e280, 2.0 ** -200,
                         2.0 ** 200, 5e-324,
                         2.2250738585072014e-308, 1.7976931348623157e308,
                         9.999999999999999e15, 9.9999999999999999e16,
                         0.0, 123456789012345678.0])
    same_as_percent("%.17g,%.17g\n", x, x[::-1])


def test_ties_round_half_even():
    # m / 2^24 and m / 2^25 are exact ties at 17 digits whose power of ten
    # (10^23, 10^24) is not a double
    ties = [1000000000000000.25, 1000000000000000.75, 100000000000000.125,
            100000000000000.375, 0.5, 2.5,
            *(m * 2.0 ** -24 for m in range(3, 16, 2)), 2.0 ** -25, 3 * 2.0 ** -25]
    assert _rows("%.17g\n", ties[:2]) == \
        b"1000000000000000.2\n1000000000000000.8\n"
    same_as_percent("%.17g\n", with_neighbours(ties))


def test_d_of_bools_negatives_and_large_values():
    floats = [-0.0, -0.5, 0.5, -1.0, -7.9, 2.0 ** 53 - 1, 2.0 ** 53,
              2.0 ** 53 + 2, -(2.0 ** 53) - 2, 1e300, -1e300, 1e22, 1e23]
    same_as_percent("%d\n", floats)
    same_as_percent("%d,%.17g\n", [True, False, True], [1.5, -2.0, 0.0])
    # a %d too long for its words, at pass boundaries and inside a pass
    x = np.arange(10_000, dtype=np.float64)
    x[[0, 4095, 4096, 5000, 9999]] = [1e300, -1e300, 1e25, -2e30, 1e308]
    same_as_percent("%d;%.17g\n", x, x / 3)


def test_integer_and_bool_blocks():
    ints = np.array([0, -1, 2 ** 53 + 1, -(2 ** 62) - 3, 2 ** 63 - 1, 7])
    same_as_percent("%d,%.17g\n", ints, ints)
    same_as_percent("%d %d\n", np.array([True, False]), np.array([False, True]))
    same_as_percent("%.17g\n", np.array([2 ** 64 - 1, 2 ** 53 + 1], np.uint64))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_d_of_nan_or_inf_raises_as_percent(bad):
    same_as_percent("%d\n", [1.0, bad, 2.0])
    same_as_percent("%.17g,%d\n", [bad, 1.0], [3.0, bad])


@pytest.mark.parametrize("special", [np.nan, -np.nan, np.inf, -np.inf])
def test_nan_and_inf_are_fixed_words(special):
    for pos in range(3):
        cols = [np.linspace(-2.0, 2.0, 9) for _ in range(3)]
        cols[pos][::2] = special
        same_as_percent("%.17g,%.17g;%.17g\n", *cols)
        same_as_percent("%d %.17g%.17g|", np.arange(9), cols[pos], cols[pos - 1])
        same_as_percent("%.17g\u00e9%.17g%.17g", *cols)
    # none of them goes to the per-value fallback; 1e300 (outside the
    # certified range) still does
    x = np.array([special, 1.0, special, -0.0, 1e300, special])
    out = np.zeros((4, len(x)), np.uint64)
    assert tables._g_words(tables._tables(), x, out, ord(",")).tolist() == [4]


def test_literals_and_pass_boundaries():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((9000, 3)) * 10.0 ** rng.integers(-80, 80, (9000, 3))
    x[::97] = 0.0
    x[5::101] = np.nan
    same_as_percent("<%.17g>, long literal text é %%, %d;%.17g\n", *x.T)
    same_as_percent("%.17g%.17g%d", *x[:50].T)
    same_as_percent("%%%d%.17gé%%%.17g%%", *x[:50].T)
    assert _rows("%.17g\n", np.array([])) == b""


def test_special_values_leave_the_other_rows_of_a_pass_alone():
    # a pass wholly inside [2^-200, 2^200), and the same pass with a zero,
    # a nan and an out-of-range value appended: equal words on the shared rows
    rng = np.random.default_rng(3)
    x = rng.standard_normal(4000) * 10.0 ** rng.integers(-50, 50, 4000)
    assert ((2.0 ** -200 <= np.abs(x)) & (np.abs(x) < 2.0 ** 200)).all()
    special = np.concatenate([x, [0.0, np.nan, 1e300]])
    t = tables._tables()
    words = [np.zeros((4, len(v)), np.uint64) for v in (x, special)]
    left = [tables._g_words(t, v, w, ord("\n")).tolist()
            for v, w in zip((x, special), words)]
    assert np.array_equal(words[1][:, :len(x)], words[0])
    assert left[1] == left[0] + [len(x) + 2]     # 1e300, and the same ties
    plain, with_special = _rows("%.17g\n", x), _rows("%.17g\n", special)
    assert with_special.startswith(plain)
    assert plain == rows_reference("%.17g\n", x)
    assert with_special == rows_reference("%.17g\n", special)


def test_threads_formatting_at_once_each_get_their_own_bytes():
    # each thread formats its passes in scratch of its own: more threads
    # than cores, switched often, on tables of different shapes
    rng = np.random.default_rng(5)
    work = [(RECORDS, np.arange(9000), *rng.standard_normal((6, 9000)),
             rng.random(9000) < 0.5),
            ("%.17g;%d\n", rng.standard_normal(20_000) * 1e9,
             rng.integers(-10 ** 12, 10 ** 12, 20_000)),
            ("%d\n", rng.integers(-10 ** 15, 10 ** 15, 12_000)),
            ("<%.17g>%.17g\n", *rng.standard_normal((2, 5000)) * 1e-30)]
    want = [rows_reference(*w) for w in work]
    got = [[] for _ in work]
    start = threading.Barrier(len(work))

    def format_(i):
        start.wait()
        for _ in range(4):
            got[i].append(_rows(*work[i]))

    threads = [threading.Thread(target=format_, args=(i,)) for i in range(len(work))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 4 for w in want]


def test_records_of_a_closed_run(mc_run_200k):
    trials, _ = mc_run_200k
    cols = [getattr(trials, c)[:20_000] for c in
            ("T", "t0", "z0", "Pi", "T1", "deviation", "failed")]
    same_as_percent(RECORDS, np.arange(20_000), *cols)


def test_unsupported_formats_are_refused():
    with pytest.raises(ValueError):
        _rows("%.3f\n", [1.0])
    with pytest.raises(ValueError):
        _rows("%d\0\n", [1.0])
    with pytest.raises(TypeError):
        _rows("%d,%d\n", [1.0])


def test_the_table_of_powers_of_ten_is_exact():
    t = tables._tables()
    for i, k in enumerate(range(tables._K_LO, tables._K_HI + 1)):
        hi, lo = float(t.pow10[i, 0]), float(t.pow10[i, 3])
        exact = Fraction(10) ** k
        assert hi == float(exact)   # Fraction -> float rounds correctly
        assert abs(Fraction(hi) + Fraction(lo) - exact) <= exact / 2 ** 104
        assert t.pow10[i, 1] + t.pow10[i, 2] == hi


def _mixed_columns(n_rows):
    """An int, a float, a bool and a float column of n_rows, the floats
    holding nan, inf, -inf, -0.0 and values across the certified range."""
    rng = np.random.default_rng(n_rows)
    x = rng.standard_normal((2, n_rows)) * 10.0 ** rng.integers(-30, 30, (2, n_rows))
    x[:, ::7] = np.nan
    x[:, 1::7] = np.inf
    x[:, 2::7] = -np.inf
    x[:, 3::7] = -0.0
    return [np.arange(n_rows) - n_rows // 2, x[0], rng.random(n_rows) < 0.5, x[1]]


@pytest.mark.parametrize("extra_rows, path", [(0, "%"), (1, "kernel")])
def test_small_tables_use_percent_and_larger_ones_the_kernel(monkeypatch, extra_rows,
                                                            path):
    monkeypatch.setattr(tables, "_SMALL", SMALL)
    fmt = "%d,%.17g%%|%d;%.17g\n"
    cols = _mixed_columns(SMALL // 4 + extra_rows)
    passes = []
    kernel_pass = tables._pass
    monkeypatch.setattr(tables, "_pass", lambda *a: passes.append(1) or kernel_pass(*a))
    assert _rows(fmt, *cols) == rows_reference(fmt, *cols)
    assert bool(passes) == (path == "kernel")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_small_tables_raise_as_percent(monkeypatch, bad):
    monkeypatch.setattr(tables, "_SMALL", SMALL)
    same_as_percent("%d\n", [1.0, bad])


@pytest.mark.parametrize("n_rows, n_chunks", [(SMALL // 4, 1), (2 * tables._PASS + 1, 3)])
def test_row_chunks_are_the_rows_in_passes(monkeypatch, n_rows, n_chunks):
    monkeypatch.setattr(tables, "_SMALL", SMALL)
    fmt = "%d,%.17g%%|%d;%.17g\n"
    cols = _mixed_columns(n_rows)
    chunks = list(tables.row_chunks(fmt, *cols))
    assert len(chunks) == n_chunks
    assert all(chunk.count(b"\n") <= tables._PASS for chunk in chunks)
    assert b"".join(chunks) == rows_reference(fmt, *cols)


def test_write_replaces_the_file_only_once_whole(tmp_path):
    path = tmp_path / "table.csv"
    path.write_bytes(b"previous\n")

    def fails_late():
        yield b"header\n"
        raise KeyError("planted")

    with pytest.raises(KeyError):
        tables.write({path: fails_late()})
    assert path.read_bytes() == b"previous\n"
    assert os.listdir(tmp_path) == ["table.csv"]
    tables.write({path: [b"header\n", b"row\n"]})
    assert path.read_bytes() == b"header\nrow\n"
    assert os.listdir(tmp_path) == ["table.csv"]


def test_write_commits_every_file_or_none(tmp_path):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    first.write_bytes(b"previous first\n")
    second.write_bytes(b"previous second\n")
    written = []

    def after_first():
        # a later file's chunks are taken once the earlier file is whole
        written.append((tmp_path / "first.csv.tmp").read_bytes())
        yield b"second\n"
        raise KeyError("planted")

    with pytest.raises(KeyError):
        tables.write({first: [b"first\n"], second: after_first()})
    assert written == [b"first\n"]
    assert first.read_bytes() == b"previous first\n"
    assert second.read_bytes() == b"previous second\n"
    assert sorted(os.listdir(tmp_path)) == ["first.csv", "second.csv"]
    tables.write({first: [b"first\n"], second: [b"second\n"]})
    assert (first.read_bytes(), second.read_bytes()) == (b"first\n", b"second\n")
    assert sorted(os.listdir(tmp_path)) == ["first.csv", "second.csv"]
