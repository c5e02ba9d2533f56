"""CSV text of column slices, formatted in numpy.

Every column becomes fixed-width words of 4 bytes, NUL-padded, one word
column per slot: integers as a sign word and groups of three decimal
digits, floats as FLOAT_FMT in six words (sign, "d.dd", three groups of
three digits, "e+XX"), any other dtype as the UTF-8 text of str of each
cell. The word columns and the separators lie side by side in one
(rows, words) uint32 table, and the NULs are dropped from its bytes.

A float is printed through its exponent e, found among the powers of ten,
and its 12-digit mantissa m = rint(|x| * 10**(11 - e)); for -11 <= e <= 33
the power of ten is exact, so the scaled value is rounded once. Cells the
words cannot print exactly are printed by Python instead: a float whose
scaled mantissa lies within _TIE_MARGIN of a rounding tie, or that is
subnormal, non-finite or out of that range (about 1 in 2,000 ordinary
values), and an integer of 15 digits or more. The text is byte
for byte FLOAT_FMT and str.

The arithmetic is float64 numpy throughout, the digit tables' included:
numpy's integer division and log10 run code that no numeric stage runs,
and tables built from Python strings left 170 KiB of pages resident;
both count toward the process's peak resident memory.
"""

import functools

import numpy as np

FLOAT_FMT = "%.11e"  # 12 significant digits
# the scaled value is rounded once, to within half an ulp of 2**40 (about
# 6.1e-5), so a mantissa this far from a tie rounds as FLOAT_FMT rounds it
_TIE_MARGIN = 2.5e-4
# below this, float64 holds an integer exactly and splits it into groups
# of three digits exactly
_INT_LIMIT = 1e15


def _words(*chars) -> np.ndarray:
    """uint32 words of 4 columns of character codes, 0 for NUL."""
    return np.stack(chars, axis=1).astype(np.uint8).view(np.uint32).ravel()


@functools.lru_cache(maxsize=None)
def _tables() -> dict:
    """Digit words and powers of ten, built on first use."""
    v = np.arange(1000.0)
    d100, d10 = np.floor(v / 100), np.floor(v / 10)
    d1, d10, d100 = v - 10 * d10 + 48, d10 - 10 * d100 + 48, d100 + 48  # "0" is 48
    nul = np.zeros(1000)
    lead = (d100 * (v >= 100), d10 * (v >= 10))  # leading zeros as NUL
    padded = _words(d100, d10, d1, nul)
    e = np.arange(-11.0, 34.0)  # the fast float range; exp, mul and div are indexed by e + 11
    tens = np.floor(np.abs(e) / 10)
    return {
        # a group of 3 digits indexed by its value, + 1000 below a higher
        # group, where it is zero-padded; a lone 0 is "0" as the lowest
        # group and nothing above it
        "units": np.concatenate([_words(*lead, d1, nul), padded]),
        "groups": np.concatenate([_words(*lead, d1 * (v >= 1), nul), padded]),
        "padded": padded,
        "point": _words(d100, nul + ord("."), d10, d1),  # "d.dd"
        "exp": _words(e * 0 + ord("e"), np.where(e < 0, ord("-"), ord("+")), tens + 48,
                      np.abs(e) - 10 * tens + 48),
        "lower": np.array([float(f"1e{k}") for k in range(-10, 34)]),  # 10**e for e > -11
        "mul": np.array([float(10 ** max(11 - k, 0)) for k in range(-11, 34)]),
        "div": np.array([float(10 ** max(k - 11, 0)) for k in range(-11, 34)]),
    }


# a one-character word is its character code: its NULs are dropped
# wherever they lie
_MINUS, _COMMA, _NEWLINE = np.uint32(ord("-")), np.uint32(ord(",")), np.uint32(ord("\n"))


def _split(v):
    """(v // 1000, v % 1000 as an index) of integer-valued floats."""
    q = np.floor(v / 1000)
    return q, (v - 1000 * q).astype(np.intp)


def _patch(words, rows, cells):
    """Overwrite the given rows of the word columns with Python's text."""
    text = b"".join(c.encode().ljust(4 * len(words), b"\0") for c in cells)
    for w, fix in zip(words, np.frombuffer(text, np.uint32).reshape(-1, len(words)).T):
        w[rows] = fix


def _int_words(col) -> list:
    """Word columns of an integer column: the sign, then groups of 3 digits."""
    t = _tables()
    x = col.astype(np.float64)
    a = np.abs(x)
    exact = a < _INT_LIMIT
    rem = np.where(exact, a, 0.0)
    neg = x < 0
    words, low = [], []
    if neg.any():
        words.append(np.where(neg, _MINUS, np.uint32(0)))
    for g in range(-(-len(str(int(a.max()))) // 3) - 1):
        rem, r = _split(rem)
        low.append((t["units"] if g == 0 else t["groups"]).take(np.where(rem > 0, r + 1000, r)))
    words += [(t["groups"] if low else t["units"]).take(rem.astype(np.intp)), *low[::-1]]
    if not exact.all():
        big = np.flatnonzero(~exact)
        _patch(words, big, [str(v) for v in col[big].tolist()])
    return words


def _float_words(col) -> list:
    """Word columns of FLOAT_FMT: sign, "d.dd", 3 groups of 3 digits, "e+XX"."""
    t = _tables()
    x = col.astype(np.float64, copy=False)
    a = np.abs(x)
    e = t["lower"].searchsorted(a, side="right")  # e + 11, clamped to the fast range
    with np.errstate(invalid="ignore"):  # signalling NaNs, inf - inf
        s = a * t["mul"].take(e) / t["div"].take(e)
        m = np.rint(s)
        ok = (m >= 1e11) & (m < 1e12) & (np.abs(s - m) < 0.5 - _TIE_MARGIN)
    zero = a == 0  # mantissa 0 and exponent 0
    ok |= zero
    q, r3 = _split(np.where(ok, m, 1e11))
    q, r2 = _split(q)
    q, r1 = _split(q)
    words = [np.where(np.signbit(x), _MINUS, np.uint32(0)), t["point"].take(q.astype(np.intp)),
             *(t["padded"].take(r) for r in (r1, r2, r3)), t["exp"].take(np.where(zero, 11, e))]
    if not ok.all():
        bad = np.flatnonzero(~ok)
        _patch(words, bad, [FLOAT_FMT % v for v in x[bad].tolist()])
    return words


def _text_words(col) -> list:
    """Word columns of str of each cell, UTF-8, NUL-padded to one width."""
    cells = [str(v).encode() for v in col.tolist()]
    width = max(1, -(-max(map(len, cells)) // 4))
    text = b"".join(c.ljust(4 * width, b"\0") for c in cells)
    return list(np.frombuffer(text, np.uint32).reshape(-1, width).T)


_KIND_WORDS = {"i": _int_words, "u": _int_words, "f": _float_words}


def _word_table(cols) -> np.ndarray:
    """The (rows, words) table of the columns' words and the separators."""
    words = []
    for c in cols:
        words += [_COMMA] * bool(words) + _KIND_WORDS.get(c.dtype.kind, _text_words)(c)
    words.append(_NEWLINE)
    table = np.empty((len(cols[0]), len(words)), np.uint32)
    for k, w in enumerate(words):
        table[:, k] = w
    return table


def format_rows(cols) -> bytes:
    """The CSV text of equal-length, nonempty columns, each printed by its
    dtype kind; text cells hold no NUL. The word columns are freed before
    the table is copied out."""
    return _word_table(cols).tobytes().translate(None, b"\0")
