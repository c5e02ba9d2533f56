"""CSV text of column slices, formatted in numpy.

Every column becomes fixed-width words of 4 bytes, NUL-padded, one word
column per slot, its separator ("," or, last, "\\n") in its last word:
integers as a sign word and groups of three decimal digits, the lowest
group with the separator ("ddd,"); floats as FLOAT_FMT in five words
("-d." or "d.", "dddd", "dddd", "ddde", "+XX,"); any other dtype as the
UTF-8 text of str of each cell and the separator. The word columns lie
side by side in one (rows, words) uint32 table, and the NULs are dropped
from its bytes. A barrier.csv row (i, j, h) is 7 words.

A float is printed through its exponent e, found among the powers of ten,
and its 12-digit mantissa m = rint(|x| * 10**(11 - e)); for -11 <= e <= 33
the power of ten is exact, so the scaled value is rounded once. Cells the
words cannot print exactly are printed by Python instead, with their
separator: a float whose scaled mantissa lies within _TIE_MARGIN of a
rounding tie, or that is subnormal, non-finite or out of that range
(about 1 in 2,000 ordinary values; FLOAT_FMT's 19 characters at most and
the separator fill the five words), and an integer of 15 digits or more.
The text is byte for byte FLOAT_FMT and str.

The arithmetic is float64 numpy. The digit tables (every zero-padded
string of 3 or 4 digits, indexed by its value) are a uint8 meshgrid of
character codes viewed as uint32, masked with np.where, and the words
that end a column have one table per separator. A CSV may be written at
a run's high-water mark, so each choice keeps the peak resident memory
down: numpy's integer division, log10, uint8 arithmetic and uint32
bitwise or each fault in library code that no numeric stage runs (64
KiB a routine), tables built from Python strings left 170 KiB of pages
resident, and float64 scratch tables add to the heap. The tables (70
KiB) are built once a file and passed to format_rows, so that the stages
that run between files do not hold them.
"""

import numpy as np

FLOAT_FMT = "%.11e"  # 12 significant digits
# the scaled value is rounded once, to within half an ulp of 2**40 (about
# 6.1e-5), so a mantissa this far from a tie rounds as FLOAT_FMT rounds it
_TIE_MARGIN = 2.5e-4
# below this, float64 holds an integer exactly and splits it into groups
# of three digits exactly
_INT_LIMIT = 1e15


def _words(*chars) -> np.ndarray:
    """uint32 words of 4 equal-shape uint8 arrays of character codes, 0 for NUL."""
    return np.stack(chars, axis=-1).view(np.uint32).ravel()


def _text(cells) -> np.ndarray:
    """uint32 words of short strings, each NUL-padded to one word."""
    return np.frombuffer("".join(c.ljust(4, "\0") for c in cells).encode(), np.uint32)


def digit_tables() -> dict:
    """Digit words and powers of ten for format_rows; the words that end a
    column are keyed by separator."""
    # the digit codes of 0..9999, thousands first; "0" is 48
    quad = np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij")
    d100, d10, d1 = (d[0] for d in quad[1:])  # the digits of 0..999
    nul = np.zeros_like(d1)
    some = (d100 > 48) | (d10 > 48)  # >= 10
    lead = np.where(d100 > 48, d100, nul), np.where(some, d10, nul)  # leading zeros as NUL

    def groups(ones, last):
        return np.concatenate([_words(*lead, ones, last), _words(d100, d10, d1, last)])

    return {
        # a group of 3 digits indexed by its value, + 1000 below a higher
        # group, where it is zero-padded; a lone 0 is "0" as the lowest
        # group, which ends in the separator, and nothing above it
        "units": {sep: groups(d1, np.full_like(d1, ord(sep))) for sep in ",\n"},
        "groups": groups(np.where(some | (d1 > 48), d1, nul), nul),
        "quad": _words(*quad),  # "dddd"
        "tail": _words(d100, d10, d1, np.full_like(d1, ord("e"))),  # "ddde"
        # "d." indexed by the digit, + 10 for "-d."
        "lead": _text([f"{s}{d}." for s in ("", "-") for d in range(10)]),
        # "+XX" and the separator for e = -11..33, indexed by e + 11
        "exp": {sep: _text([f"{e:+03d}{sep}" for e in range(-11, 34)]) for sep in ",\n"},
        "lower": np.array([float(f"1e{k}") for k in range(-10, 34)]),  # 10**e for e > -11
        "mul": np.array([float(10 ** max(11 - k, 0)) for k in range(-11, 34)]),
        "div": np.array([float(10 ** max(k - 11, 0)) for k in range(-11, 34)]),
    }


def _split(v, base):
    """(v // base, v % base as an index) of integer-valued floats."""
    q = np.floor(v / base)
    return q, (v - base * q).astype(np.intp)


def _patch(words, rows, cells, sep):
    """Overwrite the given rows of the word columns with Python's text and sep."""
    text = b"".join((c + sep).encode().ljust(4 * len(words), b"\0") for c in cells)
    for w, fix in zip(words, np.frombuffer(text, np.uint32).reshape(-1, len(words)).T):
        w[rows] = fix


def _int_words(col, sep, t) -> list:
    """Word columns of an integer column: the sign, then groups of 3 digits,
    the lowest with sep."""
    x = col.astype(np.float64)
    lo, hi = x.min(), x.max()
    top = max(-lo, hi)  # the largest magnitude
    a = np.abs(x) if lo < 0 else x
    rem = np.where(a < _INT_LIMIT, a, 0.0) if top >= _INT_LIMIT else a
    words, low = [], []
    if lo < 0:
        words.append(np.where(x < 0, np.uint32(ord("-")), np.uint32(0)))
    units = t["units"][sep]
    for g in range(-(-len(str(int(top))) // 3) - 1):
        rem, r = _split(rem, 1000)
        low.append((units if g == 0 else t["groups"]).take(np.where(rem > 0, r + 1000, r)))
    words += [(t["groups"] if low else units).take(rem.astype(np.intp)), *low[::-1]]
    if top >= _INT_LIMIT:
        big = np.flatnonzero(a >= _INT_LIMIT)
        _patch(words, big, [str(v) for v in col[big].tolist()], sep)
    return words


def _float_words(col, sep, t) -> list:
    """Word columns of FLOAT_FMT: "-d.", "dddd", "dddd", "ddde", "+XX" and sep."""
    x = col.astype(np.float64, copy=False)
    a = np.abs(x)
    e = t["lower"].searchsorted(a, side="right")  # e + 11, clamped to the fast range
    with np.errstate(invalid="ignore"):  # signalling NaNs, inf - inf
        s = a * t["mul"].take(e) / t["div"].take(e)
        m = np.rint(s)
        ok = (m >= 1e11) & (m < 1e12) & (np.abs(s - m) < 0.5 - _TIE_MARGIN)
    zero = a == 0  # mantissa 0 and exponent 0
    ok |= zero
    q, r3 = _split(np.where(ok, m, 1e11), 1000)
    q, r2 = _split(q, 1e4)
    q, r1 = _split(q, 1e4)
    words = [t["lead"].take((q + 10.0 * np.signbit(x)).astype(np.intp)), t["quad"].take(r1),
             t["quad"].take(r2), t["tail"].take(r3),
             t["exp"][sep].take(np.where(zero, 11, e))]
    if not ok.all():
        bad = np.flatnonzero(~ok)
        _patch(words, bad, [FLOAT_FMT % v for v in x[bad].tolist()], sep)
    return words


def _text_words(col, sep, t) -> list:
    """Word columns of str of each cell and sep, UTF-8, NUL-padded to one width."""
    cells = [(str(v) + sep).encode() for v in col.tolist()]
    width = -(-max(map(len, cells)) // 4)
    text = b"".join(c.ljust(4 * width, b"\0") for c in cells)
    return list(np.frombuffer(text, np.uint32).reshape(-1, width).T)


_KIND_WORDS = {"i": _int_words, "u": _int_words, "f": _float_words}


def _word_table(cols, t) -> np.ndarray:
    """The (rows, words) table of the columns' words, separators included."""
    words = []
    for k, c in enumerate(cols):
        sep = "\n" if k == len(cols) - 1 else ","
        words += _KIND_WORDS.get(c.dtype.kind, _text_words)(c, sep, t)
    table = np.empty((len(cols[0]), len(words)), np.uint32)
    for k, w in enumerate(words):
        table[:, k] = w
    return table


def format_rows(cols, tables) -> bytes:
    """The CSV text of equal-length, nonempty columns, each printed by its
    dtype kind, with digit_tables(); text cells hold no NUL. The word
    columns are freed before the table is copied out."""
    return _word_table(cols, tables).tobytes().translate(None, b"\0")
