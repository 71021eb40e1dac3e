"""(p,q,r) triangle-group geometry and the (2,3,7) geodesic machinery.

Hyperbolic conjugacy classes of the (2,3,7) group are represented by
cyclic words over the two order-7 rotations R and L.  A word's geodesic
length comes from the trace of its matrix product; its class count is the
number of distinct cyclic-canonical forms in the orbit of the word under
reversal and the R<->L swap, which models the four-element family
{g, g^-1, g*, (g*)^-1}.  Length is invariant under both involutions
(trace polynomials in SL(2) are), which the tests verify numerically.

Cyclic-word distinctness is a combinatorial proxy for distinctness of
conjugacy classes: group relations can identify words beyond the orbit
moves (classes that share a trace are kept separate, never merged), so
the count is an upper bound on the number of distinct classes.

:func:`enumerate_classes` works on whole arrays holding the words of
every length at once: a word of n letters is the n-bit integer with R = 0
and the first letter most significant, rotations are shifts, and the
matrices of all orbit representatives are multiplied in one batch with
the arithmetic of :meth:`Mat2.__matmul__`, so its output is bit-identical
to the per-word route.  :func:`word_orbit`, :func:`canonical_rotation`
and :func:`word_to_matrix` are the per-word oracles that the tests hold
it to.  A :class:`GeodesicClass` is geometry only; :func:`classes_to_json`
takes the winding sums of the terms it prints.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from .contributions import (LengthSpectrum, NonHyperbolicSignatureError,
                            OrbifoldSignature, geodesic_contributions)

__all__ = [
    "Mat2",
    "GeodesicClass",
    "WordError",
    "EllipticWordError",
    "NonHyperbolicSignatureError",
    "triangle_signature",
    "generators_237",
    "word_to_matrix",
    "word_length",
    "canonical_rotation",
    "star_word",
    "word_orbit",
    "table_corpus",
    "enumerate_classes",
    "to_spectrum",
    "classes_to_json",
]

_TRANS = str.maketrans("RL", "01")   # R < L for canonical ordering
_UNTRANS = str.maketrans("01", "RL")
_STAR01 = str.maketrans("01", "10")


class WordError(ValueError):
    """Word is not a non-empty string over {R, L}."""


class EllipticWordError(ValueError):
    """Word represents a finite-order (or parabolic) element, no geodesic."""


@dataclass
class Mat2:
    """Real 2x2 matrix with unit determinant maintained by renormalization."""

    a: float
    b: float
    c: float
    d: float

    def __matmul__(self, other: "Mat2") -> "Mat2":
        m = Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )
        drift = m.det() - 1.0
        if abs(drift) > 1e-13:
            r = 1.0 / math.sqrt(m.det())
            m.a *= r
            m.b *= r
            m.c *= r
            m.d *= r
        return m

    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> float:
        return self.a + self.d

    def inverse(self) -> "Mat2":
        det = self.det()
        return Mat2(self.d / det, -self.b / det, -self.c / det, self.a / det)


class GeodesicClass(NamedTuple):
    """One conjugacy-class orbit: canonical word, trace, length and count."""

    representative: str
    trace: float
    length: float
    class_count: int


def triangle_signature(p: int, q: int, r: int) -> OrbifoldSignature:
    """Genus 0 and cones p, q, r; NonHyperbolicSignatureError if 1/p+1/q+1/r >= 1."""
    return OrbifoldSignature((p, q, r))


@lru_cache(maxsize=1)
def generators_237():
    """(A, B, R, L) for the (2,3,7) group: A^3 = B^7 = (AB)^2 = -1, R = A^-1 B, L = B."""
    cot7 = 1.0 / math.tan(math.pi / 7.0)
    b = (math.sqrt(3.0 * (cot7 * cot7 - 3.0)) + math.sqrt(3.0) * cot7) / 3.0
    c3, s3 = math.cos(math.pi / 3.0), math.sin(math.pi / 3.0)
    c7, s7 = math.cos(math.pi / 7.0), math.sin(math.pi / 7.0)
    A = Mat2(c3, s3, -s3, c3)
    B = Mat2(c7, b * s7, -s7 / b, c7)
    R = A.inverse() @ B
    return A, B, R, B


def _validate_word(word: str) -> str:
    if not isinstance(word, str) or not word:
        raise WordError("word must be a non-empty string over {R, L}")
    if set(word) - {"R", "L"}:
        raise WordError(f"word may only contain R and L, got {word!r}")
    return word


def word_to_matrix(word: str) -> Mat2:
    """Left-to-right matrix product of the word's generators."""
    _validate_word(word)
    _, _, R, L = generators_237()
    m = Mat2(1.0, 0.0, 0.0, 1.0)
    for ch in word:
        m = m @ (R if ch == "R" else L)
    return m


def _matrix_length(word: str, m: Mat2) -> float:
    """2 arcosh(|tr m|/2) for the matrix m of word; elliptic words raise."""
    t = abs(m.trace)
    if t <= 2.0 + 1e-12:
        raise EllipticWordError(
            f"{word!r} has |trace| = {t:.6f} <= 2: finite order or parabolic")
    return 2.0 * math.acosh(t / 2.0)


def word_length(word: str) -> float:
    """Geodesic length 2 arcosh(|tr|/2) of a hyperbolic word."""
    return _matrix_length(word, word_to_matrix(word))


def star_word(word: str) -> str:
    """Swap R and L."""
    return _validate_word(word).translate(str.maketrans("RL", "LR"))


def _least_rotation(w01: str) -> str:
    """Least rotation of a word over "01"."""
    n = len(w01)
    doubled = w01 + w01
    return min(doubled[i:i + n] for i in range(n))


def _involution_images(w01: str) -> tuple[str, str, str]:
    """Star, reversal and reversed star of a word over "01"."""
    s = w01.translate(_STAR01)
    return s, w01[::-1], s[::-1]


def canonical_rotation(word: str) -> str:
    """Lexicographically minimal cyclic rotation, ordering R < L."""
    w01 = _validate_word(word).translate(_TRANS)
    return _least_rotation(w01).translate(_UNTRANS)


def word_orbit(word: str) -> tuple[str, ...]:
    """Sorted distinct canonical forms of {w, rev w, star w, rev star w}.

    The reversal realizes inversion up to conjugacy (trace-checked by the
    test suite), so these four cyclic words model {g, g^-1, g*, (g*)^-1}.
    """
    w01 = _validate_word(word).translate(_TRANS)
    forms = {_least_rotation(v) for v in (w01, *_involution_images(w01))}
    return tuple(f.translate(_UNTRANS) for f in sorted(forms))


# ----------------------------------------------------------------------
# the 27-row reference corpus: (word, class count, length, contribution)
# ----------------------------------------------------------------------

_CORPUS_ROWS = (
    ("RL",           1, 0.983987, -0.288955),
    ("RRLL",         1, 1.736006, -0.064746),
    ("RLRLL",        2, 2.131105, -0.069526),
    ("RLRRLL",       2, 2.661931, -0.032848),
    ("RLLRRLL",      2, 2.898149, -0.024028),
    ("RLRLRLL",      2, 3.154824, -0.017289),
    ("RLRRLRLL",     1, 3.542710, -0.0053429),
    ("RLRLRRLL",     2, 3.627316, -0.0096416),
    ("RLRRLRRLL",    2, 3.804704, -0.0077879),
    ("RLRLLRRLL",    2, 3.935946, -0.0066608),
    ("RLRLRLRLL",    2, 4.151972, -0.0051635),
    ("RLLRRLRRLL",   1, 4.201807, -0.0024355),
    ("RLRRLLRRLL",   2, 4.391460, -0.0039068),
    ("RLRLRRLRLL",   2, 4.489257, -0.0034894),
    ("RLRLRLRRLL",   2, 4.604733, -0.0030555),
    ("RLLRRLLRRLL",  2, 4.654014, -0.0028877),
    ("RLRLRRLRRLL",  2, 4.760433, -0.0025571),
    ("RLRLLRLRRLL",  4, 4.841798, -0.0046617),
    ("RLRLRLLRRLL",  2, 4.938763, -0.0020879),
    ("RLRLLRLLRRLL", 2, 5.013217, -0.0019192),
    ("RLRLRLRLRLL",  2, 5.140676, -0.0016622),
    ("RLRLLRRLRRLL", 2, 5.208017, -0.0015409),
    ("RLRLRLLRLRLL", 2, 5.288901, -0.0014072),
    ("RLRRLRLLRRLL", 2, 5.288901, -0.0014072),
    ("RLRLRRLLRRLL", 2, 5.351459, -0.0013120),
    ("RLRLRRLRLRLL", 1, 5.426797, -0.00060298),
    ("RLRLRLRRLRLL", 2, 5.459427, -0.0011628),
)

_LENGTH_TOL = 1e-5
_CONTRIBUTION_TOL = 5e-6


class CorpusIntegrityError(ArithmeticError):
    """Recomputed corpus values drifted from the stored reference data."""


@lru_cache(maxsize=1)
def table_corpus() -> tuple[GeodesicClass, ...]:
    """The reference corpus of the first primitive geodesic classes.

    Words and class counts are stored; lengths and contributions are
    recomputed from the generator matrices and winding sums, then checked
    against the stored reference values before the classes are returned.
    """
    found = []
    for word, count, ref_len, _ in _CORPUS_ROWS:
        m = word_to_matrix(word)
        length = _matrix_length(word, m)
        if abs(length - ref_len) > _LENGTH_TOL:
            raise CorpusIntegrityError(
                f"{word}: recomputed length {length} vs reference {ref_len}")
        found.append(GeodesicClass(word, m.trace, length, count))
    contributions = geodesic_contributions([c.length for c in found],
                                           [c.class_count for c in found])
    for (word, _, _, ref_a), a in zip(_CORPUS_ROWS, contributions):
        if abs(a - ref_a) > _CONTRIBUTION_TOL:
            raise CorpusIntegrityError(
                f"{word}: recomputed contribution {a} vs reference {ref_a}")
    return tuple(found)


def _least_proper_rotation(v: np.ndarray, n: int) -> np.ndarray:
    """Least rotation by 1..n-1 letters of each n-bit word in v (2**n if n = 1)."""
    mask = (1 << n) - 1
    least = np.full_like(v, mask + 1)
    r = v.copy()
    top = np.empty_like(v)
    for _ in range(n - 1):
        np.right_shift(r, n - 1, out=top)
        np.left_shift(r, 1, out=r)
        r &= mask
        r |= top
        np.minimum(least, r, out=least)
    return least


def _lyndon_bits(n: int) -> np.ndarray:
    """Lyndon words of n letters as ascending n-bit integers.

    A word is Lyndon when it is strictly less than each of its n - 1
    nontrivial rotations.  From two letters on it starts with R (bit 0)
    and ends with L (bit 1), so only those candidates are tested.
    """
    if n == 1:
        return np.array([0, 1], dtype=np.int32)
    x = np.arange(1, 1 << (n - 1), 2, dtype=np.int32)
    return x[x < _least_proper_rotation(x, n)]


def _least_proper_rotations(v: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """Least rotation by 1..n-1 letters of each word in v of n = letters letters.

    letters is ascending, so the words of more than k letters form a
    suffix: step k rotates that suffix in place, with per-word shifts and
    masks, and a word of n letters takes n - 1 steps.  A one-letter word
    gets 2, above both one-letter words.
    """
    mask = (1 << letters) - 1
    top = letters - 1
    least = mask + 1
    r = v.copy()
    high = np.empty_like(v)
    for k in range(1, int(letters[-1])):
        s = np.searchsorted(letters, k + 1)
        rs, hs = r[s:], high[s:]
        np.right_shift(rs, top[s:], out=hs)
        rs <<= 1
        rs &= mask[s:]
        rs |= hs
        np.minimum(least[s:], rs, out=least[s:])
    return least


def _reverse_words(v: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """Each word in v read backwards; letters is ascending, as above."""
    out = np.zeros_like(v)
    bit = np.empty_like(v)
    for i in range(int(letters[-1])):
        s = np.searchsorted(letters, i + 1)
        bs = bit[s:]
        np.right_shift(v[s:], i, out=bs)
        bs &= 1
        bs <<= letters[s:] - 1 - i
        out[s:] |= bs
    return out


def _orbit_representatives(max_letters: int) -> tuple[np.ndarray, ...]:
    """Least words of the involution orbits of Lyndon words, with letters and orbit sizes.

    The Lyndon words of 1..max_letters letters are tested together, in
    increasing length, so each test below runs once over all lengths.
    A Lyndon word is its own least rotation, so it represents its orbit
    exactly when none of its star, reversal and reversed star has a
    smaller least rotation.  Star is tested first: it drops about half
    of the words, so the later images are built for fewer.  The
    involutions form a group of four acting on rotation classes; a
    representative's orbit size is 4 over the number of group elements
    that fix its class, the identity and each image whose least rotation
    is the word itself.
    """
    parts = [_lyndon_bits(n) for n in range(1, max_letters + 1)]
    x = np.concatenate(parts)
    letters = np.repeat(np.arange(1, max_letters + 1, dtype=x.dtype),
                        [p.size for p in parts])
    images = (lambda w, n: w ^ ((1 << n) - 1),
              _reverse_words,
              lambda w, n: _reverse_words(w, n) ^ ((1 << n) - 1))
    fixing = np.ones_like(x)
    for image in images:
        v = image(x, letters)
        least = np.minimum(v, _least_proper_rotations(v, letters))
        keep = least >= x
        x, letters, least, fixing = x[keep], letters[keep], least[keep], fixing[keep]
        fixing += least == x
    return x, letters, 4 // fixing


def _word_matrices(words: np.ndarray, letters: np.ndarray) -> tuple[np.ndarray, ...]:
    """Entries (a, b, c, d) of the matrices of the words, batched over all lengths.

    letters is ascending, so the words of more than j letters form a
    suffix, and step j multiplies in letter j of each of them.  The
    products run left to right from the identity with the expressions
    of :meth:`Mat2.__matmul__`, in the same order, and renormalise exactly
    the elements whose determinant drifts by more than 1e-13.  Elementwise
    binary64 products, sums, square roots and quotients round as Python's
    do, so each element equals :func:`word_to_matrix` bit for bit.
    """
    _, _, R, L = generators_237()
    # (R, L) pairs of each entry, gathered into contiguous arrays
    gens = [np.array(pair)
            for pair in ((R.a, L.a), (R.b, L.b), (R.c, L.c), (R.d, L.d))]
    a = np.ones(words.size)
    b = np.zeros(words.size)
    c = np.zeros(words.size)
    d = np.ones(words.size)
    top = letters - 1
    for j in range(int(letters[-1])):
        s = np.searchsorted(letters, j + 1)
        letter = (words[s:] >> (top[s:] - j)) & 1
        ga, gb, gc, gd = (g[letter] for g in gens)
        sa, sb, sc, sd = a[s:], b[s:], c[s:], d[s:]
        sa[:], sb[:], sc[:], sd[:] = (sa * ga + sb * gc, sa * gb + sb * gd,
                                      sc * ga + sd * gc, sc * gb + sd * gd)
        det = sa * sd - sb * sc
        drift = np.abs(det - 1.0) > 1e-13
        if drift.any():
            r = 1.0 / np.sqrt(det[drift])
            sa[drift] *= r
            sb[drift] *= r
            sc[drift] *= r
            sd[drift] *= r
    return a, b, c, d


def enumerate_classes(max_letters: int) -> list[GeodesicClass]:
    """All hyperbolic involution orbits of aperiodic cyclic words.

    One :class:`GeodesicClass` per orbit, sorted by length then canonical
    word.  Finite-order words are skipped.  Orbits that share a trace,
    such as RL and RRL, are kept separate.

    The work runs on whole arrays that hold the words of every length,
    in increasing length, so each stage below is one pass of about
    max_letters array steps over all of them.  A word of n letters is the
    n-bit integer with R = 0, L = 1 and the first letter most significant,
    so integer order is R < L lexicographic order and a rotation is a
    shift-and-or.  :func:`_orbit_representatives` keeps the Lyndon words
    (aperiodic, least in their rotation class) that are least in their
    involution orbit; each orbit is then counted once, by its least word,
    as :func:`word_orbit` counts it.  :func:`_word_matrices` multiplies
    their matrices in one batch, bit for bit as :func:`word_to_matrix`
    does.  The trace a + d, the finite-order test |tr| <= 2 + 1e-12 and
    the length 2 ``math.acosh``(|tr| / 2) are then the same binary64
    operations as the per-word route, so every trace and length is
    bit-identical to it.  No winding sum is taken here.  Length ties keep
    R < L lexicographic order over all lengths.  The classes are built by
    ``GeodesicClass._make`` from the zipped columns.
    """
    if not 1 <= max_letters <= 20:
        raise ValueError("max_letters must lie in 1..20")
    words, letters, sizes = _orbit_representatives(max_letters)
    a, _, _, d = _word_matrices(words, letters)
    traces = a + d
    # R < L lexicographic order over all lengths: words padded with R to
    # max_letters letters, and a word before its extensions
    order = np.lexsort((letters, words << (max_letters - letters)))
    hyperbolic = np.abs(traces[order]) > 2.0 + 1e-12
    order = order[hyperbolic]
    lengths = 2.0 * np.array(list(map(math.acosh,
                                      (np.abs(traces[order]) / 2.0).tolist())))
    # by length, then in R < L order
    by_length = np.argsort(lengths, kind="stable")
    order = order[by_length]
    # a leading 1 bit keeps the word's leading Rs (0 bits) in bin()
    names = [bin(w)[3:].translate(_UNTRANS)
             for w in (words[order] | (1 << letters[order])).tolist()]
    return list(map(GeodesicClass._make,
                    zip(names, traces[order].tolist(),
                        lengths[by_length].tolist(), sizes[order].tolist())))


def to_spectrum(classes: Iterable[GeodesicClass],
                provenance: str = "enumerated") -> LengthSpectrum:
    """Expand class counts into a (2,3,7) length spectrum.

    Entries stay separate even at equal lengths: one per class.  The
    classes are taken once, and their lengths and counts go, uncoerced, to
    :meth:`LengthSpectrum.from_columns` as two columns, so the entries are
    the sorted (length, count) pairs.
    """
    classes = list(classes)
    return LengthSpectrum.from_columns([c.length for c in classes],
                                       [c.class_count for c in classes],
                                       provenance, (2, 3, 7))


def classes_to_json(classes: Iterable[GeodesicClass]) -> str:
    """JSON rows of the classes with their energy terms, from one winding-sum pass.

    Each winding sum depends only on its own length, so a class's term
    does not depend on the classes printed with it.  The terms add up to the
    head of ``to_spectrum(classes)`` within rounding.
    """
    classes = list(classes)
    contributions = geodesic_contributions([c.length for c in classes],
                                           [c.class_count for c in classes])
    rows = [{"word": c.representative, "trace": c.trace, "length": c.length,
             "class_count": c.class_count, "contribution": a}
            for c, a in zip(classes, contributions)]
    return json.dumps(rows, indent=2)
