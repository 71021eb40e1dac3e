"""Triangle-group geometry, word calculus, and the reference corpus."""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casorb import triangle
from casorb.contributions import (
    LengthSpectrum,
    read_spectrum_file,
    spectrum_file_lines,
)
from casorb.triangle import (
    EllipticWordError,
    GeodesicClass,
    Mat2,
    NonHyperbolicSignatureError,
    WordError,
    canonical_rotation,
    classes_to_json,
    enumerate_classes,
    generators_237,
    star_word,
    table_corpus,
    to_spectrum,
    triangle_signature,
    word_length,
    word_orbit,
    word_to_matrix,
)

# combinatorial orbit count exceeds the stored class count exactly here:
# group relations identify the word with its reversed star beyond cyclic
# rotation, halving the true class count for these three corpus words.
RELATION_MERGED_WORDS = {"RLRRLRRLL", "RLRLRRLRRLL", "RLRLLRLLRRLL"}

TO_01 = str.maketrans("RL", "01")   # R < L
TO_RL = str.maketrans("01", "RL")


def _lyndon_words_by_rotation(max_len):
    """Lyndon words over R < L, in that order, by comparing every rotation."""
    out = []
    for n in range(1, max_len + 1):
        for letters in itertools.product("01", repeat=n):
            w = "".join(letters)
            if all(w < w[i:] + w[:i] for i in range(1, n)):
                out.append(w)
    return [w.translate(TO_RL) for w in sorted(out)]


def _bits_to_word(x, n):
    """The n-letter word of the n-bit integer x, first letter most significant."""
    return format(x, f"0{n}b").translate(TO_RL)


def _enumerate_by_orbits(max_letters):
    """enumerate_classes rebuilt per word from the oracles and a seen set."""
    seen = set()
    classes = []
    for word in _lyndon_words_by_rotation(max_letters):
        orbit = word_orbit(word)
        rep = orbit[0]
        if rep in seen:
            continue
        seen.add(rep)
        try:
            length = word_length(rep)
        except EllipticWordError:
            continue
        m = word_to_matrix(rep)
        classes.append(GeodesicClass(rep, m.trace, length, len(orbit)))
    classes.sort(key=lambda c: (c.length, c.representative.translate(TO_01)))
    return classes


def _random_words(n, rng, min_len=2, max_len=14):
    out = []
    while len(out) < n:
        length = rng.randint(min_len, max_len)
        out.append("".join(rng.choice("RL") for _ in range(length)))
    return out


class TestGeometry:
    def test_area_237(self):
        assert triangle_signature(2, 3, 7).volume == pytest.approx(
            math.pi / 21.0, rel=1e-15)

    def test_area_334(self):
        assert triangle_signature(3, 3, 4).volume == pytest.approx(
            math.pi / 6.0, rel=1e-15)

    def test_area_euclidean_rejected(self):
        with pytest.raises(NonHyperbolicSignatureError):
            triangle_signature(2, 3, 6)
        with pytest.raises(NonHyperbolicSignatureError):
            triangle_signature(2, 2, 2)

    def test_area_matches_exact_fraction(self):
        # the integer numerator and denominator round once, as Fraction does
        for p, q, r in itertools.product(range(2, 25), repeat=3):
            defect = 1 - Fraction(1, p) - Fraction(1, q) - Fraction(1, r)
            if defect <= 0:
                with pytest.raises(NonHyperbolicSignatureError):
                    triangle_signature(p, q, r)
            else:
                assert (triangle_signature(p, q, r).volume
                        == 2.0 * math.pi * float(defect))

    def test_signature_constructor(self):
        sig = triangle_signature(2, 3, 7)
        assert sig.cone_orders == (2, 3, 7)
        assert sig.volume == pytest.approx(math.pi / 21.0, rel=1e-15)


class TestGenerators:
    def test_traces(self):
        A, B, R, L = generators_237()
        assert abs(A.trace) == pytest.approx(1.0, abs=1e-14)
        assert abs(B.trace) == pytest.approx(2.0 * math.cos(math.pi / 7), abs=1e-14)
        assert abs(R.trace) == pytest.approx(2.0 * math.cos(math.pi / 7), abs=1e-12)
        assert (R @ L).trace == pytest.approx(2.0 * math.cosh(0.983987 / 2.0), abs=1e-5)

    def test_determinants(self):
        for m in generators_237():
            assert m.det() == pytest.approx(1.0, abs=1e-14)

    def test_projective_torsion(self):
        A, B, _, _ = generators_237()
        a3 = A @ A @ A
        for got, want in ((a3.a, -1.0), (a3.b, 0.0), (a3.c, 0.0), (a3.d, -1.0)):
            assert got == pytest.approx(want, abs=1e-10)
        b7 = B
        for _ in range(6):
            b7 = b7 @ B
        for got, want in ((b7.a, -1.0), (b7.b, 0.0), (b7.c, 0.0), (b7.d, -1.0)):
            assert got == pytest.approx(want, abs=1e-10)

    def test_order_two_product(self):
        A, B, _, _ = generators_237()
        assert (A @ B).trace == pytest.approx(0.0, abs=1e-13)


class TestWords:
    def test_word_to_matrix_basics(self):
        _, B, R, _ = generators_237()
        l = word_to_matrix("L")
        assert (l.a, l.b, l.c, l.d) == (B.a, B.b, B.c, B.d)
        rl = word_to_matrix("RL")
        assert abs(rl.trace) == pytest.approx(2.2469796, abs=1e-6)
        rrll = word_to_matrix("RRLL")
        assert abs(rrll.trace) == pytest.approx(
            2.0 * math.cosh(1.736006 / 2.0), abs=1e-5)

    def test_word_lengths(self):
        assert word_length("RL") == pytest.approx(0.983987, abs=1e-5)
        assert word_length("RLRLL") == pytest.approx(2.131105, abs=1e-5)

    def test_elliptic_word_rejected(self):
        with pytest.raises(EllipticWordError):
            word_length("R")
        with pytest.raises(EllipticWordError):
            word_length("L")
        with pytest.raises(EllipticWordError):
            word_length("RRRRRRR")   # R^7 = -identity, |trace| = 2
        with pytest.raises(WordError):
            word_length("RLX")
        with pytest.raises(WordError):
            word_length("")

    def test_canonical_rotation_order(self):
        # R sorts before L
        assert canonical_rotation("LR") == "RL"
        assert canonical_rotation("LLRLR") == "RLRLL"

    def test_canonical_rotation_matches_every_rotation(self):
        rng = random.Random(7)
        for w in _random_words(300, rng, min_len=1, max_len=16):
            rotations = [w[i:] + w[:i] for i in range(len(w))]
            want = min(rotations, key=lambda r: r.translate(TO_01))
            assert canonical_rotation(w) == want

    def test_cyclic_trace_invariance_random(self):
        rng = random.Random(20240809)
        for w in _random_words(100, rng):
            t = abs(word_to_matrix(w).trace)
            for i in range(1, len(w)):
                rot = w[i:] + w[:i]
                assert abs(word_to_matrix(rot).trace) == pytest.approx(t, abs=1e-9)

    def test_involution_length_invariance_random(self):
        rng = random.Random(1234)
        checked = 0
        for w in _random_words(200, rng):
            try:
                ell = word_length(w)
            except EllipticWordError:
                continue
            checked += 1
            assert word_length(star_word(w)) == pytest.approx(ell, abs=1e-9)
            assert word_length(w[::-1]) == pytest.approx(ell, abs=1e-9)
            assert word_length(star_word(w[::-1])) == pytest.approx(ell, abs=1e-9)
        assert checked >= 100

    def test_determinant_stability_long_products(self):
        rng = random.Random(99)
        for w in _random_words(50, rng, min_len=20, max_len=20):
            m = word_to_matrix(w)
            assert abs(m.det() - 1.0) <= 1e-12

    def test_mat2_inverse(self):
        m = word_to_matrix("RLRLL")
        ident = m @ m.inverse()
        assert ident.a == pytest.approx(1.0, abs=1e-12)
        assert ident.d == pytest.approx(1.0, abs=1e-12)
        assert abs(ident.b) + abs(ident.c) <= 1e-12


class TestClassCount:
    def test_examples(self):
        assert len(word_orbit("RL")) == 1
        assert len(word_orbit("RLRLL")) == 2
        assert len(word_orbit("RLRLLRLRRLL")) == 4

    def test_orbit_closure(self):
        orbit = word_orbit("RLRLL")
        assert len(orbit) == 2
        # all orbit members share the trace (necessary for shared length)
        t = abs(word_to_matrix(orbit[0]).trace)
        for w in orbit[1:]:
            assert abs(word_to_matrix(w).trace) == pytest.approx(t, abs=1e-9)


class TestCorpus:
    def test_row_count_and_multiplicity(self):
        corpus = table_corpus()
        assert len(corpus) == 27
        assert sum(c.class_count for c in corpus) == 51

    def test_total_contribution(self):
        rows = json.loads(classes_to_json(table_corpus()))
        total = math.fsum(row["contribution"] for row in rows)
        assert total == pytest.approx(-0.5680851, abs=1e-6)

    def test_lengths_are_recomputed_not_stored(self):
        for c in table_corpus():
            assert c.length == pytest.approx(word_length(c.representative), abs=1e-14)

    def test_double_length_row(self):
        spec = to_spectrum(table_corpus(), provenance="table_corpus")
        assert sum(m for ell, m in spec.entries
                   if abs(ell - 5.288901) <= 1e-5) == 4
        assert spec.total_multiplicity == 51

    def test_relation_merged_words_documented(self):
        offenders = {c.representative for c in table_corpus()
                     if len(word_orbit(c.representative)) != c.class_count}
        assert offenders == RELATION_MERGED_WORDS
        for w in RELATION_MERGED_WORDS:
            assert len(word_orbit(w)) == 4   # combinatorial orbit is a 4-set

    @pytest.mark.parametrize("column, shift, what", [
        (2, 2e-5, "length"),          # past _LENGTH_TOL = 1e-5
        (3, 1e-5, "contribution"),    # past _CONTRIBUTION_TOL = 5e-6
    ])
    def test_drifted_row_is_a_numerical_failure(self, capsys, monkeypatch,
                                                column, shift, what):
        from casorb import cli

        row = list(triangle._CORPUS_ROWS[0])
        assert row[0] == "RL"
        row[column] += shift
        monkeypatch.setattr(triangle, "_CORPUS_ROWS",
                            (tuple(row),) + triangle._CORPUS_ROWS[1:])
        table_corpus.cache_clear()
        try:
            with pytest.raises(triangle.CorpusIntegrityError,
                               match=f"^RL: recomputed {what}"):
                table_corpus()
            capsys.readouterr()
            assert cli.run(["verify-237"]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"numerical failure: RL: recomputed {what}")
        finally:
            table_corpus.cache_clear()


class TestEnumeration:
    def test_two_letters(self):
        classes = enumerate_classes(2)
        assert [c.representative for c in classes] == ["RL"]
        assert classes[0].length == pytest.approx(0.983987, abs=1e-5)
        assert classes[0].class_count == 1

    def test_four_letters_includes_rrll(self):
        classes = enumerate_classes(4)
        reps = {c.representative: c for c in classes}
        assert "RRLL" in reps
        assert reps["RRLL"].length == pytest.approx(1.736006, abs=1e-5)

    def test_corpus_recovery_at_twelve_letters(self):
        classes = {c.representative: c for c in enumerate_classes(12)}
        for row in table_corpus():
            rep = word_orbit(row.representative)[0]
            assert rep in classes, row.representative
            got = classes[rep]
            assert got.length == pytest.approx(row.length, abs=1e-5)
            if row.representative in RELATION_MERGED_WORDS:
                assert got.class_count == 2 * row.class_count
            else:
                assert got.class_count == row.class_count

    def test_classes_are_constructor_built(self):
        # enumerated classes equal GeodesicClass(...) field by field, hash
        # and print alike, and take no assignment
        classes = enumerate_classes(12)
        for c in classes:
            built = GeodesicClass(c.representative, c.trace, c.length, c.class_count)
            assert type(c) is GeodesicClass
            assert c == built and hash(c) == hash(built) and repr(c) == repr(built)
        assert GeodesicClass._fields == ("representative", "trace", "length",
                                         "class_count")
        assert [type(v) for v in classes[0]] == [str, float, float, int]
        assert repr(GeodesicClass("RL", -2.5, 1.0, 1)) == (
            "GeodesicClass(representative='RL', trace=-2.5, length=1.0, class_count=1)")
        with pytest.raises(AttributeError):
            classes[0].length = 1.0
        with pytest.raises(AttributeError):
            classes[0].extra = 1

    def test_sorted_output(self):
        classes = enumerate_classes(8)
        lengths = [c.length for c in classes]
        assert lengths == sorted(lengths)

    def test_trace_coincidences_flagged(self):
        # RRL shares the systole trace with RL: two classes, not merged
        reps = {c.representative: c for c in enumerate_classes(4)}
        rl, rrl = reps["RL"], reps["RRL"]
        assert abs(abs(rl.trace) - abs(rrl.trace)) <= 1e-9

    def test_lyndon_generator_order(self):
        # the integer Lyndon test, length by length, in R < L order
        want = _lyndon_words_by_rotation(14)
        for n in range(1, 15):
            got = [_bits_to_word(x, n) for x in triangle._lyndon_bits(n).tolist()]
            assert got == [w for w in want if len(w) == n], n

    def test_reverse_words_matches_string_reversal(self):
        # any mix of lengths, in any order, as int32 words
        rng = random.Random(3)
        letters = [rng.randint(1, 20) for _ in range(2000)]
        words = [rng.getrandbits(n) for n in letters]
        got = triangle._reverse_words(np.array(words, dtype=np.int32),
                                      np.array(letters, dtype=np.int32))
        assert got.dtype == np.int32
        assert [_bits_to_word(x, n) for x, n in zip(got.tolist(), letters)] == [
            _bits_to_word(x, n)[::-1] for x, n in zip(words, letters)]

    def test_orbit_size_matches_word_orbit(self):
        # a Lyndon word is kept exactly when it leads its word_orbit, with
        # that orbit's size; each length's slice of the one batched result
        lyndon = _lyndon_words_by_rotation(14)
        words, letters, sizes = triangle._orbit_representatives(14)
        assert np.all(np.diff(letters) >= 0)
        for n in range(1, 15):
            at_n = letters == n
            kept = {_bits_to_word(x, n): size
                    for x, size in zip(words[at_n].tolist(), sizes[at_n].tolist())}
            for word in (w for w in lyndon if len(w) == n):
                orbit = word_orbit(word)
                if orbit[0] == word:
                    assert kept.pop(word) == len(orbit), word
            assert not kept, kept

    @pytest.mark.parametrize("max_letters", range(1, 13))
    def test_matches_per_word_oracles(self, max_letters):
        # equal floats: batched products are bit-identical to word_to_matrix
        assert enumerate_classes(max_letters) == _enumerate_by_orbits(max_letters)

    def test_one_batched_product_for_all_lengths(self, monkeypatch):
        generators_237()
        products = 0
        matmul = Mat2.__matmul__

        def counting(self, other):
            nonlocal products
            products += 1
            return matmul(self, other)

        calls = []
        batched = triangle._word_matrices

        def spy(words, letters):
            calls.append(sorted(set(letters.tolist())))
            return batched(words, letters)

        monkeypatch.setattr(Mat2, "__matmul__", counting)
        monkeypatch.setattr(triangle, "_word_matrices", spy)
        enumerate_classes(12)
        assert products == 0
        assert calls == [list(range(1, 13))]

    def test_batched_product_matches_word_to_matrix(self, monkeypatch):
        rng = random.Random(20261018)
        words = _random_words(600, rng, min_len=2, max_len=20)
        drifted = 0
        matmul = Mat2.__matmul__

        def spy(self, other):
            # the unnormalised product, as Mat2.__matmul__ forms it
            nonlocal drifted
            raw = Mat2(self.a * other.a + self.b * other.c,
                       self.a * other.b + self.b * other.d,
                       self.c * other.a + self.d * other.c,
                       self.c * other.b + self.d * other.d)
            drifted += abs(raw.det() - 1.0) > 1e-13
            return matmul(self, other)

        generators_237()
        monkeypatch.setattr(Mat2, "__matmul__", spy)
        # every length 2..20 in one call, in increasing length
        words.sort(key=len)
        assert {len(w) for w in words} == set(range(2, 21))
        codes = np.array([int(w.translate(TO_01), 2) for w in words],
                         dtype=np.int32)
        letters = np.array([len(w) for w in words], dtype=np.int32)
        batched = zip(*(v.tolist() for v in triangle._word_matrices(codes, letters)))
        for word, entries in zip(words, batched, strict=True):
            m = word_to_matrix(word)
            assert ([x.hex() for x in entries]
                    == [x.hex() for x in (m.a, m.b, m.c, m.d)]), word
        # the sample reaches the renormalisation branch
        assert drifted >= 1

    @pytest.mark.parametrize("max_letters, digest", [
        (16, "ba22a9bd894ed5f5e91172b6de442e5ad1d4d9d549c7e9b73b3bdc8958ea5a8b"),
        (20, "c83a590adb528d10fe71e34c2aa1b76a00c881bdf1e510effaf0fd043757ab8a"),
    ])
    def test_output_digest(self, max_letters, digest):
        # every word, class count, and the exact bits of each trace and
        # length; recorded from the per-length enumeration, which the
        # batched one matches bit for bit
        h = hashlib.sha256()
        for c in enumerate_classes(max_letters):
            h.update(f"{c.representative} {c.class_count} {c.trace.hex()} "
                     f"{c.length.hex()}\n".encode())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("max_letters, classes, multiplicity, skipped", [
        (17, 3928, 14150, 688),
        (18, 7351, 26972, 1150),
        (19, 13713, 51568, 1942),
        (20, 25945, 98691, 3312),
    ])
    def test_counts_past_the_benchmark(self, max_letters, classes,
                                       multiplicity, skipped):
        got = enumerate_classes(max_letters)
        assert len(got) == classes
        assert sum(c.class_count for c in got) == multiplicity
        assert len(triangle._orbit_representatives(max_letters)[0]) - len(got) == skipped

    def test_finite_order_orbits_skipped(self):
        # every orbit representative is a class unless it has finite order
        orbits = len(triangle._orbit_representatives(16)[0])
        assert orbits - len(enumerate_classes(16)) == 414

    def test_bounds(self):
        with pytest.raises(ValueError):
            enumerate_classes(0)
        with pytest.raises(ValueError):
            enumerate_classes(21)


class TestSpectrumExport:
    def test_to_spectrum_counts(self):
        classes = enumerate_classes(6)
        spec = to_spectrum(classes)
        assert spec.total_multiplicity == sum(c.class_count for c in classes)
        assert to_spectrum([]).total_multiplicity == 0

    @staticmethod
    def _classes(rows):
        return [GeodesicClass("RL", 0.0, length, count) for length, count in rows]

    @staticmethod
    def _check_to_spectrum(classes, rng):
        # to_spectrum equals from_columns of the lengths and counts and the
        # sorted() of the (length, count) pairs, for any order and a
        # one-shot iterator
        shuffled = list(classes)
        rng.shuffle(shuffled)
        want = LengthSpectrum(tuple(sorted((c.length, c.class_count) for c in classes)),
                              "enumerated", (2, 3, 7))
        assert LengthSpectrum.from_columns(
            [c.length for c in shuffled], [c.class_count for c in shuffled],
            "enumerated", (2, 3, 7)) == want
        assert to_spectrum(shuffled) == want
        assert to_spectrum(c for c in shuffled) == want

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.5, 1.0, 1.0 + 2**-52, 2.0])
                              | st.floats(0.1, 10.0),
                              st.integers(1, 4)), max_size=30),
           st.randoms(use_true_random=False))
    def test_to_spectrum_matches_from_columns(self, rows, rng):
        self._check_to_spectrum(self._classes(rows), rng)

    @pytest.mark.parametrize("rows", [
        [],
        [(1.5, 2)],
        [(1.0, 4), (1.0, 1), (1.0, 2), (0.5, 1), (1.0, 1)],
        "enumerate12",
    ])
    def test_to_spectrum_matches_from_columns_cases(self, rows):
        classes = enumerate_classes(12) if rows == "enumerate12" else self._classes(rows)
        self._check_to_spectrum(classes, random.Random(12))

    def test_merge_opt_in(self):
        # the two 5.288901 rows stay two entries of the spectrum
        spec = to_spectrum(table_corpus())
        rows = [(ell, m) for ell, m in spec.entries if abs(ell - 5.288901) <= 1e-5]
        assert rows == sorted((c.length, c.class_count) for c in table_corpus()
                              if abs(c.length - 5.288901) <= 1e-5)
        assert len(rows) == 2
        assert len(spec) == 27 and spec.total_multiplicity == 51

    def test_file_roundtrip(self, tmp_path):
        spec = to_spectrum(table_corpus(), provenance="table_corpus")
        path = tmp_path / "corpus.txt"
        path.write_text("\n".join(spectrum_file_lines(spec)) + "\n")
        back = read_spectrum_file(str(path))
        assert back == spec and hash(back) == hash(spec)

    def test_json_export(self):
        payload = json.loads(classes_to_json(table_corpus()))
        assert len(payload) == 27
        assert payload[0]["word"] == "RL"
        assert payload[0]["class_count"] == 1
        assert payload[0]["length"] == pytest.approx(0.983987, abs=1e-5)
