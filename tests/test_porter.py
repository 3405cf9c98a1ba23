"""Stemmer behavior against values frozen from the canonical reference
implementation (the widely circulated ANSI-C port)."""

import pytest
from hypothesis import given, settings, strategies as st

from bugloc import porter
from bugloc.porter import stem

# (word, stem) pairs computed once with the reference implementation and
# frozen here; they cover every step of the algorithm including the
# conventional departures (bli/logi rules, short-word passthrough).
REFERENCE_PAIRS = [
    ("connected", "connect"), ("connecting", "connect"), ("connection", "connect"), ("connections", "connect"),
    ("running", "run"), ("runner", "runner"), ("ponies", "poni"), ("ties", "ti"),
    ("caresses", "caress"), ("cats", "cat"), ("feed", "feed"), ("agreed", "agre"),
    ("plastered", "plaster"), ("bled", "bled"), ("motoring", "motor"), ("sing", "sing"),
    ("conflated", "conflat"), ("troubled", "troubl"), ("sized", "size"), ("hopping", "hop"),
    ("tanned", "tan"), ("falling", "fall"), ("hissing", "hiss"), ("fizzed", "fizz"),
    ("failing", "fail"), ("filing", "file"), ("happy", "happi"), ("sky", "sky"),
    ("relational", "relat"), ("conditional", "condit"), ("rational", "ration"), ("valenci", "valenc"),
    ("hesitanci", "hesit"), ("digitizer", "digit"), ("conformabli", "conform"), ("radicalli", "radic"),
    ("differentli", "differ"), ("vileli", "vile"), ("analogousli", "analog"), ("vietnamization", "vietnam"),
    ("predication", "predic"), ("operator", "oper"), ("feudalism", "feudal"), ("decisiveness", "decis"),
    ("hopefulness", "hope"), ("callousness", "callous"), ("formaliti", "formal"), ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"), ("triplicate", "triplic"), ("formative", "form"), ("formalize", "formal"),
    ("electriciti", "electr"), ("electrical", "electr"), ("hopeful", "hope"), ("goodness", "good"),
    ("revival", "reviv"), ("allowance", "allow"), ("inference", "infer"), ("airliner", "airlin"),
    ("gyroscopical", "gyroscop"), ("adjustable", "adjust"), ("defensible", "defens"), ("irritant", "irrit"),
    ("replacement", "replac"), ("adjustment", "adjust"), ("dependent", "depend"), ("adoption", "adopt"),
    ("homologou", "homolog"), ("communism", "commun"), ("activate", "activ"), ("angulariti", "angular"),
    ("homologous", "homolog"), ("effective", "effect"), ("bowdlerize", "bowdler"), ("probate", "probat"),
    ("rate", "rate"), ("cease", "ceas"), ("controll", "control"), ("roll", "roll"),
    ("generalization", "gener"), ("oscillators", "oscil"), ("exception", "except"), ("localization", "local"),
    ("preprocessing", "preprocess"), ("vectorizer", "vector"), ("similarity", "similar"),
]


@pytest.mark.parametrize("word,expected", REFERENCE_PAIRS)
def test_matches_reference(word, expected):
    assert stem(word) == expected


def test_fixed_point_word():
    assert stem("run") == "run"


def test_short_words_pass_through():
    assert stem("a") == "a"
    assert stem("io") == "io"
    assert stem("as") == "as"


def test_lowercases_input():
    assert stem("Connected") == "connect"


def _loop_map_suffix(word, rules, suffixes, min_measure):
    """The step 2 and 3 rule loop without the one-endswith() reject."""
    for suffix, repl in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if porter._measure(stem) > min_measure - 1:
                return stem + repl
            return word
    return word


def _loop_step4(word):
    """The step 4 rule loop without the one-endswith() reject."""
    for suffix in porter._STEP4:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if suffix == "ion" and (not stem or stem[-1] not in "st"):
                return word
            if porter._measure(stem) > 1:
                return stem
            return word
    return word


def test_reject_tuples_are_the_rule_suffixes():
    assert porter._STEP2_SUFFIXES == tuple(suffix for suffix, _ in porter._STEP2)
    assert porter._STEP3_SUFFIXES == tuple(suffix for suffix, _ in porter._STEP3)


# every rule's suffix, and what steps 2 and 3 rewrite to, which a later step may match
_SUFFIXES = sorted({*porter._STEP4, *(part for rule in porter._STEP2 + porter._STEP3
                                      for part in rule)})
_suffixed = st.builds(lambda stem, suffix, tail: stem + suffix + tail,
                      st.text("abcdefghilmnorstuvyz", max_size=8), st.sampled_from(_SUFFIXES),
                      st.sampled_from(["", "", "s", "es", "ed", "ing", "ly", "y", "e"]))


def _plain_stems(words):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(porter, "_map_suffix", _loop_map_suffix)
        mp.setattr(porter, "_step4", _loop_step4)
        return [stem(w) for w in words]


def test_quick_reject_equals_the_plain_rule_loop_on_every_suffix():
    words = [stem + suffix + tail for stem in ("", "b", "ar", "tr", "conv", "gener", "ss")
             for suffix in _SUFFIXES for tail in ("", "s", "ed", "ing", "y")]
    assert [stem(w) for w in words] == _plain_stems(words)


@settings(max_examples=500, deadline=None)
@given(st.lists(_suffixed, min_size=1, max_size=20))
def test_quick_reject_equals_the_plain_rule_loop(words):
    assert [stem(w) for w in words] == _plain_stems(words)


def _loop_measure(stem):
    """Number of vowel-consonant sequences, counted by the character loop
    that the consonant/vowel string of ``porter._measure`` replaced."""
    i, n = 0, 0
    length = len(stem)
    while i < length and porter._is_consonant(stem, i):
        i += 1
    while i < length:
        while i < length and not porter._is_consonant(stem, i):
            i += 1
        if i >= length:
            break
        n += 1
        while i < length and porter._is_consonant(stem, i):
            i += 1
    return n


@settings(max_examples=2000, deadline=None)
@given(st.one_of(st.text("aeiouyybcdrstYA", max_size=14), st.text(max_size=10)))
def test_measure_equals_the_character_loop(word):
    assert porter._measure(word) == _loop_measure(word)
    assert porter._has_vowel(word) == any(not porter._is_consonant(word, i)
                                          for i in range(len(word)))


@pytest.mark.parametrize("word,m", [("tr", 0), ("ee", 0), ("tree", 0), ("y", 0), ("by", 0),
                                    ("trouble", 1), ("oats", 1), ("trees", 1), ("ivy", 1),
                                    ("troubles", 2), ("private", 2), ("oaten", 2),
                                    ("syzygy", 2), ("yyy", 1)])
def test_measure_of_the_paper_examples(word, m):
    assert porter._measure(word) == m


def _every_step(word):
    """``stem`` without its test for a word that no step can change."""
    word = word.lower()
    if len(word) <= 2:
        return word
    for step in (porter._step1ab, porter._step1c,
                 lambda w: porter._map_suffix(w, porter._STEP2, porter._STEP2_SUFFIXES, 1),
                 lambda w: porter._map_suffix(w, porter._STEP3, porter._STEP3_SUFFIXES, 1),
                 porter._step4, porter._step5):
        word = step(word)
    return word


def test_a_word_no_step_tests_is_its_own_stem_on_every_suffix():
    assert all(word.endswith(porter._ANY_STEP) for word in porter._STEP_SUFFIXES)
    words = [stem + suffix + tail for stem in ("", "b", "ar", "tr", "conv", "gener", "ss")
             for suffix in (*_SUFFIXES, "ll", "e", "y", "eed", "x", "ow", "um", "ght")
             for tail in ("", "s", "ed", "ing", "y", "k")]
    assert [stem(w) for w in words] == [_every_step(w) for w in words]


@settings(max_examples=2000, deadline=None)
@given(st.one_of(_suffixed, st.text("abcdefgiklmnorstuwyzAE", max_size=12)))
def test_a_word_no_step_tests_is_its_own_stem(word):
    assert stem(word) == _every_step(word)
