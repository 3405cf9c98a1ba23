"""Porter suffix-stripping stemmer.

Self-contained implementation of the classic five-step algorithm, matching
the behavior of the widely circulated ANSI-C reference port (including its
conventional departures: words of length <= 2 are left alone, ``bli``/``logi``
rules in step 2).
"""

from __future__ import annotations

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    c = word[i]
    if c in _VOWELS:
        return False
    if c == "y":
        # 'y' is a consonant at the start, otherwise the opposite of its
        # predecessor: "syzygy" alternates.
        return True if i == 0 else not _is_consonant(word, i - 1)
    return True


class _Forms(dict):
    """``str.translate`` table of each letter's form: ``v`` for a vowel,
    ``c`` for a consonant and ``y`` for a ``y``, whose form depends on its
    predecessor; any other character is a consonant."""

    def __missing__(self, key: int) -> str:
        return "c"


_FORMS = _Forms({ord(c): "v" if c in _VOWELS else "y" if c == "y" else "c"
                 for c in "abcdefghijklmnopqrstuvwxyz"})


def _forms(word: str) -> str:
    """Each character's form, ``c`` or ``v``, as :func:`_is_consonant` has it."""
    forms = word.translate(_FORMS)
    if "y" not in forms:
        return forms
    chars = list(forms)
    for i, c in enumerate(chars):
        if c == "y":  # a consonant at the start or after a vowel, else a vowel
            chars[i] = "c" if i == 0 or chars[i - 1] == "v" else "v"
    return "".join(chars)


def _measure(stem: str) -> int:
    """Number of vowel-consonant sequences: [C](VC)^m[V]."""
    return _forms(stem).count("vc")


def _has_vowel(stem: str) -> bool:
    return "v" in _forms(stem)


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    # consonant-vowel-consonant where the final consonant is not w, x or y;
    # restores an 'e' so e.g. hop(e) and fil(e) keep their stems apart.
    if len(word) < 3:
        return False
    i = len(word) - 1
    return (
        _is_consonant(word, i)
        and not _is_consonant(word, i - 1)
        and _is_consonant(word, i - 2)
        and word[i] not in "wxy"
    )


def _step1ab(word: str) -> str:
    if word.endswith("s"):
        if word.endswith("sses"):
            word = word[:-2]
        elif word.endswith("ies"):
            word = word[:-3] + "i"
        elif not word.endswith("ss"):
            word = word[:-1]
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            word = word[:-1]
    else:
        stem = None
        if word.endswith("ed") and _has_vowel(word[:-2]):
            stem = word[:-2]
        elif word.endswith("ing") and _has_vowel(word[:-3]):
            stem = word[:-3]
        if stem is not None:
            word = stem
            if word.endswith(("at", "bl", "iz")):
                word += "e"
            elif _ends_double_consonant(word):
                if word[-1] not in "lsz":
                    word = word[:-1]
            elif _measure(word) == 1 and _ends_cvc(word):
                word += "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        word = word[:-1] + "i"
    return word


# (suffix, replacement) pairs; within each step the first suffix match wins,
# and the rewrite applies only if measure(stem) clears the step's threshold.
_STEP2 = (
    ("ational", "ate"), ("tional", "tion"),
    ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"),
    ("bli", "ble"),
    ("alli", "al"), ("entli", "ent"), ("eli", "e"), ("ousli", "ous"),
    ("ization", "ize"), ("ation", "ate"), ("ator", "ate"),
    ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"), ("ousness", "ous"),
    ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
    ("logi", "log"),
)

_STEP3 = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"),
    ("iciti", "ic"), ("ical", "ic"),
    ("ful", ""), ("ness", ""),
)

_STEP4 = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant",
    "ement", "ment", "ent", "ion", "ou", "ism", "ate", "iti",
    "ous", "ive", "ize",
)


# each step's suffixes, so that one endswith() rejects a word no rule matches
_STEP2_SUFFIXES = tuple(suffix for suffix, _ in _STEP2)
_STEP3_SUFFIXES = tuple(suffix for suffix, _ in _STEP3)


def _map_suffix(word: str, rules, suffixes: tuple[str, ...], min_measure: int) -> str:
    if not word.endswith(suffixes):
        return word
    for suffix, repl in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > min_measure - 1:
                return stem + repl
            return word
    return word


def _step4(word: str) -> str:
    if not word.endswith(_STEP4):
        return word
    for suffix in _STEP4:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if suffix == "ion" and (not stem or stem[-1] not in "st"):
                return word
            if _measure(stem) > 1:
                return stem
            return word
    return word


def _step5(word: str) -> str:
    if word.endswith("e"):
        m = _measure(word)
        if m > 1 or (m == 1 and not _ends_cvc(word[:-1])):
            word = word[:-1]
    if word.endswith("ll") and _measure(word) > 1:
        word = word[:-1]
    return word


# every suffix some step tests a word for: a word that ends in none of them
# passes every step unchanged
_STEP_SUFFIXES = ("s", "eed", "ed", "ing", "y", *_STEP2_SUFFIXES, *_STEP3_SUFFIXES, *_STEP4,
                  "e", "ll")
# the same test, without the suffixes that end in a shorter one of them
_ANY_STEP = tuple(suffix for suffix in _STEP_SUFFIXES
                  if not any(suffix != other and suffix.endswith(other)
                             for other in _STEP_SUFFIXES))


def stem(word: str) -> str:
    """Stem a single lowercase term; terms of length <= 2 pass through."""
    word = word.lower()
    if len(word) <= 2 or not word.endswith(_ANY_STEP):
        return word
    word = _step1ab(word)
    word = _step1c(word)
    word = _map_suffix(word, _STEP2, _STEP2_SUFFIXES, 1)
    word = _map_suffix(word, _STEP3, _STEP3_SUFFIXES, 1)
    word = _step4(word)
    word = _step5(word)
    return word
