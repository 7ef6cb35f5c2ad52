"""Deterministic synthetic corpora for smoke tests and pipeline checks.

Sentences are built from language-tagged pseudo-words so any scaffold can
be traced back to (language, record) by eye. Everything derives from the
seed; two calls with equal arguments produce equal corpora.
"""

from __future__ import annotations

import random

from .corpus import Language, MultiParallelCorpus, BilingualCorpus
from .errors import ValidationError

_SCRIPTS = ("Latn", "Cyrl", "Deva", "Arab", "Tibt", "Hans")


def synth_languages(n_langs: int) -> list[Language]:
    """English first (always in-pretrain), then alternating in/out languages
    with log-spaced pretraining sizes; out-of-pretrain sizes are 0."""
    if n_langs < 1:
        raise ValidationError("need at least 1 language")
    langs = [Language("eng_Latn", in_pretrain=True, pretrain_size=10**9)]
    for i in range(1, n_langs):
        script = _SCRIPTS[i % len(_SCRIPTS)]
        in_pretrain = i % 2 == 1
        size = 10 ** (5 + i % 4) if in_pretrain else 0
        langs.append(Language(f"l{i:02d}_{script}", in_pretrain=in_pretrain, pretrain_size=size))
    return langs


def synth_multiparallel(n_langs: int, n_records: int, seed: int = 0) -> MultiParallelCorpus:
    if n_records < 1:
        raise ValidationError("need at least 1 record")
    langs = synth_languages(n_langs)
    rng = random.Random(seed)
    texts: list[list[str]] = [[] for _ in langs]
    for i in range(n_records):
        base_len = rng.randint(4, 12)
        for lang, column in zip(langs, texts):
            tag = lang.code.split("_")[0]
            # lengths vary a little across languages of the same record
            length = max(1, base_len + (hash_offset(lang.code, i) % 3) - 1)
            words = " ".join(f"{tag}r{i}w{j}" for j in range(length))
            column.append(f"{tag} {words}")
    return MultiParallelCorpus(langs, texts)


def hash_offset(code: str, i: int) -> int:
    # stable across processes, unlike builtin hash() with PYTHONHASHSEED
    total = i
    for ch in code:
        total = (total * 31 + ord(ch)) % 997
    return total


def synth_bilingual(n_pairs: int, seed: int = 0) -> BilingualCorpus:
    """Source/target pair corpus shaped like a low-resource setup."""
    if n_pairs < 1:
        raise ValidationError("need at least 1 pair")
    rng = random.Random(seed)
    pairs = []
    for i in range(n_pairs):
        n_src = rng.randint(3, 10)
        n_tgt = rng.randint(4, 14)
        src = "་".join(f"སr{i}w{j}" for j in range(n_src))
        tgt = " ".join(f"engr{i}w{j}" for j in range(n_tgt))
        pairs.append((src, tgt))
    return BilingualCorpus(
        source_lang=Language("bod_Tibt"),
        target_lang=Language("eng_Latn", in_pretrain=True, pretrain_size=10**9),
        pairs=tuple(pairs),
    )
