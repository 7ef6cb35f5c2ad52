"""Seeded input generators for the benchmark workloads.

Everything here derives from one integer seed through ``random.Random`` and
is written to disk before the workload process starts; reformkit only ever
sees the files. The generator does not use ``reformkit.synth``.

Text model: a record is a list of concept ids drawn from a Zipf law, and
each language renders a concept through its own vocabulary, in its own
script, with its own word separator:

  - Latn, Cyrl, Arab, Deva: words separated by spaces
  - Tibt: syllables separated by the tsheg (U+0F0B, sometimes U+0F0C),
    clauses closed by a shad and a space
  - Hans: no separators at all, so a whole sentence is one unit

All emitted text is NFC-stable, has no tabs or newlines, and no edge
whitespace, so what reformkit loads equals what was written.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import unicodedata
from pathlib import Path

TSHEG = "་"
TSHEG_NB = "༌"
SHAD = "།"

# Every syllable of a script has the same number of code points, and a
# word's syllable count follows from its frequency rank (the ten most frequent
# words have one, the rest two or three), so the text volume a workload
# processes hardly depends on the seed.
_LATN_ON = list("bcdfghjklmnprstvwz")
_LATN_NUC = list("aeiou")
_CYRL_ON = list("бвгдзклмнпрстфхцчш")
_CYRL_NUC = list("аеиоуыя")
_ARAB_ON = list("بتثجحخدذرزسشصضطظعغفقكلمنه")
_ARAB_NUC = list("اوي")
_DEVA_ON = list("कखगघचछजझटठडढतथदधनपफबभमयरलवशसह")
_DEVA_NUC = ["ा", "ि", "ी", "ु", "ू", "े", "ो"]
_TIBT_ON = list("ཀཁགངཅཆཇཉཏཐདནཔཕབམཙཚཛཝཞཟའཡརལཤསཧཨ")
_TIBT_NUC = ["ི", "ུ", "ེ", "ོ", "ག", "ང", "ད", "ན", "བ", "མ", "ར", "ལ", "ས"]
_SYLLABLES = {
    "Latn": (_LATN_ON, _LATN_NUC),
    "Cyrl": (_CYRL_ON, _CYRL_NUC),
    "Arab": (_ARAB_ON, _ARAB_NUC),
    "Deva": (_DEVA_ON, _DEVA_NUC),
    "Tibt": (_TIBT_ON, _TIBT_NUC),
}

SCRIPTS = ("Latn", "Cyrl", "Arab", "Deva", "Tibt", "Hans")
_STOP = {"Latn": ".", "Cyrl": ".", "Arab": ".", "Deva": "।", "Tibt": SHAD, "Hans": "。"}

VOCAB = 1200


def _syllable(rng: random.Random, script: str) -> str:
    if script == "Hans":
        return chr(0x4E00 + rng.randrange(0x5000))
    onsets, nuclei = _SYLLABLES[script]
    return rng.choice(onsets) + rng.choice(nuclei)


def _vocab(rng: random.Random, script: str) -> list[str]:
    """VOCAB distinct words; Tibetan syllables are joined by the tsheg."""
    joiner = TSHEG if script == "Tibt" else ""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < VOCAB:
        rank = len(words)
        n = 1 if rank < 10 else 2 + rank % 2
        word = joiner.join(_syllable(rng, script) for _ in range(n))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class Language:
    """One generated language: code, script, vocabulary, pretraining metadata."""

    def __init__(self, code: str, script: str, rng: random.Random, in_pretrain: bool, size: int):
        self.code = code
        self.script = script
        self.vocab = _vocab(rng, script)
        self.in_pretrain = in_pretrain
        self.pretrain_size = size

    def render(self, concepts: list[int], rng: random.Random) -> str:
        words = [self.vocab[c] for c in concepts]
        stop = _STOP[self.script]
        if self.script == "Hans":
            return "".join(words) + stop
        if self.script == "Tibt":
            out = []
            for i, w in enumerate(words):
                out.append(w)
                if i + 1 < len(words):
                    if rng.random() < 0.08:
                        out.append(SHAD + " ")
                    else:
                        out.append(TSHEG_NB if rng.random() < 0.03 else TSHEG)
            return "".join(out) + stop
        if self.script == "Latn":
            words[0] = words[0][:1].upper() + words[0][1:]
        return " ".join(words) + stop

    def manifest_entry(self) -> dict:
        return {"code": self.code, "in_pretrain": self.in_pretrain, "pretrain_size": self.pretrain_size}


def make_languages(rng: random.Random, n: int) -> list[Language]:
    """``eng_Latn`` first, then ``n - 1`` distinct codes over the six scripts.

    About half the languages are in pretraining; a tenth of those have an
    unknown (0) pretraining size, which the scatter must exclude.
    """
    langs = [Language("eng_Latn", "Latn", rng, True, 10**9)]
    seen = {"eng_Latn"}
    letters = "abcdefghijklmnopqrstuvwxyz"
    while len(langs) < n:
        script = SCRIPTS[len(langs) % len(SCRIPTS)]
        code = "".join(rng.choice(letters) for _ in range(3)) + "_" + script
        if code in seen:
            continue
        seen.add(code)
        in_pretrain = rng.random() < 0.5
        size = 0
        if in_pretrain and rng.random() >= 0.1:
            size = int(10 ** rng.uniform(4, 9))
        langs.append(Language(code, script, rng, in_pretrain, size))
    return langs


def _zipf_cum() -> list[float]:
    cum, total = [], 0.0
    for i in range(VOCAB):
        total += 1.0 / (i + 1) ** 1.05
        cum.append(total)
    return cum


_CUM = _zipf_cum()


def concept_lists(rng: random.Random, n: int, median_len: float, lo: int, hi: int) -> list[list[int]]:
    """``n`` distinct concept sequences whose lengths are the n quantiles of a
    log-normal law (sigma 0.5) clipped to [lo, hi], in seeded order."""
    law = statistics.NormalDist(math.log(median_len), 0.5)
    lengths = [min(hi, max(lo, int(math.exp(law.inv_cdf((i + 0.5) / n))))) for i in range(n)]
    rng.shuffle(lengths)
    out, seen = [], set()
    while len(out) < n:
        length = lengths[len(out)]
        concepts = rng.choices(range(VOCAB), cum_weights=_CUM, k=length)
        key = tuple(concepts)
        if key in seen:
            continue
        seen.add(key)
        out.append(concepts)
    return out


def _check_text(text: str) -> str:
    if unicodedata.normalize("NFC", text) != text or "\t" in text or "\n" in text:
        raise ValueError(f"generator produced text reformkit would alter: {text!r}")
    return text


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8", newline="\n")


# ------------------------------------------------------------ workloads


def gen_tib2eng(out: Path, seed: int, n_pairs: int) -> dict:
    """Bilingual Tibetan-shaped -> English-shaped TSV corpus.

    Sources and targets are each unique, so a shard line can be traced back
    to its corpus row by its target text.
    """
    rng = random.Random(seed)
    bod = Language("bod_Tibt", "Tibt", rng, False, 0)
    eng = Language("eng_Latn", "Latn", rng, True, 10**9)
    rows, srcs, tgts = [], set(), set()
    # a few spare sequences stand in for the rare pair that repeats a target
    for concepts in concept_lists(rng, n_pairs + n_pairs // 100, 14.0, 3, 90):
        if len(rows) == n_pairs:
            break
        src = _check_text(bod.render(concepts, rng))
        # English-shaped targets drop or add a word relative to the source
        tgt_concepts = list(concepts)
        if len(tgt_concepts) > 3 and rng.random() < 0.3:
            del tgt_concepts[rng.randrange(len(tgt_concepts))]
        if rng.random() < 0.3:
            tgt_concepts.insert(rng.randrange(len(tgt_concepts) + 1), rng.randrange(VOCAB))
        tgt = _check_text(eng.render(tgt_concepts, rng))
        if src in srcs or tgt in tgts:
            continue
        srcs.add(src)
        tgts.add(tgt)
        rows.append(f"{src}\t{tgt}")
    if len(rows) != n_pairs:
        raise ValueError("could not draw enough distinct pairs")
    out.mkdir(parents=True, exist_ok=True)
    _write_lines(out / "corpus.tsv", rows)
    return {"pairs": n_pairs}


def gen_multiparallel(out: Path, seed: int, n_langs: int, n_records: int) -> dict:
    """FLORES-shaped corpus: one ``<code>.txt`` per language plus manifest.json."""
    rng = random.Random(seed)
    langs = make_languages(rng, n_langs)
    records = concept_lists(rng, n_records, 18.0, 4, 40)
    out.mkdir(parents=True, exist_ok=True)
    for lang in langs:
        _write_lines(out / f"{lang.code}.txt", [_check_text(lang.render(c, rng)) for c in records])
    (out / "manifest.json").write_text(
        json.dumps([lang.manifest_entry() for lang in langs], indent=1) + "\n", encoding="utf-8"
    )
    return {"languages": n_langs, "records": n_records}


def perturb(sentence: str, rng: random.Random, vocab: list[str]) -> str:
    """A plausible system output: dropped, replaced, swapped and misspelt words."""
    words = sentence.split()
    out = []
    for w in words:
        r = rng.random()
        if r < 0.08:
            continue
        if r < 0.18:
            w = rng.choice(vocab)
        elif r < 0.23 and len(w) > 2:
            i = rng.randrange(len(w) - 1)
            w = w[:i] + w[i + 1] + w[i] + w[i + 2 :]
        out.append(w)
    if len(out) > 2 and rng.random() < 0.3:
        i = rng.randrange(len(out) - 1)
        out[i], out[i + 1] = out[i + 1], out[i]
    return " ".join(out) if out else words[0]


def gen_eval(out: Path, seed: int, n_langs: int, n_sents: int, n_dirs: int) -> dict:
    """Reference files, perturbed hypotheses for ``n_dirs`` directions, and a
    TSV of synthetic scores for all n_langs * (n_langs - 1) directions."""
    rng = random.Random(seed)
    langs = make_languages(rng, n_langs)
    # targets cycle through the space-separated scripts, so every seed scores
    # the same mix of scripts (decoding and n-gram costs differ by script)
    scripts = ("Latn", "Cyrl", "Arab", "Deva")
    targets = []
    for i in range(n_dirs):
        pool = [lang for lang in langs if lang.script == scripts[i % len(scripts)] and lang not in targets]
        targets.append(rng.choice(pool))
    records = concept_lists(rng, n_sents, 18.0, 4, 70)
    (out / "ref").mkdir(parents=True, exist_ok=True)
    (out / "hyp").mkdir(parents=True, exist_ok=True)
    directions = []
    for tgt in targets:
        src = rng.choice([lang for lang in langs if lang is not tgt])
        refs = [_check_text(tgt.render(c, rng)) for c in records]
        hyps = [_check_text(perturb(r, rng, tgt.vocab)) for r in refs]
        _write_lines(out / "ref" / f"{tgt.code}.txt", refs)
        _write_lines(out / "hyp" / f"{src.code}-{tgt.code}.txt", hyps)
        directions.append([src.code, tgt.code])
    (out / "directions.json").write_text(json.dumps(directions) + "\n", encoding="utf-8")
    (out / "manifest.json").write_text(
        json.dumps([lang.manifest_entry() for lang in langs], indent=1) + "\n", encoding="utf-8"
    )
    # score model: a per-language quality for each side plus noise
    quality = {lang.code: rng.uniform(5, 45) + (10 if lang.in_pretrain else 0) for lang in langs}
    lines = ["src\ttgt\tvalue\tn"]
    for s in langs:
        for t in langs:
            if s is t:
                continue
            value = min(100.0, max(0.0, 0.5 * quality[s.code] + 0.5 * quality[t.code] + rng.gauss(0, 4)))
            lines.append(f"{s.code}\t{t.code}\t{value:.4f}\t{n_sents}")
    _write_lines(out / "scores.tsv", lines)
    return {"languages": n_langs, "sentences": n_sents, "directions": n_dirs, "tsv_rows": len(lines) - 1}
