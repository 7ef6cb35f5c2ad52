"""The three workloads: set-up, one round of timed operations, fault probes,
and checks of every output against independent computations.

A round is a fixed list of operations on fixed inputs, so every round of a
run must give the same outputs; the checks compare each round's fingerprint
with the first and then check the outputs of the last round in full.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import random
import re
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import reformkit as rk
import reformkit.cli
from reformkit.schedule import curriculum1, mix

import oracles
from oracles import count_units, prefix_units, round_half_up, suffix_units

PIVOT = "eng_Latn"
SENTINEL = re.compile(r"<extra_id_(\d+)>")

# Input sizes. "small" runs every workload end to end in seconds.
SIZES = {
    "full": {
        "tib2eng_scaffold": {"pairs": 20_000, "n_train": 3_000, "n_eval": 300, "batch": 50, "max_len": 64},
        "flores_parallel": {
            "langs": 204, "records": 1_000, "n_train": 6_000, "n_eval": 400, "batch": 100, "shard": 3_000,
        },
        "flores_eval": {"langs": 204, "sentences": 1_012, "directions": 4},
    },
    "small": {
        "tib2eng_scaffold": {"pairs": 1_500, "n_train": 300, "n_eval": 30, "batch": 10, "max_len": 64},
        "flores_parallel": {"langs": 24, "records": 120, "n_train": 400, "n_eval": 40, "batch": 20, "shard": 200},
        "flores_eval": {"langs": 24, "sentences": 80, "directions": 2},
    },
}

# The fault probes run on inputs that do not depend on the run's seed.
PROBE_SEED = 0
PROBE_PAIRS = 1_200

# The host's CPU speed can change by 2x for seconds at a time on a shared
# machine. A fixed pure-Python reference loop timed just before and just
# after each operation measures that speed; "ref" times are wall times scaled
# to a machine on which the loop takes REF_LOOP_S.
REF_LOOP_S = 0.010
REF_LOOP_ITERS = 30_000


def reference_loop() -> float:
    """Wall seconds of a fixed task of the program's kind: strings, dicts, lists."""
    t0 = time.perf_counter()
    counts: dict = {}
    row: list = []
    for i in range(REF_LOOP_ITERS):
        key = "w" + str(i % 1009)
        counts[key] = counts.get(key, 0) + 1
        row.append((key, i))
        if len(row) == 64:
            row = []
    return time.perf_counter() - t0


def _twin_main(conn) -> None:
    """Helper process: run the reference loop each time it is asked."""
    while conn.recv():
        conn.send(reference_loop())


class TwinLoop:
    """The reference loop on both CPUs at once, for operations that run on 2
    workers. Such an operation waits for the slower CPU, so the slower of the
    two loops stands for the host's speed; over 6 seeds of flores_parallel
    this left a 4% spread of the ref round time, against 10% when only this
    process ran the loop."""

    def __init__(self) -> None:
        ctx = multiprocessing.get_context("spawn")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=_twin_main, args=(child,), daemon=True)
        self._proc.start()

    def __call__(self) -> float:
        self._conn.send(True)
        mine = reference_loop()
        return max(mine, self._conn.recv())

    def close(self) -> None:
        self._conn.send(False)
        self._proc.join(timeout=10)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()


def ref_scale(before: float, after: float) -> float:
    """Factor from wall seconds to ref seconds for work between two loops."""
    return REF_LOOP_S / ((before + after) / 2)


@dataclass
class Round:
    """Timings and output fingerprint of one round."""

    seconds: dict = field(default_factory=dict)  # op -> wall seconds
    ref_seconds: dict = field(default_factory=dict)  # op -> ref seconds
    items: dict = field(default_factory=dict)  # op -> examples / pairs / directions
    fingerprint: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    quiet: object = contextlib.nullcontext  # context the untimed probes run in
    ref_loop: object = reference_loop  # seconds of the reference loop, now

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    @property
    def ref_total(self) -> float:
        return sum(self.ref_seconds.values())

    def run(self, op: str, items: int, call):
        """Time one operation; an exception counts it as failed."""
        self.attempted += 1
        before = self.ref_loop()
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception:
            self.failed += 1
            self.notes.append(f"{op} failed:\n{traceback.format_exc()}")
            return None
        elapsed = time.perf_counter() - t0
        self.seconds[op] = self.seconds.get(op, 0.0) + elapsed
        self.ref_seconds[op] = self.ref_seconds.get(op, 0.0) + elapsed * ref_scale(before, self.ref_loop())
        self.items[op] = self.items.get(op, 0) + items
        return result

    def probe(self, name: str, check) -> None:
        """Run a fault probe (untimed); a False result or an error fails it."""
        self.attempted += 1
        try:
            with self.quiet():
                passed, detail = check()
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        if not passed:
            self.failed += 1
            self.notes.append(f"probe {name} failed: {detail}")


def _read_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _shard_digests(manifest) -> dict:
    return {
        split: [s["sha256"] for s in info["shards"]] for split, info in manifest.splits.items()
    }


def _check_build_on_disk(out: Path, manifest, errors: list, label: str) -> dict:
    """SHA-256 of every shard against manifest.json; returns examples per split."""
    on_disk = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    if on_disk != json.loads(json.dumps(manifest.as_dict())):
        errors.append(f"{label}: manifest.json differs from the returned manifest")
    examples = {}
    for split, info in on_disk["splits"].items():
        rows = []
        for shard in info["shards"]:
            data = (out / shard["path"]).read_bytes()
            if hashlib.sha256(data).hexdigest() != shard["sha256"]:
                errors.append(f"{label}: {shard['path']} does not match its manifest digest")
            shard_rows = [json.loads(line) for line in data.decode("utf-8").splitlines()]
            if len(shard_rows) != shard["n_examples"]:
                errors.append(f"{label}: {shard['path']} holds {len(shard_rows)} examples, manifest says {shard['n_examples']}")
            rows.extend(shard_rows)
        if len(rows) != info["n_examples"]:
            errors.append(f"{label}: {split} holds {len(rows)} examples, manifest says {info['n_examples']}")
        truncated = sum(bool(r["meta"]["truncated"]) for r in rows)
        if truncated != info["truncated"]:
            errors.append(f"{label}: {split} has {truncated} truncated examples, manifest says {info['truncated']}")
        examples[split] = rows
    return examples


def _within_binomial(hits: int, n: int, p: float, sigmas: float = 5.0) -> bool:
    return n > 0 and abs(hits / n - p) <= sigmas * math.sqrt(p * (1 - p) / n)


def _compare(errors: list, label: str, got: float, want: float, tol: float = 1e-9) -> None:
    if not math.isclose(got, want, rel_tol=tol, abs_tol=tol):
        errors.append(f"{label}: got {got!r}, independent computation gives {want!r}")


class Workload:
    """Base: subclasses set ``name``, ``workers`` and ``ops`` (op, metric, unit)."""

    name = ""
    workers = 1
    ops: tuple = ()

    def __init__(self, data: Path, work: Path, size: dict, seed: int):
        self.data, self.work, self.size, self.seed = data, work, size, seed

    def examples_built(self) -> int:
        return 0

    def stats_examples(self) -> int:
        return 0

    def layer_counts(self) -> dict:
        return {"builder.truncated_per_example": 0.0, "builder.shard_bytes_per_example": 0.0}

    def close(self) -> None:
        """Stop any helper process the workload started."""


# -------------------------------------------------------------- tib2eng


class Tib2EngScaffold(Workload):
    """pose / prefix_suffix / mask4 builds on a bilingual corpus, a stats
    recount of their train shards, and the two fault probes."""

    name = "tib2eng_scaffold"
    ops = (
        ("pose", "pose_ex_per_s", "examples/s"),
        ("prefix_suffix", "prefix_suffix_ex_per_s", "examples/s"),
        ("mask4", "mask4_ex_per_s", "examples/s"),
        ("stats", "stats_ex_per_s", "examples/s"),
    )

    def __init__(self, *args):
        super().__init__(*args)
        s = self.size
        common = dict(
            task="bilingual", n_train=s["n_train"], n_valid=s["n_eval"], n_test=s["n_eval"],
            batch_size=s["batch"], seed=self.seed, max_len=s["max_len"],
        )
        self.configs = {
            "pose": rk.BuildConfig(reform="pose", schedule=curriculum1(1), **common),
            "prefix_suffix": rk.BuildConfig(reform="prefix_suffix", **common),
            "mask4": rk.BuildConfig(reform="mask4", **common),
        }
        self.corpus = None
        self.probe_corpus = None
        self.manifests: dict = {}
        self.stats_result = None

    def setup(self) -> None:
        self.corpus = rk.load_bilingual(self.data / "corpus.tsv", "tsv")

    def release(self) -> None:
        self.corpus = None

    def _per_build(self) -> int:
        s = self.size
        return s["n_train"] + 2 * s["n_eval"]

    def examples_built(self) -> int:
        return len(self.configs) * self._per_build()

    def stats_examples(self) -> int:
        return len(self.configs) * self.size["n_train"]

    def round(self, workers: int, quiet=contextlib.nullcontext) -> Round:
        r = Round(quiet=quiet)
        for kind, cfg in self.configs.items():
            out = self.work / kind
            shutil.rmtree(out, ignore_errors=True)
            manifest = r.run(kind, self._per_build(), lambda: rk.build(self.corpus, cfg, out, workers=workers))
            if manifest is not None:
                self.manifests[kind] = manifest
                r.fingerprint[kind] = _shard_digests(manifest)
        paths = sorted(p for kind in self.configs for p in (self.work / kind).glob("train-*.jsonl"))
        self.stats_result = r.run("stats", self.stats_examples(), lambda: rk.stats(paths))
        r.fingerprint["stats"] = self.stats_result
        r.probe("stale_shards", self._probe_stale_shards)
        r.probe("span_mask_rate", self._probe_span_mask_rate)
        return r

    # ---- fault probes (inputs fixed, independent of --seed)

    def _probe_inputs(self):
        if self.probe_corpus is None:
            self.probe_corpus = rk.load_bilingual(self.data / "probe" / "corpus.tsv", "tsv")
        return self.probe_corpus

    def _probe_stale_shards(self):
        """Build 1,000 then 500 train examples into one directory; the second
        build must refuse and leave the first intact, or leave no stale shard
        for a recount to find."""
        corpus = self._probe_inputs()
        out = self.work / "probe_stale"
        shutil.rmtree(out, ignore_errors=True)
        big = rk.BuildConfig(task="bilingual", reform="none", n_train=1000, batch_size=100, shard_size=500)
        first = rk.build(corpus, big, out)
        try:
            second = rk.build(corpus, replace(big, n_train=500), out)
        except rk.ReformkitError:
            intact = json.loads((out / "manifest.json").read_text(encoding="utf-8")) == json.loads(
                json.dumps(first.as_dict())
            )
            return intact, "refused, but the earlier build was not left intact"
        recount = rk.stats(sorted(out.glob("train-*.jsonl")))["n_examples"]
        want = second.splits["train"]["n_examples"]
        return recount == want, f"recount finds {recount} train examples, manifest says {want}"

    def _probe_span_mask_rate(self):
        """span_mask(p=0.9, mean_span=1) must reject the rate or deliver it."""
        corpus = self._probe_inputs()
        rng = random.Random(PROBE_SEED)
        src_lang, tgt_lang = rk.Language("bod_Tibt"), rk.Language("eng_Latn")
        masked = units = 0
        for src, tgt in corpus.pairs[:200]:
            example = rk.TranslationExample(src_lang, tgt_lang, src, tgt)
            try:
                out = rk.span_mask(example, 0.9, 1, rng)
            except rk.ValidationError:
                return True, "rejected"
            masked += out.meta["masked_units"]
            units += count_units(src)
        rate = masked / units
        return _within_binomial(masked, units, 0.9), f"realized mask rate {rate:.3f} over {units} units, asked 0.9"

    # ---- checks

    def check(self, errors: list) -> None:
        rows = [line.split("\t") for line in _read_lines(self.data / "corpus.tsv")]
        by_target = {tgt: src for src, tgt in rows}
        shards = {}
        for kind, cfg in self.configs.items():
            if kind not in self.manifests:
                continue
            examples = _check_build_on_disk(self.work / kind, self.manifests[kind], errors, kind)
            shards[kind] = examples
            seen = {}
            for split, split_rows in examples.items():
                targets = {row["target"] for row in split_rows}
                for other, other_targets in seen.items():
                    if targets & other_targets:
                        errors.append(f"{kind}: {split} and {other} share sentences")
                seen[split] = targets
                for i, row in enumerate(split_rows):
                    src = by_target.get(row["target"])
                    if src is None:
                        errors.append(f"{kind}/{split}[{i}]: target is not a corpus target")
                        continue
                    self._check_example(kind, cfg, split, i, row, src, errors)
                    if len(errors) > 20:
                        return
        if self.stats_result is not None and len(shards) == len(self.configs):
            self._check_stats(shards, errors)

    def _check_example(self, kind, cfg, split, i, row, src, errors) -> None:
        label = f"{kind}/{split}[{i}]"
        max_len = cfg.max_len
        meta, tgt = row["meta"], row["target"]
        total_steps = cfg.total_steps
        step = i // cfg.batch_size
        if split == "train" and meta.get("step_index") != step:
            errors.append(f"{label}: step_index {meta.get('step_index')} != {step}")
        if split != "train" or (kind == "mask4" and not 0.5 <= step / total_steps < 1.0):
            # baseline: the source, cut to max_len units if longer
            want = prefix_units(src, max_len) if count_units(src) > max_len else src
            if row["tag"] != "baseline" or row["input"] != want:
                errors.append(f"{label}: baseline example does not match the corpus row")
            if meta["truncated"] != (count_units(src) > max_len):
                errors.append(f"{label}: truncated flag disagrees with the unit count")
            return
        if kind == "mask4":
            self._check_masked(label, row, src, max_len, errors)
            return
        u = meta["prefix_fraction"]
        n = count_units(tgt)
        k = round_half_up(u * n)
        if kind == "pose":
            if u != 1.0 - step / total_steps:
                errors.append(f"{label}: prefix_fraction {u} != 1 - {step}/{total_steps}")
            parts = [src, prefix_units(tgt, k)]
        else:
            r = meta["front_share"]
            kp = round_half_up(r * k)
            ks = min(k - kp, n - kp)
            parts = [src, prefix_units(tgt, kp), suffix_units(tgt, ks)]
        full = "\n".join(p for p in parts if p)
        over = count_units(full) > max_len
        if row["tag"] != kind or meta["truncated"] != over:
            errors.append(f"{label}: tag {row['tag']} / truncated {meta['truncated']} unexpected")
        elif not over and row["input"] != full:
            errors.append(f"{label}: scaffold is not the first round-half-up(u*n) target units")
        elif over and not (count_units(row["input"]) <= max_len and full.startswith(row["input"])):
            errors.append(f"{label}: truncated input does not fit max_len or is not a cut of the scaffold")

    def _check_masked(self, label, row, src, max_len, errors) -> None:
        meta = row["meta"]
        unmasked = prefix_units(src, max_len) if count_units(src) > max_len else src
        numbers = [int(m) for m in SENTINEL.findall(row["input"])]
        if row["tag"] != "span_mask":
            errors.append(f"{label}: tag {row['tag']} inside the mask window")
        elif numbers != list(range(meta["span_count"])):
            errors.append(f"{label}: sentinels {numbers} are not 0..k-1 left to right")
        elif count_units(row["input"]) != count_units(unmasked) - meta["masked_units"] + meta["span_count"]:
            errors.append(f"{label}: units(masked) != units(unmasked) - masked_units + span_count")
        elif meta["truncated"] != (count_units(src) > max_len):
            errors.append(f"{label}: truncated flag disagrees with the unit count")

    def _check_stats(self, shards: dict, errors: list) -> None:
        train = [row for kind in self.configs for row in shards[kind]["train"]]
        got = self.stats_result
        tags: dict = {}
        for row in train:
            tags[row["tag"]] = tags.get(row["tag"], 0) + 1
        if got["n_examples"] != len(train) or got["tags"] != dict(sorted(tags.items())):
            errors.append(f"stats: counts {got['n_examples']} {got['tags']} differ from the shards")
            return
        for side, key in (("input", "input_length"), ("target", "target_length")):
            lengths = [count_units(row[side]) for row in train]
            _compare(errors, f"stats {key} mean", got[key]["mean"], math.fsum(lengths) / len(lengths))
            _compare(errors, f"stats {key} median", got[key]["median"], float(statistics.median(lengths)))

    def layer_counts(self) -> dict:
        built = truncated = shard_bytes = 0
        for kind in ("pose", "prefix_suffix"):
            for split in self.manifests[kind].splits.values():
                built += split["n_examples"]
                truncated += split["truncated"]
                shard_bytes += sum((self.work / kind / s["path"]).stat().st_size for s in split["shards"])
        return {
            "builder.truncated_per_example": truncated / built,
            "builder.shard_bytes_per_example": shard_bytes / built,
        }


# -------------------------------------------------------- flores_parallel


class FloresParallel(Workload):
    """parse and mips builds at the 80/20 mix over a 204-language corpus."""

    name = "flores_parallel"
    workers = 2
    ops = (
        ("parse", "parse_ex_per_s", "examples/s"),
        ("mips", "mips_ex_per_s", "examples/s"),
    )

    def __init__(self, *args):
        super().__init__(*args)
        s = self.size
        common = dict(
            task="multiparallel", n_train=s["n_train"], n_valid=s["n_eval"], n_test=s["n_eval"],
            batch_size=s["batch"], seed=self.seed, schedule=mix(0.8, 1), shard_size=s["shard"], pivot=PIVOT,
        )
        self.configs = {
            "parse": rk.BuildConfig(reform="parse", **common),
            "mips": rk.BuildConfig(reform="mips", **common),
        }
        self.corpus = None
        self.manifests: dict = {}
        self.twin = None

    def setup(self) -> None:
        self.corpus = rk.load_multiparallel(self.data / "corpus")

    def close(self) -> None:
        if self.twin is not None:
            self.twin.close()

    def release(self) -> None:
        self.corpus = None

    def _per_build(self) -> int:
        s = self.size
        return s["n_train"] + 2 * s["n_eval"]

    def examples_built(self) -> int:
        return len(self.configs) * self._per_build()

    def round(self, workers: int, quiet=contextlib.nullcontext) -> Round:
        r = Round()
        if workers > 1:
            self.twin = self.twin or TwinLoop()
            r.ref_loop = self.twin
        for kind, cfg in self.configs.items():
            out = self.work / kind
            shutil.rmtree(out, ignore_errors=True)
            manifest = r.run(kind, self._per_build(), lambda: rk.build(self.corpus, cfg, out, workers=workers))
            if manifest is not None:
                self.manifests[kind] = manifest
                r.fingerprint[kind] = _shard_digests(manifest)
        return r

    def check(self, errors: list) -> None:
        manifest = json.loads((self.data / "corpus" / "manifest.json").read_text(encoding="utf-8"))
        lines = {e["code"]: _read_lines(self.data / "corpus" / f"{e['code']}.txt") for e in manifest}
        for kind in self.configs:
            if kind not in self.manifests:
                continue
            examples = _check_build_on_disk(self.work / kind, self.manifests[kind], errors, kind)
            seen = {}
            reformed = eligible = 0
            for split, rows in examples.items():
                ids = {row["meta"]["sentence_id"] for row in rows}
                for other, other_ids in seen.items():
                    if ids & other_ids:
                        errors.append(f"{kind}: {split} and {other} share sentence ids")
                seen[split] = ids
                for i, row in enumerate(rows):
                    hit = self._check_example(kind, f"{kind}/{split}[{i}]", row, lines, split, errors)
                    if split == "train" and hit is not None:
                        eligible += 1
                        reformed += hit
                    if len(errors) > 20:
                        return
            if not _within_binomial(reformed, eligible, 0.8):
                errors.append(f"{kind}: reformulated share {reformed}/{eligible} outside 0.8 +- 5 sigma")

    def _check_example(self, kind, label, row, lines, split, errors):
        """Checks one example; returns whether it was reformulated, or None
        when it cannot be (a pivot pair under parse)."""
        meta = row["meta"]
        sid, src, tgt = meta["sentence_id"], meta["source_lang"], meta["target_lang"]
        if row["tag"] == "baseline":
            if row["input"] != lines[src][sid] or row["target"] != lines[tgt][sid]:
                errors.append(f"{label}: baseline example differs from the corpus files")
            if kind == "parse" and PIVOT in (src, tgt):
                return None
            return False
        if split != "train":
            errors.append(f"{label}: {split} example is reformulated")
        if row["tag"] != kind:
            errors.append(f"{label}: unexpected tag {row['tag']}")
            return False
        langs = meta["scaffold_langs"]
        if kind == "parse":
            if PIVOT in (src, tgt):
                errors.append(f"{label}: pivot pair did not fall back")
            want_in = lines[src][sid] + "\n" + lines[PIVOT][sid]
            want_out = lines[tgt][sid]
            if langs != [PIVOT]:
                errors.append(f"{label}: scaffold languages {langs}")
        else:
            if len({src, tgt, *langs}) != 4 or len(langs) != 2:
                errors.append(f"{label}: languages {src}, {tgt}, {langs} are not four distinct")
                return True
            want_in = lines[src][sid] + "\n" + lines[langs[0]][sid]
            want_out = lines[tgt][sid] + "\n" + lines[langs[1]][sid]
        if meta["truncated"] or count_units(want_in) > self.configs[kind].max_len:
            errors.append(f"{label}: input truncated; the corpus is generated so that none is")
        elif row["input"] != want_in or row["target"] != want_out:
            errors.append(f"{label}: scaffold differs from the corpus files")
        return True

    def layer_counts(self) -> dict:
        built = truncated = shard_bytes = 0
        for kind, manifest in self.manifests.items():
            for split in manifest.splits.values():
                built += split["n_examples"]
                truncated += split["truncated"]
                shard_bytes += sum((self.work / kind / s["path"]).stat().st_size for s in split["shards"])
        return {
            "builder.truncated_per_example": truncated / built,
            "builder.shard_bytes_per_example": shard_bytes / built,
        }


# ------------------------------------------------------------ flores_eval


class FloresEval(Workload):
    """chrF++ and BLEU per direction, their average, and ``reformkit
    analyze`` over all 204 * 203 direction scores."""

    name = "flores_eval"
    ops = (
        ("chrfpp", "chrfpp_sent_per_s", "sentence_pairs/s"),
        ("bleu", "bleu_sent_per_s", "sentence_pairs/s"),
        ("analyze", "analyze_dir_per_s", "directions/s"),
    )

    def __init__(self, *args):
        super().__init__(*args)
        self.directions = None
        self.scores: dict = {}
        self.n_rows = len(_read_lines(self.data / "scores.tsv")) - 1

    def setup(self) -> None:
        directions = json.loads((self.data / "directions.json").read_text(encoding="utf-8"))
        self.directions = [
            (src, tgt, _read_lines(self.data / "hyp" / f"{src}-{tgt}.txt"), _read_lines(self.data / "ref" / f"{tgt}.txt"))
            for src, tgt in directions
        ]

    def release(self) -> None:
        self.directions = None

    def _analyze(self) -> str:
        buf = io.StringIO()
        argv = [
            "analyze", "--scores", str(self.data / "scores.tsv"), "--langs", str(self.data / "manifest.json"),
            "--scatter", "from_lang",
        ]
        with contextlib.redirect_stdout(buf):
            code = reformkit.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"reformkit analyze exited {code}")
        return buf.getvalue()

    def round(self, workers: int, quiet=contextlib.nullcontext) -> Round:
        r = Round()
        chrf, bleu = [], []
        for src, tgt, hyps, refs in self.directions:
            chrf.append(r.run("chrfpp", len(hyps), lambda: rk.chrfpp(hyps, refs)))
            bleu.append(r.run("bleu", len(hyps), lambda: rk.bleu(hyps, refs)))
        scores = [
            rk.DirectionScore(src, tgt, value, len(hyps))
            for (src, tgt, hyps, _), value in zip(self.directions, chrf)
            if value is not None
        ]
        average = r.run("average", len(scores), lambda: rk.average_directions(scores))
        analyzed = r.run("analyze", self.n_rows, self._analyze)
        self.scores = {"chrfpp": chrf, "bleu": bleu, "average": average, "analyze": analyzed}
        r.fingerprint = dict(self.scores)
        return r

    def check(self, errors: list) -> None:
        for (src, tgt, hyps, refs), chrf, bleu in zip(self.directions, self.scores["chrfpp"], self.scores["bleu"]):
            if chrf is not None:
                _compare(errors, f"chrF++ {src}-{tgt}", chrf, oracles.chrfpp(hyps, refs))
            if bleu is not None:
                _compare(errors, f"BLEU {src}-{tgt}", bleu, oracles.bleu(hyps, refs))
        chrf = [v for v in self.scores["chrfpp"] if v is not None]
        if self.scores["average"] is not None:
            _compare(errors, "average_directions", self.scores["average"], math.fsum(chrf) / len(chrf))
        refs = self.directions[0][3]
        for metric in ("chrfpp", "bleu"):
            value = getattr(rk, metric)(refs, refs)
            if abs(value - 100.0) > 1e-9:
                errors.append(f"identity direction scores {value} under {metric}, not 100")
        if self.scores["analyze"] is not None:
            self._check_analyze(json.loads(self.scores["analyze"]), errors)

    def _check_analyze(self, got: dict, errors: list) -> None:
        langs = json.loads((self.data / "manifest.json").read_text(encoding="utf-8"))
        rows = []
        for line in _read_lines(self.data / "scores.tsv")[1:]:
            src, tgt, value, _ = line.split("\t")
            rows.append((src, tgt, float(value)))
        want = oracles.regroup_scores(rows, langs, PIVOT)
        for cell, expect in want["breakdown"].items():
            have = got["breakdown"][cell]
            if have["n"] != expect["n"] or (expect["value"] is None) != (have["value"] is None):
                errors.append(f"analyze breakdown {cell}: {have} vs {expect}")
            elif expect["value"] is not None:
                _compare(errors, f"analyze breakdown {cell}", have["value"], expect["value"])
        scatter = got["scatter"]
        have_rows = [(r["code"], r["pretrain_size"], r["n_directions"]) for r in scatter["rows"]]
        if have_rows != [(c, s, n) for c, s, _, n in want["scatter"]] or scatter["excluded"] != want["excluded"]:
            errors.append("analyze scatter rows or exclusions differ from a direct regrouping")
            return
        for row, (code, _, mean, _) in zip(scatter["rows"], want["scatter"]):
            _compare(errors, f"analyze scatter {code}", row["mean_score"], mean)
        from scipy.stats import spearmanr

        sizes = [size for _, size, _, _ in want["scatter"]]
        means = [mean for _, _, mean, _ in want["scatter"]]
        _compare(errors, "analyze spearman", scatter["spearman"], float(spearmanr(sizes, means).statistic))
        if scatter["degenerate"]:
            errors.append("analyze reports a degenerate scatter")


WORKLOADS = {cls.name: cls for cls in (Tib2EngScaffold, FloresParallel, FloresEval)}
