"""Self-tests for the benchmark's own oracles, counter and harness.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The hand cases pin the independent computations to values worked out on
paper; the end-to-end cases run every workload at reduced size.
"""

from __future__ import annotations

import json
import math
import random
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracles  # noqa: E402
import reformkit as rk  # noqa: E402
from reformkit.textseg import segment, take_prefix, take_suffix  # noqa: E402


class UnitCounter(unittest.TestCase):
    def test_hand_cases(self):
        cases = {
            "": 0,
            "cat": 1,
            "the cat  sat ": 3,
            "  leading space": 2,
            "བོད་ཡིག་": 2,
            "ཀ་ཁ། ག": 3,
            "ཀ༌ཁ": 2,
            " ": 1,
            "་ ༌\n": 1,
        }
        for text, want in cases.items():
            self.assertEqual(oracles.count_units(text), want, text)
            self.assertEqual(rk.count_units(text), want, text)

    def test_regex_whitespace_is_str_isspace(self):
        ws = re.compile(r"\s")
        for cp in range(0x110000):
            ch = chr(cp)
            self.assertEqual(bool(ws.match(ch)), ch.isspace(), hex(cp))

    def test_prefix_and_suffix_match_reformkit(self):
        rng = random.Random(7)
        alphabet = ["a", "b", "ཀ", " ", "་", "༌", "\n", "।"]
        for _ in range(2000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(12)))
            n = len(segment(text).units)
            self.assertEqual(oracles.count_units(text), n, repr(text))
            for k in range(n + 1):
                self.assertEqual(oracles.prefix_units(text, k), take_prefix(segment(text), k), (text, k))
                self.assertEqual(oracles.suffix_units(text, k), take_suffix(segment(text), k), (text, k))


class MetricOracles(unittest.TestCase):
    def test_chrfpp_cat_hat(self):
        # char orders 1..3 and word order 1 have n-grams; average P = R = 7/24
        self.assertAlmostEqual(oracles.chrfpp(["cat"], ["hat"]), 100 * 7 / 24, delta=1e-12)
        self.assertAlmostEqual(rk.chrfpp(["cat"], ["hat"]), 100 * 7 / 24, delta=1e-9)

    def test_bleu_brevity_penalty(self):
        # every n-gram matches, but 4 hypothesis tokens against 8 reference tokens
        hyp, ref = ["the cat sat on"], ["the cat sat on the mat tonight ok"]
        self.assertAlmostEqual(oracles.bleu(hyp, ref), 100 * math.exp(-1), delta=1e-12)
        self.assertAlmostEqual(rk.bleu(hyp, ref), 100 * math.exp(-1), delta=1e-9)

    def test_bleu_order_drops_to_short_references(self):
        self.assertEqual(oracles.bleu(["the cat"], ["the cat"]), 100.0)
        self.assertEqual(oracles.bleu(["dog"], ["the cat"]), 0.0)

    def test_oracles_agree_with_reformkit_on_random_text(self):
        rng = random.Random(11)
        words = ["a", "b", "ab", "ba", "abc", "xy", "ཀ་ཁ"]
        for _ in range(200):
            n = rng.randrange(1, 4)
            hyps = [" ".join(rng.choice(words) for _ in range(rng.randrange(0, 7))) for _ in range(n)]
            refs = [" ".join(rng.choice(words) for _ in range(rng.randrange(1, 7))) for _ in range(n)]
            self.assertAlmostEqual(oracles.chrfpp(hyps, refs), rk.chrfpp(hyps, refs), delta=1e-9)
            self.assertAlmostEqual(oracles.bleu(hyps, refs), rk.bleu(hyps, refs), delta=1e-9)

    def test_regroup_hand_case(self):
        langs = [
            {"code": "eng_Latn", "in_pretrain": True, "pretrain_size": 100},
            {"code": "aaa_Latn", "in_pretrain": False, "pretrain_size": 0},
            {"code": "bbb_Cyrl", "in_pretrain": True, "pretrain_size": 10},
        ]
        rows = [("eng_Latn", "aaa_Latn", 10.0), ("aaa_Latn", "eng_Latn", 20.0), ("bbb_Cyrl", "eng_Latn", 30.0)]
        got = oracles.regroup_scores(rows, langs, "eng_Latn")
        self.assertEqual(got["breakdown"]["in_in"], {"value": 30.0, "n": 1})
        self.assertEqual(got["breakdown"]["to_eng"], {"value": 25.0, "n": 2})
        self.assertEqual(got["breakdown"]["out_out"], {"value": None, "n": 0})
        self.assertEqual(got["excluded"], ["aaa_Latn"])
        self.assertEqual(got["scatter"], [("bbb_Cyrl", 10, 30.0, 1), ("eng_Latn", 100, 10.0, 1)])


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


class EndToEnd(unittest.TestCase):
    """Every workload at reduced size, untraced and traced."""

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def _result(self, workload, trace):
        proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", "small"])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        return result

    def test_spec_matches_the_code(self):
        import measure
        import spans
        from workloads import WORKLOADS

        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]}, measure.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]}, spans.UNITS)

    def test_every_workload_small(self):
        probes = {"tib2eng_scaffold": (6, 2), "flores_parallel": (2, 0), "flores_eval": (6, 0)}
        for workload, (per_round, failing) in probes.items():
            for trace, spec_key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = self._result(workload, trace)
                    self.assertEqual(
                        {name: m["unit"] for name, m in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in self.spec[spec_key]},
                    )
                    self.assertEqual(result["attempted"] % per_round, 0)
                    self.assertEqual(result["failed"] * per_round, result["attempted"] * failing)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = _run(["--workload", "flores_eval", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
