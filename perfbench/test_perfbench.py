#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the worker the way run.py does, then checks the digest check and
the reproducibility of every deterministic per-layer count.
"""

import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Exact counts a traced svc unit reports for its run-seed campaign.
SVC_COUNT_KEYS = ("generated", "completed_ok", "batch_passes",
                  "batch_members", "cosim_anchors", "tier_fullsim",
                  "tier_memoized", "tier_analytic", "shed_depth",
                  "shed_deadline", "retries", "eval_misses", "digest")
PROBE_COUNT_KEYS = ("workload.op_trace_ops", "workload.fetch_replay_fetches",
                    "workload.kernel_model_calls")


def setUpModule():
    run.build()


class DigestCheck(unittest.TestCase):
    def test_single_flipped_bit_changes_the_digest(self):
        r = subprocess.run([run.WORKER, "selftest"], stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           env=run.child_env())
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_one_changed_digest_is_one_failed_point(self):
        recorded = run.load_json(run.DIGESTS)["design-sweep"]
        changed = list(recorded)
        last = changed[7][-1]
        changed[7] = changed[7][:-1] + ("1" if last == "0" else "0")
        self.assertEqual(run.point_mismatches(recorded, recorded), 0)
        self.assertEqual(run.point_mismatches(changed, recorded), 1)
        self.assertEqual(run.point_mismatches(changed[:-1], recorded),
                         len(recorded))


class ReproducibleCounts(unittest.TestCase):
    def test_svc_counts_repeat_for_the_same_seed(self):
        for traffic in ("burst", "mix"):
            args = ("svc", "--traffic", traffic, "--seed", "7", "--stream",
                    "0", "--seconds", "0", "--trace")
            a, b = run.worker(*args), run.worker(*args)
            for key in SVC_COUNT_KEYS:
                self.assertEqual(a[key], b[key], traffic + " " + key)
            self.assertEqual(a["serial_digest_agrees"], 1, traffic)

    def test_probe_counts_repeat(self):
        a, b = run.worker("probe"), run.worker("probe")
        for key in PROBE_COUNT_KEYS:
            self.assertEqual(a[key], b[key], key)


if __name__ == "__main__":
    unittest.main()
