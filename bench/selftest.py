"""Self-tests of the benchmark itself: seeded inputs and failure counting.

    python3 bench/selftest.py

Run from the root of a source checkout.  Checks that a seed fixes the inputs
byte for byte, that another seed changes them, that no configuration repeats
within a formula-fresh or oracle-d3 run, and that a tampered result or a
raised error counts as a failed item without stopping the run.
"""

from __future__ import annotations

import itertools
import json
import shutil
import sys
import tempfile
import unittest

import run
from workloads import WORKLOADS


def _first(workload, seed, count):
    return list(itertools.islice(workload.items(seed), count))


def _bytes(items):
    return json.dumps(items, sort_keys=True).encode()


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                first = _bytes(_first(workload, 7, 40))
                self.assertEqual(first, _bytes(_first(workload, 7, 40)))
                self.assertNotEqual(first, _bytes(_first(workload, 8, 40)))

    def test_no_configuration_repeats(self):
        for name in ("formula-fresh", "oracle-d3"):
            workload = WORKLOADS[name]
            with self.subTest(workload=name):
                configs = _first(workload, 3, 2000)
                self.assertEqual(len(set(configs)), len(configs))
                self.assertNotIn(workload.warmup, configs)


class _Tampered:
    """A workload whose item ``bad`` returns a wrong result or raises."""

    def __init__(self, workload, bad, how):
        self.workload = workload
        self.bad = bad
        self.how = how
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.workload, name)

    def run(self, lib, cli, args):
        result = self.workload.run(lib, cli, args)
        self.calls += 1
        if self.calls - 1 != self.bad:
            return result
        if self.how == "raise":
            raise RuntimeError("injected failure")
        return self.how(lib, result)


def _shift(lib, h):
    return lib.HStarVector((h[0] + 1,) + tuple(h)[1:], h.d)


def _shift_json(lib, result):
    code, out = result
    doc = json.loads(out)
    doc["hstar"][0] += 1
    return code, json.dumps(doc)


TAMPER = {
    "formula-fresh": lambda lib, r: (r[0], _shift(lib, r[1]), r[2]),
    "oracle-d3": _shift,
    "cli-valuations": _shift_json,
}


class FailureCounting(unittest.TestCase):
    def setUp(self):
        self.workdir = tempfile.mkdtemp(dir=run.OUT)

    def tearDown(self):
        shutil.rmtree(self.workdir)

    def _failures(self, name, how):
        workload = _Tampered(WORKLOADS[name], 1, how)
        _, lib, cli, inputs = run.set_up(WORKLOADS[name], 11, self.workdir)
        m = run.measure(workload, lib, cli, inputs, 0)
        self.assertEqual(len(m.times), 3)
        return m.failures

    def test_tampered_result_counts_as_failed(self):
        for name, how in TAMPER.items():
            with self.subTest(workload=name):
                failures = self._failures(name, how)
                self.assertEqual([f["item"] for f in failures], [1])
                self.assertEqual(failures[0]["error"], "wrong result")

    def test_raised_error_counts_as_failed_and_run_goes_on(self):
        failures = self._failures("oracle-d3", "raise")
        self.assertEqual([f["item"] for f in failures], [1])
        self.assertIn("injected failure", failures[0]["error"])


if __name__ == "__main__":
    if not (run.SRC / "zonoehrhart" / "__init__.py").is_file():
        sys.exit(f"no package source at {run.SRC / 'zonoehrhart'}")
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    run.MIN_ITEMS = 3
    unittest.main()
