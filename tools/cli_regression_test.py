#!/usr/bin/env python3
"""CLI regression tests for the built binaries.

Covers the contracts a shell user (or CI script) relies on:
  * scale_fleet rejects unknown --topology= / --mode= values with exit 2
    and a usage line instead of silently falling back to a default.
  * scale_fleet --help prints the usage and exits 0 without running; an
    unknown flag, or a malformed or out-of-range value, exits 2 with a
    usage line before any sweep starts.
  * nymfuzz --minimize re-shrinks a checked-in corpus entry: the rewritten
    file replays clean and carries a digest pin.
  * every bench parsed by the flag table in bench/bench_stats, and
    nymfuzz, follow its contract: --help prints "usage: <bin>" and exits 0,
    an unknown flag or a malformed value exits 2, and neither runs the
    bench or writes a file.
  * micro_crypto rejects an unknown flag; nbt2json prints its usage on
    --help and exits 2 on any other "-" argument but --recover.
  * golden_gen and nymlint print their usage on --help and exit 0, and
    exit 2 on an unknown flag; neither runs anything or writes a file.

Binary paths come from argv (ctest passes $<TARGET_FILE:...>):
  cli_regression_test.py SCALE_FLEET_BIN NYMFUZZ_BIN CORPUS_DIR
                         NBT2JSON_BIN MICRO_CRYPTO_BIN GOLDEN_GEN_BIN
                         NYMLINT_BIN TABLE_BENCH_BIN...

Only the standard library is used.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

SCALE_FLEET = None
NYMFUZZ = None
CORPUS_DIR = None
NBT2JSON = None
MICRO_CRYPTO = None
GOLDEN_GEN = None
NYMLINT = None
TABLE_BENCHES = []


def run_in_empty_dir(test, binary, *args):
    """Runs `binary` in a scratch cwd and asserts it wrote nothing there."""
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([binary, *args], capture_output=True, text=True,
                              cwd=tmp, timeout=60)
        test.assertEqual(os.listdir(tmp), [], "usage path wrote files")
    return proc


class ScaleFleetCliTest(unittest.TestCase):
    def run_bench(self, *args):
        # In a scratch cwd with a timeout: a flag that slipped through would
        # start the default multi-minute sweep and write BENCH_scale.json.
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run([SCALE_FLEET, *args], capture_output=True, text=True,
                                  cwd=tmp, timeout=60)
            self.assertEqual(os.listdir(tmp), [], "usage path wrote files")
        return proc

    def test_help_prints_usage_and_exits_0(self):
        proc = self.run_bench("--help")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertTrue(proc.stdout.startswith("usage: scale_fleet "))
        self.assertIn("--warm-start[=CKPT]", proc.stdout)
        self.assertNotIn("# scale_fleet:", proc.stdout)

    def test_unknown_flag_exits_2_with_usage(self):
        proc = self.run_bench("--n=8", "--bogus")
        self.assertEqual(proc.returncode, 2)
        self.assertIn('unknown argument "--bogus"', proc.stderr)
        self.assertIn("usage: scale_fleet ", proc.stderr)

    def test_malformed_values_exit_2_with_usage(self):
        cases = [("--n=abc", "--n=N[,N...]"), ("--n=", "--n=N[,N...]"),
                 ("--n=8,,64", "--n=N[,N...]"), ("--seed=x", "--seed=SEED"),
                 ("--seed=-1", "--seed=SEED"), ("--threads=two", "--threads=T[,T...]"),
                 ("--shards=4x", "--shards=K"), ("--out=", "--out=PATH")]
        for arg, usage in cases:
            with self.subTest(arg=arg):
                proc = self.run_bench(arg)
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertIn('bad value "%s"' % arg, proc.stderr)
                self.assertIn("usage: scale_fleet [%s]" % usage, proc.stderr)

    def test_out_of_range_values_exit_2_with_usage(self):
        cases = [("--shards=0", "--shards=K"), ("--n=0", "--n=N[,N...]"),
                 ("--n=-3", "--n=N[,N...]"), ("--threads=1,0", "--threads=T[,T...]")]
        for arg, usage in cases:
            with self.subTest(arg=arg):
                proc = self.run_bench(arg)
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertIn("usage: scale_fleet [%s]" % usage, proc.stderr)

    def test_unknown_topology_exits_2_with_usage(self):
        proc = self.run_bench("--topology=bogus")
        self.assertEqual(proc.returncode, 2)
        self.assertIn('unknown --topology "bogus"', proc.stderr)
        self.assertIn("usage: scale_fleet [--topology=isolated|crossed]", proc.stderr)

    def test_unknown_mode_exits_2_with_usage(self):
        proc = self.run_bench("--mode=bogus")
        self.assertEqual(proc.returncode, 2)
        self.assertIn('unknown --mode "bogus"', proc.stderr)
        self.assertIn("usage: scale_fleet [--mode=both|incremental|full]", proc.stderr)

    def test_mode_full_is_the_only_reference_switch(self):
        # --full-recompute duplicated --mode=full and was removed.
        proc = self.run_bench("--full-recompute")
        self.assertEqual(proc.returncode, 2)
        self.assertIn('unknown argument "--full-recompute"', proc.stderr)
        self.assertNotIn("--full-recompute", self.run_bench("--help").stdout)


class NymfuzzMinimizeTest(unittest.TestCase):
    def test_minimize_rewrites_corpus_entry_that_still_replays(self):
        source = os.path.join(CORPUS_DIR, "adversary-planted-cookie-23.nymfuzz")
        with tempfile.TemporaryDirectory() as tmp:
            entry = os.path.join(tmp, "entry.nymfuzz")
            shutil.copy(source, entry)
            minimized = subprocess.run(
                [NYMFUZZ, "--minimize", entry, "--out=" + entry],
                capture_output=True, text=True)
            self.assertEqual(minimized.returncode, 0, minimized.stderr)
            with open(entry) as handle:
                text = handle.read()
            self.assertIn("family adversary", text)
            self.assertIn("digest ", text)
            replay = subprocess.run(
                [NYMFUZZ, "--replay", entry], capture_output=True, text=True)
            self.assertEqual(replay.returncode, 0, replay.stderr)
            self.assertIn("verified (clean)", replay.stdout)

    def test_minimize_unreadable_file_exits_2(self):
        proc = subprocess.run(
            [NYMFUZZ, "--minimize", "/nonexistent/no.nymfuzz"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2)


class FlagTableCliTest(unittest.TestCase):
    def test_every_table_bench_follows_the_contract(self):
        self.assertTrue(TABLE_BENCHES, "no table-parsed benches passed on the command line")
        for binary in TABLE_BENCHES:
            name = os.path.basename(binary)
            with self.subTest(bench=name):
                proc = run_in_empty_dir(self, binary, "--help")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(proc.stdout.startswith("usage: %s " % name), proc.stdout)
                self.assertIn("[--stats-out=PATH]", proc.stdout)
                proc = run_in_empty_dir(self, binary, "--bogus")
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertIn('%s: unknown argument "--bogus"' % name, proc.stderr)
                self.assertIn("usage: %s " % name, proc.stderr)
                proc = run_in_empty_dir(self, binary, "--stats-out=")
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertIn('bad value "--stats-out="', proc.stderr)
                self.assertIn("usage: %s [--stats-out=PATH]" % name, proc.stderr)

    def test_ablation_adversary_rejects_bad_values(self):
        adversary = [b for b in TABLE_BENCHES if os.path.basename(b) == "ablation_adversary"]
        self.assertEqual(len(adversary), 1)
        for arg in ["--threads=", "--n=abc", "--seed=x", "--shards=0"]:
            with self.subTest(arg=arg):
                proc = run_in_empty_dir(self, adversary[0], arg)
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertIn('bad value "%s"' % arg, proc.stderr)


class NymfuzzCliTest(unittest.TestCase):
    def test_help_prints_usage_and_exits_0(self):
        proc = run_in_empty_dir(self, NYMFUZZ, "--help")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertTrue(proc.stdout.startswith("usage: nymfuzz "))
        self.assertIn("[--replay FILE]", proc.stdout)

    def test_malformed_values_exit_2(self):
        # Each of these once ran the default sweep with the value read as 0
        # or a prefix of it.
        for arg in ["--seed=x", "--runs=1x", "--gen-seed=abc"]:
            with self.subTest(arg=arg):
                proc = run_in_empty_dir(self, NYMFUZZ, arg)
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertIn('nymfuzz: bad value "%s"' % arg, proc.stderr)

    def test_replay_takes_file_after_space_or_equals(self):
        entry = os.path.join(CORPUS_DIR, "decoder-tail-damage-101.nymfuzz")
        for args in (["--replay", entry], ["--replay=" + entry]):
            with self.subTest(args=args):
                proc = run_in_empty_dir(self, NYMFUZZ, *args)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertIn("decoder-tail-damage-101.nymfuzz: verified", proc.stdout)


class MicroCryptoCliTest(unittest.TestCase):
    def test_unknown_flag_fails(self):
        proc = run_in_empty_dir(self, MICRO_CRYPTO, "--bogus")
        self.assertNotEqual(proc.returncode, 0)


class Nbt2JsonCliTest(unittest.TestCase):
    def test_help_prints_usage_and_exits_0(self):
        proc = run_in_empty_dir(self, NBT2JSON, "--help")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertTrue(proc.stdout.startswith("usage: nbt2json "))

    def test_unknown_flag_exits_2_with_usage(self):
        proc = run_in_empty_dir(self, NBT2JSON, "--bogus", "in.nbt")
        self.assertEqual(proc.returncode, 2)
        self.assertIn('unknown argument "--bogus"', proc.stderr)
        self.assertIn("usage: nbt2json ", proc.stderr)

    def test_recover_is_still_a_flag(self):
        # A missing input is an I/O failure (1), not a usage error (2).
        proc = run_in_empty_dir(self, NBT2JSON, "--recover", "missing.nbt")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("missing.nbt", proc.stderr)


class UsageCliTest(unittest.TestCase):
    """golden_gen and nymlint parse their own argv outside the flag table."""

    def test_help_exits_0_and_bogus_exits_2(self):
        for binary in (GOLDEN_GEN, NYMLINT):
            name = os.path.basename(binary)
            with self.subTest(binary=name):
                # A stray argument once became golden_gen's output directory:
                # it ran a scenario, then failed to write "--help/...".
                proc = run_in_empty_dir(self, binary, "--help")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(proc.stdout.startswith("usage: %s " % name), proc.stdout)
                proc = run_in_empty_dir(self, binary, "--bogus")
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertIn("--bogus", proc.stderr)

    def test_golden_gen_unknown_flag_prints_usage(self):
        proc = run_in_empty_dir(self, GOLDEN_GEN, "--bogus", "out")
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn('golden_gen: unknown argument "--bogus"', proc.stderr)
        self.assertIn("usage: golden_gen ", proc.stderr)

    def test_golden_gen_rejects_bad_format_before_running(self):
        proc = run_in_empty_dir(self, GOLDEN_GEN, "--format=xml", "out")
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn('--format must be json or nbt, got "xml"', proc.stderr)


def main():
    global SCALE_FLEET, NYMFUZZ, CORPUS_DIR, NBT2JSON, MICRO_CRYPTO, GOLDEN_GEN, NYMLINT
    global TABLE_BENCHES
    if len(sys.argv) < 8:
        print("usage: cli_regression_test.py SCALE_FLEET_BIN NYMFUZZ_BIN CORPUS_DIR "
              "NBT2JSON_BIN MICRO_CRYPTO_BIN GOLDEN_GEN_BIN NYMLINT_BIN "
              "TABLE_BENCH_BIN...", file=sys.stderr)
        return 2
    (SCALE_FLEET, NYMFUZZ, CORPUS_DIR, NBT2JSON, MICRO_CRYPTO, GOLDEN_GEN,
     NYMLINT) = sys.argv[1:8]
    TABLE_BENCHES = sys.argv[8:]
    sys.argv = sys.argv[:1]
    unittest.main()


if __name__ == "__main__":
    main()
