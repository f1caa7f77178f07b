"""Fixture-backed unit tests for phissl_lint: one positive (rule fires),
one suppressed, and one negative case per rule, on synthetic repo trees."""

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from phissl_lint import run_lint  # noqa: E402


class LintFixture(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)
        (self.root / "src").mkdir()
        (self.root / "tests").mkdir()

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, rel, content):
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
        # Keep BLD001 quiet unless a test targets it: register every .cpp
        # we create in a CMakeLists alongside it.
        if path.suffix == ".cpp":
            cml = path.parent / "CMakeLists.txt"
            existing = cml.read_text() if cml.exists() else ""
            cml.write_text(existing + path.name + "\n")
        return path

    def rules(self):
        return [f.rule for f in run_lint(self.root)]


class MemcmpRule(LintFixture):
    def test_memcmp_in_secret_dir_fires(self):
        self.write("src/rsa/sig.cpp",
                   "bool ok = memcmp(a, b, n) == 0;\n")
        self.assertIn("CT001", self.rules())

    def test_memcmp_suppressed(self):
        self.write("src/rsa/sig.cpp",
                   "bool ok = memcmp(a, b, n) == 0;  // lint:allow(memcmp)\n")
        self.assertNotIn("CT001", self.rules())

    def test_memcmp_outside_secret_dirs_ignored(self):
        self.write("src/util/misc.cpp", "int r = memcmp(a, b, n);\n")
        self.assertNotIn("CT001", self.rules())

    def test_memcmp_in_comment_ignored(self):
        self.write("src/rsa/sig.cpp", "// never use memcmp(a, b, n) here\n")
        self.assertNotIn("CT001", self.rules())

    def test_named_function_not_confused(self):
        self.write("src/rsa/sig.cpp", "int r = ct_memcmp(a, b, n);\n")
        self.assertNotIn("CT001", self.rules())


class SecretIndexRule(LintFixture):
    MARKER = "// phissl:ct-kernel\n"

    def test_index_value_in_marked_file_fires(self):
        self.write("src/mont/kern.hpp",
                   self.MARKER + "auto x = table[index_value(idx)];\n")
        self.assertIn("CT002", self.rules())

    def test_unmarked_file_ignored(self):
        self.write("src/mont/kern.hpp",
                   "auto x = table[index_value(idx)];\n")
        self.assertNotIn("CT002", self.rules())

    def test_declassify_region_exempt(self):
        self.write("src/mont/kern.hpp",
                   self.MARKER +
                   "ct::DeclassifyScope blinded;\n"
                   "auto x = table[index_value(idx)];\n")
        self.assertNotIn("CT002", self.rules())

    def test_after_declassify_region_fires(self):
        self.write("src/mont/kern.hpp",
                   self.MARKER +
                   "ct::DeclassifyScope blinded;\n"
                   "// lint:end-declassify\n"
                   "auto x = table[index_value(idx)];\n")
        self.assertIn("CT002", self.rules())

    def test_suppression(self):
        self.write(
            "src/mont/kern.hpp", self.MARKER +
            "auto x = table[index_value(i)];  // lint:allow(secret-index)\n")
        self.assertNotIn("CT002", self.rules())

    def test_leaky_fixture_allowlisted(self):
        self.write("src/ct/leaky.hpp",
                   self.MARKER + "auto x = table[index_value(idx)];\n")
        self.assertNotIn("CT002", self.rules())


class SecureWipeRule(LintFixture):
    def test_memset_in_wipe_dir_fires(self):
        self.write("src/rsa/key.cpp", "memset(d.data(), 0, d.size());\n")
        self.assertIn("SEC001", self.rules())

    def test_bzero_fires(self):
        self.write("src/ssl/record.cpp", "bzero(key, sizeof key);\n")
        self.assertIn("SEC001", self.rules())

    def test_memset_outside_wipe_dirs_ignored(self):
        # src/mont is a SECRET_DIR (CT001) but not a WIPE_DIR: workspace
        # zeroing there is algorithmic, not scrubbing.
        self.write("src/mont/ws.cpp", "memset(acc, 0, n);\n")
        self.write("src/util/buf.cpp", "memset(p, 0, n);\n")
        self.assertNotIn("SEC001", self.rules())

    def test_suppressed(self):
        self.write("src/rsa/key.cpp",
                   "memset(pub, 0, n);  // lint:allow(memset)\n")
        self.assertNotIn("SEC001", self.rules())

    def test_comment_and_named_function_ignored(self):
        self.write("src/rsa/key.cpp",
                   "// memset(d, 0, n) would be elided here\n"
                   "util::secure_memset_like(p, n);\n")
        self.assertNotIn("SEC001", self.rules())


class RandRule(LintFixture):
    def test_rand_fires(self):
        self.write("src/util/seed.cpp", "int x = rand();\n")
        self.assertIn("RNG001", self.rules())

    def test_srand_fires(self):
        self.write("src/util/seed.cpp", "srand(42);\n")
        self.assertIn("RNG001", self.rules())

    def test_member_rand_ignored(self):
        self.write("src/util/seed.cpp",
                   "auto x = rng.rand();\nauto y = util::rand();\n")
        self.assertNotIn("RNG001", self.rules())

    def test_suppressed(self):
        self.write("src/util/seed.cpp",
                   "int x = rand();  // lint:allow(rand)\n")
        self.assertNotIn("RNG001", self.rules())


class EnvRule(LintFixture):
    # One fixture line per C library environment call.
    VERBS = ("get", "set", "put")

    @staticmethod
    def call(verb, suffix=""):
        return f'auto v = std::{verb}env("PHISSL_X");{suffix}\n'

    def test_each_call_fires_under_src(self):
        for verb in self.VERBS:
            with self.subTest(verb=verb):
                self.write("src/mont/ctx.cpp", self.call(verb))
                self.assertIn("ENV001", self.rules())

    def test_unqualified_call_fires(self):
        self.write("src/rsa/backend.cpp",
                   self.call("get").replace("std::", ""))
        self.assertIn("ENV001", self.rules())

    def test_suppressed(self):
        self.write("src/util/cpu.cpp",
                   self.call("get", "  // lint:allow(env)"))
        self.assertNotIn("ENV001", self.rules())

    def test_comment_ignored(self):
        self.write("src/mont/ctx.cpp", "// " + self.call("get"))
        self.assertNotIn("ENV001", self.rules())

    def test_outside_src_ignored(self):
        self.write("tests/env_test.cpp", self.call("set"))
        self.assertNotIn("ENV001", self.rules())

    def test_member_call_ignored(self):
        self.write("src/ssl/driver.cpp",
                   self.call("get").replace("std::", "cfg."))
        self.assertNotIn("ENV001", self.rules())


class RegistrationRule(LintFixture):
    def test_unregistered_cpp_fires(self):
        d = self.root / "src" / "mont"
        d.mkdir(parents=True)
        (d / "CMakeLists.txt").write_text("add_library(m other.cpp)\n")
        (d / "orphan.cpp").write_text("int f();\n")
        findings = run_lint(self.root)
        self.assertIn("BLD001", [f.rule for f in findings])
        self.assertIn("src/mont/orphan.cpp", [f.path for f in findings])

    def test_registered_cpp_clean(self):
        self.write("src/mont/mont32.cpp", "int f();\n")
        self.assertNotIn("BLD001", self.rules())

    def test_unregistered_test_fires(self):
        (self.root / "tests" / "CMakeLists.txt").write_text("# none\n")
        (self.root / "tests" / "foo_test.cpp").write_text("int f();\n")
        self.assertIn("BLD001", self.rules())

    def test_dir_without_cmakelists_skipped(self):
        d = self.root / "src" / "experimental"
        d.mkdir(parents=True)
        (d / "scratch.cpp").write_text("int f();\n")
        self.assertNotIn("BLD001", self.rules())


class SelfCheck(unittest.TestCase):
    def test_real_repo_is_clean(self):
        repo = Path(__file__).resolve().parent.parent
        findings = run_lint(repo)
        self.assertEqual([], [str(f) for f in findings])


if __name__ == "__main__":
    unittest.main()
