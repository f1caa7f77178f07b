#!/usr/bin/env python3
"""phissl repo lint: constant-time and build-hygiene rules.

Rules:
  CT001  variable-time memcmp in secret-handling code. memcmp early-exits
         on the first differing byte, so comparing MACs/signatures/key
         material with it leaks the match length through timing. Use a
         branch-free accumulate-XOR compare instead.
  CT002  raw index extraction in constant-time kernel code. Files marked
         with the `phissl:ct-kernel` annotation must not call
         ct::index_value() (a secret-indexed load is a cache-timing
         leak) — gather with ct_table_select instead. Lines inside an
         explicit DeclassifyScope region are exempt.
  RNG001 raw libc rand()/srand(). Not cryptographic, not deterministic
         across platforms; use util::Rng.
  SEC001 plain memset()/fill-with-zero used to clear buffers in
         secret-bearing directories (src/rsa, src/ct, src/ssl). Dead-store
         elimination is allowed to drop a memset whose buffer is about to
         be freed, so the "cleared" key bytes stay in heap memory. Use
         util::secure_wipe / util::secure_wipe_all (util/wipe.hpp), whose
         volatile stores + compiler barrier survive optimization.
  BLD001 .cpp file present on disk but not registered in its directory's
         CMakeLists.txt — it silently doesn't build, which is how dead
         kernels and never-run tests happen.
  ENV001 process-environment access (the C library's get/set/put-env
         calls) anywhere under src/. Configuration is data: a knob read
         from the environment deep in the stack is invisible at every call
         site and cannot differ between two objects in one process. Pass
         it through a config struct or constructor argument instead.

Suppressions: append `// lint:allow(<rule>)` to the offending line, where
<rule> is memcmp, secret-index, rand, memset, or env.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass
from pathlib import Path

# Directories whose code handles secret material: CT001 applies here.
SECRET_DIRS = ("src/rsa", "src/mont", "src/ct", "src/ssl", "src/dh")

# Directories where buffers routinely hold key material and clearing them
# must survive dead-store elimination: SEC001 applies here. Narrower than
# SECRET_DIRS on purpose — src/mont's workspaces hold Montgomery residues
# whose zeroing is algorithmic (not scrubbing), and flagging those would
# bury the real findings.
WIPE_DIRS = ("src/rsa", "src/ct", "src/ssl")

# Files allowed to call index_value() even under the ct-kernel marker:
# the taint machinery itself and the deliberately-leaky fixtures.
CT002_ALLOWED = ("src/ct/taint.hpp", "src/ct/leaky.hpp")

CPP_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}

MEMCMP_RE = re.compile(r"(?<![\w.:>])memcmp\s*\(")
# Plain clearing a compiler may elide: memset(p, 0, n) and bzero.
# Matching any memset (not just zeroing) keeps the rule simple; non-zero
# memsets of secrets are at least as suspicious.
MEMSET_RE = re.compile(r"(?<![\w.:>])(?:memset|(?<!_)bzero)\s*\(")
RAND_RE = re.compile(r"(?<![\w.:>])s?rand\s*\(")
INDEX_VALUE_RE = re.compile(r"(?<![\w.:>])index_value\s*\(")
# Qualified calls (std::, ::) count too; member calls do not.
ENV_RE = re.compile(r"(?<![\w.>])(?:get|set|put)env\s*\(")
CT_KERNEL_MARKER = "phissl:ct-kernel"
ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z-]+)\)")


@dataclass
class Finding:
    path: str  # repo-relative, forward slashes
    line: int  # 1-based; 0 for file-level findings
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def _allowed(line: str, rule_tag: str) -> bool:
    m = ALLOW_RE.search(line)
    return bool(m) and m.group(1) == rule_tag


def _strip_line_comment(line: str) -> str:
    # Good enough for these rules: ignore matches that start inside a //
    # comment. (Block comments spanning lines are rare in this repo's
    # style and the rules are all call-expressions.)
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def lint_cpp_file(root: Path, path: Path) -> list[Finding]:
    rel = path.relative_to(root).as_posix()
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        return [Finding(rel, 0, "IO", f"unreadable: {e}")]
    lines = text.splitlines()
    findings: list[Finding] = []

    in_secret_dir = rel.startswith(SECRET_DIRS)
    in_wipe_dir = rel.startswith(WIPE_DIRS)
    in_src = rel.startswith("src/")
    is_ct_kernel = CT_KERNEL_MARKER in text and rel not in CT002_ALLOWED
    declassify_depth = 0

    for i, raw in enumerate(lines, start=1):
        code = _strip_line_comment(raw)

        if in_secret_dir and MEMCMP_RE.search(code):
            if not _allowed(raw, "memcmp"):
                findings.append(
                    Finding(rel, i, "CT001",
                            "variable-time memcmp in secret-handling code; "
                            "use a branch-free compare"))

        if in_wipe_dir and MEMSET_RE.search(code):
            if not _allowed(raw, "memset"):
                findings.append(
                    Finding(rel, i, "SEC001",
                            "plain memset/bzero in secret-bearing code can "
                            "be elided by dead-store elimination; use "
                            "util::secure_wipe (util/wipe.hpp)"))

        if in_src and ENV_RE.search(code) and not _allowed(raw, "env"):
            findings.append(
                Finding(rel, i, "ENV001",
                        "environment access in library code; pass the "
                        "setting as data (config field or argument)"))

        if RAND_RE.search(code) and not _allowed(raw, "rand"):
            findings.append(
                Finding(rel, i, "RNG001",
                        "raw libc rand()/srand(); use util::Rng"))

        if is_ct_kernel:
            # Track explicit declassified regions: a DeclassifyScope
            # on a line opens one until the matching close marker.
            if "DeclassifyScope" in code:
                declassify_depth += 1
            if "lint:end-declassify" in raw:
                declassify_depth = max(0, declassify_depth - 1)
            if (declassify_depth == 0 and INDEX_VALUE_RE.search(code)
                    and not _allowed(raw, "secret-index")):
                findings.append(
                    Finding(rel, i, "CT002",
                            "raw index extraction in a ct-kernel file; "
                            "gather with ct_table_select"))

    return findings


def lint_cmake_registration(root: Path) -> list[Finding]:
    findings: list[Finding] = []
    dirs = [p for p in (root / "src").iterdir() if p.is_dir()]
    dirs.append(root / "tests")
    for d in dirs:
        cml = d / "CMakeLists.txt"
        if not cml.exists():
            continue
        try:
            content = cml.read_text(encoding="utf-8", errors="replace")
        except OSError:
            continue
        for cpp in sorted(d.glob("*.cpp")):
            if cpp.name not in content:
                rel = cpp.relative_to(root).as_posix()
                findings.append(
                    Finding(rel, 0, "BLD001",
                            f"not registered in {d.name}/CMakeLists.txt — "
                            "it never builds"))
    return findings


def run_lint(root: Path) -> list[Finding]:
    findings: list[Finding] = []
    scan_roots = [root / "src", root / "tests"]
    for scan in scan_roots:
        if not scan.exists():
            continue
        for path in sorted(scan.rglob("*")):
            if path.suffix in CPP_SUFFIXES and path.is_file():
                findings.extend(lint_cpp_file(root, path))
    findings.extend(lint_cmake_registration(root))
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    if not (root / "src").is_dir():
        print(f"phissl_lint: {root} does not look like the repo root",
              file=sys.stderr)
        return 2
    findings = run_lint(root)
    for f in findings:
        print(f)
    if findings:
        print(f"phissl_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("phissl_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
