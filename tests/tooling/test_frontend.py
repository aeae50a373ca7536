#!/usr/bin/env python3
"""Unit tests for the shared analyzer frontend (tools/analyze/frontend.py):
the lexer, lexical function extraction, file loading and the driver's
exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import re
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

ROOT = pathlib.Path(__file__).resolve().parents[2]
ANALYZE = ROOT / "tools" / "analyze"

sys.path.insert(0, str(ANALYZE))
import frontend  # noqa: E402
import sarif  # noqa: E402  (put on sys.path by frontend)


class StripCommentsTest(unittest.TestCase):
    def strip(self, *lines: str) -> list[str]:
        return frontend.strip_comments(list(lines))

    def test_comment_openers_inside_string_literal_are_text(self):
        self.assertEqual(self.strip('f("a // b /* c", x); // gone'),
                         ['f("", x); '])

    def test_double_quote_char_literal_does_not_open_a_string(self):
        self.assertEqual(self.strip("c = '\"'; g(1); // gone"),
                         ["c = ''; g(1); "])

    def test_escaped_quote_stays_inside_the_literal(self):
        self.assertEqual(self.strip(r's = "say \"hi\" // no"; t();'),
                         ['s = ""; t();'])

    def test_block_comment_spanning_lines(self):
        self.assertEqual(
            self.strip("a(); /* one", "two { }", "three */ b();"),
            ["a(); ", "", " b();"])

    def test_preprocessor_line_is_blanked(self):
        self.assertEqual(self.strip("#include <thread>", "  # define X {"),
                         ["", ""])

    def test_hash_inside_block_comment_stays_a_comment(self):
        self.assertEqual(self.strip("/*", "#include <queue>", "*/ q();"),
                         ["", "", " q();"])

    def test_digit_separator_is_not_a_char_literal(self):
        self.assertEqual(self.strip("x = 1'000'000; f('a'); // gone"),
                         ["x = 1'000'000; f(''); "])


class LoadFilesTest(unittest.TestCase):
    def test_raw_lines_keep_what_the_stripped_copy_blanks(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            (root / "src" / "rpc").mkdir(parents=True)
            (root / "src" / "rpc" / "a.h").write_text(
                "#include <queue>\nint x;  // note\n")
            (root / "src" / "rpc" / "notes.txt").write_text("ignored\n")
            files, code = frontend.load_files(root, ("src", "missing"))
        self.assertEqual(list(files), ["src/rpc/a.h"])
        self.assertEqual(files["src/rpc/a.h"],
                         ["#include <queue>", "int x;  // note"])
        self.assertEqual(code["src/rpc/a.h"], ["", "int x;  "])


class LexicalFunctionsTest(unittest.TestCase):
    SOURCE = [
        "int Declared(int a);",                      # 1: declaration only
        "Widget::Widget(int v) : value_(v) {",        # 2: init-list ctor
        "  Touch();",
        "}",
        "int Sum(const std::vector<int>& xs,",        # 5: wrapped head
        "        int bias) {",
        "  int total = bias;",
        "  for (int x : xs) {",
        "    if (x > 0) { total += x; }",
        "  }",
        "  return total;",
        "}",
    ]

    def test_skips_declarations_and_init_list_constructors(self):
        fns = frontend.lexical_functions("src/a.cc", self.SOURCE)
        self.assertEqual([(f.name, f.head_line) for f in fns], [("Sum", 5)])
        self.assertEqual(fns[0].params, ["xs", "bias"])
        self.assertEqual(fns[0].file, "src/a.cc")

    def test_body_segments_span_nested_braces(self):
        open_col = self.SOURCE[5].index("{")
        segments, end = frontend.body_segments(self.SOURCE, 5, open_col)
        self.assertEqual(end, 11)
        self.assertEqual([line for line, _ in segments],
                         [5, 6, 7, 8, 9, 10, 11])
        self.assertEqual(segments[0][1], "")
        self.assertEqual(segments[3][1], "    if (x > 0) { total += x; }")
        self.assertEqual(segments[-1][1], "")

    def test_balanced_args_and_comment_annotation(self):
        self.assertEqual(frontend.balanced_args("f(g(a), b) + 1", 1),
                         "g(a), b")
        self.assertIsNone(frontend.balanced_args("f(a", 1))
        pattern = re.compile(r'//\s*tm-x\((\w+)\)')
        self.assertEqual(
            frontend.comment_annotation("a(); // tm-x(y)", pattern).group(1),
            "y")
        # Only the first comment opener counts: prose about the grammar
        # is not a use.
        self.assertIsNone(
            frontend.comment_annotation("// see // tm-x(y)", pattern))


def bad_lines(src: frontend.Sources):
    """A toy rule: every stripped line containing BAD, reported twice and
    last line first, so the driver's dedupe and sort are exercised."""
    findings = []
    for path, lines in src.code.items():
        for i, line in reversed(list(enumerate(lines, start=1))):
            if "BAD" in line:
                finding = sarif.Finding(path, i, "toy", "BAD here")
                findings += [finding, finding]
    return findings, f"{len(src.fns)} functions"


class DriverTest(unittest.TestCase):
    def run_driver(self, source: str, *extra: str, build_dir=None):
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            (root / "src").mkdir()
            (root / "src" / "a.cc").write_text(source)
            out_sarif = root / "out.sarif"
            argv = ["--root", str(root), "--sarif", str(out_sarif), *extra]
            if build_dir is not None:
                (root / "build").mkdir()
                (root / "build" / "compile_commands.json").write_text("[]")
                argv += ["--build-dir", str(root / "build")]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = frontend.main("tm_toy", "1", "toy", {"toy": "toy"},
                                     ("src",), bad_lines, functions=True,
                                     argv=argv)
            log = (json.loads(out_sarif.read_text())
                   if out_sarif.exists() else None)
        return code, stdout.getvalue(), stderr.getvalue(), log

    def test_clean_tree_exits_zero(self):
        code, out, err, log = self.run_driver("int F() { return 1; }\n",
                                              "--frontend", "lexical")
        self.assertEqual(code, 0)
        self.assertEqual(out, "tm_toy: OK (frontend=lexical, 1 files, "
                              "1 functions)\n")
        self.assertEqual(err, "")
        self.assertEqual(log["runs"][0]["results"], [])

    def test_findings_exit_one_deduplicated_and_sorted(self):
        code, out, err, log = self.run_driver(
            "int F() {\n  BAD;\n}\nint G() { BAD; } // BAD\n",
            "--frontend", "lexical")
        self.assertEqual(code, 1)
        self.assertEqual(out, "")
        self.assertEqual(err.splitlines(), [
            "src/a.cc:2: [toy] BAD here",
            "src/a.cc:4: [toy] BAD here",
            "tm_toy: 2 error(s) (frontend=lexical)",
        ])
        self.assertEqual(len(log["runs"][0]["results"]), 2)

    def test_auto_falls_back_to_lexical_without_bindings(self):
        with mock.patch.dict(sys.modules, {"clang": None}):
            code, out, _, _ = self.run_driver("int F() { return 1; }\n",
                                              build_dir=True)
        self.assertEqual(code, 0)
        self.assertIn("frontend=lexical", out)

    def test_forced_clang_without_bindings_exits_two(self):
        with mock.patch.dict(sys.modules, {"clang": None}):
            code, out, err, log = self.run_driver(
                "int F() {\n  BAD;\n}\n", "--frontend", "clang",
                build_dir=True)
        self.assertEqual(code, 2)
        self.assertEqual(out, "")
        self.assertEqual(err, "tm_toy: clang frontend unavailable: python "
                              "clang bindings not importable\n")
        self.assertIsNone(log)

    def test_each_analyzer_cli_exits_two_when_clang_is_forced(self):
        # No --build-dir: the clang frontend is unavailable whether or not
        # the bindings are installed.
        for tool in ("tm_analyze.py", "tm_ct.py", "tm_sync.py"):
            with self.subTest(tool=tool):
                proc = subprocess.run(
                    [sys.executable, str(ANALYZE / tool),
                     "--frontend", "clang"],
                    capture_output=True, text=True)
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertIn("clang frontend unavailable", proc.stderr)


if __name__ == "__main__":
    unittest.main()
