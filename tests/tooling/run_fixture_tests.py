#!/usr/bin/env python3
"""Fixture corpus for the static-analysis tools (ctest: tooling_fixtures).

Each of the four tools (tm_lint, tm_analyze, tm_ct, tm_sync) gets a `bad`
tree (one minimal TU per check, every rule fires at a pinned file:line)
and a `good` tree (the same shapes with valid annotations, zero findings).
This is what keeps the analyzers honest in both directions: a regression
that stops a rule from firing breaks the `bad` expectations, and one that
over-fires breaks the `good` trees. The `bad` expectations are the full
rendered findings (`file:line: [rule] message`), compared as multisets, so
a changed message or a duplicated finding fails too.

Also validates the --sarif output of all four tools against the shape
GitHub code scanning requires (version, rules, physical locations).
"""

from __future__ import annotations

import collections
import json
import pathlib
import re
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
FINDING_RE = re.compile(r'^(\S+?):(\d+): \[([\w-]+)\]')

TOOLS = {
    "lint": ROOT / "tools" / "lint" / "tm_lint.py",
    "analyze": ROOT / "tools" / "analyze" / "tm_analyze.py",
    "ct": ROOT / "tools" / "analyze" / "tm_ct.py",
    "sync": ROOT / "tools" / "analyze" / "tm_sync.py",
}

failures: list[str] = []


def fail(message: str) -> None:
    failures.append(message)
    print(f"FAIL: {message}", file=sys.stderr)


def run_tool(tool: str, tree: pathlib.Path, sarif: pathlib.Path | None = None):
    cmd = [sys.executable, str(TOOLS[tool]), "--root", str(tree)]
    if tool in ("analyze", "ct", "sync"):
        cmd += ["--frontend", "lexical"]  # pinned: fixtures test the rules
    if sarif is not None:
        cmd += ["--sarif", str(sarif)]
    return subprocess.run(cmd, capture_output=True, text=True)


def parse_findings(stderr: str) -> collections.Counter[str]:
    return collections.Counter(
        line for line in stderr.splitlines() if FINDING_RE.match(line))


def load_expected(path: pathlib.Path) -> collections.Counter[str]:
    return collections.Counter(
        line for line in path.read_text().splitlines()
        if line.strip() and not line.startswith("#"))


def check_bad(tool: str) -> None:
    tree = HERE / tool / "bad"
    with tempfile.TemporaryDirectory() as tmp:
        sarif_path = pathlib.Path(tmp) / "out.sarif"
        proc = run_tool(tool, tree, sarif_path)
        if proc.returncode != 1:
            fail(f"{tool}/bad: expected exit 1, got {proc.returncode}\n"
                 f"{proc.stderr}")
            return
        found = parse_findings(proc.stderr)
        expected = load_expected(tree / "expected.txt")
        for missing in sorted((expected - found).elements()):
            fail(f"{tool}/bad: expected finding did not fire: {missing}")
        for extra in sorted((found - expected).elements()):
            fail(f"{tool}/bad: unexpected finding: {extra}")
        check_sarif(tool, sarif_path, sum(found.values()))


def check_sarif(tool: str, path: pathlib.Path, n_findings: int) -> None:
    if not path.exists():
        fail(f"{tool}/bad: --sarif produced no file")
        return
    log = json.loads(path.read_text())
    if log.get("version") != "2.1.0":
        fail(f"{tool}/bad: SARIF version is {log.get('version')}")
        return
    run = log["runs"][0]
    results = run["results"]
    if len(results) != n_findings:
        fail(f"{tool}/bad: SARIF has {len(results)} results, stderr had "
             f"{n_findings} findings")
    rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
    for result in results:
        if result["ruleId"] not in rules:
            fail(f"{tool}/bad: SARIF result rule {result['ruleId']} missing "
                 "from driver.rules")
        loc = result["locations"][0]["physicalLocation"]
        if loc["artifactLocation"].get("uriBaseId") != "SRCROOT":
            fail(f"{tool}/bad: SARIF location missing SRCROOT uriBaseId")


def check_good(tool: str) -> None:
    tree = HERE / tool / "good"
    proc = run_tool(tool, tree)
    if proc.returncode != 0:
        fail(f"{tool}/good: expected exit 0, got {proc.returncode}\n"
             f"{proc.stderr}")


def check_real_tree() -> None:
    """The actual src/ must be clean under all four tools — the same gate
    the `lint`, `analyze`, `ct_analyze` and `sync_analyze` ctest targets
    enforce, repeated here so a fixture run alone proves the annotations
    in the repo are complete."""
    for tool in TOOLS:
        proc = run_tool(tool, ROOT)
        if proc.returncode != 0:
            fail(f"{tool} on the repo tree: expected exit 0, got "
                 f"{proc.returncode}\n{proc.stderr}")


def main() -> int:
    for tool in TOOLS:
        check_bad(tool)
        check_good(tool)
    check_real_tree()
    if failures:
        print(f"tooling fixtures: {len(failures)} failure(s)",
              file=sys.stderr)
        return 1
    print("tooling fixtures: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
