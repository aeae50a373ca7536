"""Shared SARIF 2.1.0 emission for the TokenMagic static-analysis tools.

The four analyzers (tm_lint, tm_analyze, tm_ct, tm_sync) produce findings
as (file, line, rule_id, message) tuples; this module, through the shared
output path in tools/analyze/frontend.py, turns one tool's findings into a
SARIF log that GitHub code scanning can ingest, so findings annotate PR
diffs inline. Plain-text output stays the default for local runs — SARIF
is opt-in via each tool's --sarif flag.

No third-party dependencies: the SARIF log is assembled as plain dicts and
serialized with the stdlib json module.

Also usable as a CLI to merge per-tool logs into one multi-run log, so CI
uploads a single artifact for all analyzers instead of one per tool:

    python3 tools/lint/sarif.py merge OUT.sarif IN1.sarif IN2.sarif ...

A SARIF log holds a list of runs; merging concatenates each input's runs
in argument order (one run per tool), which GitHub code scanning ingests
as separate tool entries from one upload.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule violation at a file/line."""

    file: str          # path, repo-root relative (POSIX separators)
    line: int          # 1-based; 0 means "whole file"
    rule_id: str       # stable check identifier, e.g. "view-member"
    message: str
    level: str = "error"  # SARIF level: error | warning | note

    def render(self) -> str:
        """The plain-text form used for local/terminal output."""
        return f"{self.file}:{self.line}: [{self.rule_id}] {self.message}"


def make_log(tool_name: str, tool_version: str, findings: list[Finding],
             rules: dict[str, str] | None = None) -> dict:
    """Builds a single-run SARIF log dict.

    `rules` maps rule id -> short description; ids present in findings but
    missing from `rules` still get a minimal reportingDescriptor so the
    log validates.
    """
    rules = dict(rules or {})
    for finding in findings:
        rules.setdefault(finding.rule_id, finding.rule_id)
    rule_ids = sorted(rules)
    rule_index = {rule_id: i for i, rule_id in enumerate(rule_ids)}

    results = []
    for finding in findings:
        region = {}
        if finding.line > 0:
            region = {"region": {"startLine": finding.line}}
        results.append({
            "ruleId": finding.rule_id,
            "ruleIndex": rule_index[finding.rule_id],
            "level": finding.level,
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.file,
                        "uriBaseId": "SRCROOT",
                    },
                    **region,
                },
            }],
        })

    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": tool_name,
                    "version": tool_version,
                    "informationUri":
                        "https://github.com/tokenmagic/tokenmagic",
                    "rules": [{
                        "id": rule_id,
                        "shortDescription": {"text": rules[rule_id]},
                    } for rule_id in rule_ids],
                },
            },
            "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
            "results": results,
        }],
    }


def write_log(path: pathlib.Path, log: dict) -> None:
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(log, indent=2, sort_keys=False) + "\n")


def merge_logs(logs: list[dict]) -> dict:
    """One multi-run log from several single-run logs (runs concatenate
    in input order; each keeps its own tool.driver and rule table)."""
    runs: list[dict] = []
    for log in logs:
        if log.get("version") != SARIF_VERSION:
            raise ValueError(
                f"cannot merge SARIF version {log.get('version')!r}; "
                f"expected {SARIF_VERSION}")
        runs.extend(log.get("runs", []))
    return {"$schema": SARIF_SCHEMA, "version": SARIF_VERSION, "runs": runs}


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[1] != "merge":
        print("usage: sarif.py merge OUT.sarif IN.sarif [IN.sarif ...]",
              file=sys.stderr)
        return 2
    out, inputs = pathlib.Path(argv[2]), argv[3:]
    logs = []
    for name in inputs:
        logs.append(json.loads(pathlib.Path(name).read_text()))
    merged = merge_logs(logs)
    write_log(out, merged)
    n_results = sum(len(r.get("results", [])) for r in merged["runs"])
    print(f"sarif: merged {len(logs)} log(s) -> {out} "
          f"({len(merged['runs'])} runs, {n_results} results)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
