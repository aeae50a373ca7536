"""Shared frontend of the TokenMagic static analyzers.

tm_analyze, tm_ct and tm_sync (and tm_lint, for the lexer and the output
path) keep only their rules. Everything that turns a source tree into
something a rule can read lives here, once:

  lexer      strip_comments blanks comments, the bodies of string and
             char literals, and preprocessor lines, keeping one output
             line per input line. Rules that match #include lines read
             the raw lines instead. balanced_args and comment_annotation
             are the two helpers every rule family uses on those lines.
  functions  FnDef records (name, parameters, body segments), found by a
             brace scanner (lexical_functions) or by libclang over
             compile_commands.json (clang_functions). Both frontends feed
             the same rules; clang_functions also lexically scans every
             header no translation unit covered, so header-only code is
             never silently skipped.
  loading    load_files reads the audited subtrees into raw and stripped
             per-line copies keyed by repo-relative path.
  driver     main() parses the CLI every analyzer shares (--root,
             --build-dir, --frontend auto|clang|lexical, --sarif), picks
             the frontend, runs the analyzer's check, and emits the
             findings through emit(): deduplicated by (file, line, rule),
             sorted, optionally written as SARIF, printed to stderr.

A new analyzer supplies its rule table, the subtrees it audits, and a
check(Sources) -> (findings, summary) function.

Exit codes: 0 clean, 1 findings, 2 --frontend clang requested but
unavailable.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import pathlib
import re
import sys
from typing import Callable

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "lint"))
import sarif  # noqa: E402  (tools/lint/sarif.py)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

# -- lexer -------------------------------------------------------------------

# A number literal running up to the current position (`1'000` at its
# second quote); a char literal never directly follows a digit token.
DIGIT_SEPARATOR_RE = re.compile(r"(?<![\w'])\d[\w']*$")


def strip_comments(lines: list[str]) -> list[str]:
    """Per-line copy with comments, literal bodies and preprocessor blanked.

    A literal keeps its quotes (`"a;b"` becomes `""`), so call shapes stay
    visible while text inside them cannot match a rule.
    """
    out = []
    in_block = False
    for line in lines:
        result = []
        i = 0
        if not in_block and line.lstrip().startswith("#"):
            out.append("")
            continue
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end == -1:
                    i = len(line)
                else:
                    in_block = False
                    i = end + 2
                continue
            ch = line[i]
            if ch == "/" and line.startswith("//", i):
                break
            if ch == "/" and line.startswith("/*", i):
                in_block = True
                i += 2
                continue
            if ch == "'" and DIGIT_SEPARATOR_RE.search(line, 0, i):
                result.append(ch)   # 1'000'000, not a char literal
                i += 1
                continue
            if ch in "\"'":
                quote = ch
                result.append(quote)
                i += 1
                while i < len(line):
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        break
                    i += 1
                result.append(quote)
                i += 1
                continue
            result.append(ch)
            i += 1
        out.append("".join(result))
    return out


def balanced_args(text: str, open_idx: int) -> str | None:
    """Returns the text between text[open_idx] == '(' and its match."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_idx + 1:i]
    return None


def comment_annotation(line: str, pattern: re.Pattern):
    """Matches `pattern` only right after the line's first `//` opener, so
    prose *about* an annotation grammar is not parsed as a use."""
    idx = line.find("//")
    if idx == -1:
        return None
    return pattern.match(line, idx)

# -- function extraction -----------------------------------------------------


KEYWORDS = {"if", "while", "for", "switch", "return", "do", "else",
            "catch", "sizeof", "static_cast", "reinterpret_cast",
            "const_cast", "alignof", "decltype", "new", "delete"}

# A function head: optional return type, optionally qualified name, "(".
HEAD_RE = re.compile(
    r'^(?:[\w:<>,*&\s]+?[\s*&])?((?:[\w]+::)*~?[A-Za-z_]\w*)\s*\(')
IDENT_RE = re.compile(r'[A-Za-z_]\w*')


@dataclasses.dataclass
class FnDef:
    name: str          # unqualified leaf name
    file: str          # repo-relative path
    head_line: int     # 1-based line of the signature start
    params: list[str]
    # (line_index_0based, code_text) segments of the body, in order.
    segments: list[tuple[int, str]]


def split_params(params_text: str) -> list[str]:
    """Last identifier of each top-level comma-separated parameter."""
    parts, depth, cur = [], 0, []
    for ch in params_text:
        if ch in "<([":
            depth += 1
        elif ch in ">)]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    names = []
    for p in parts:
        p = p.split("=")[0]
        p = re.sub(r'\[[^\]]*\]', '', p)
        idents = IDENT_RE.findall(p)
        if idents and idents[-1] not in ("void", "const", "int", "size_t",
                                         "uint64_t", "uint8_t", "U256"):
            names.append(idents[-1])
    return names


def body_segments(code: list[str], open_line: int, open_col: int
                  ) -> tuple[list[tuple[int, str]], int]:
    """Segments from the '{' at (open_line, open_col) to its match, and the
    index of the line holding the matching '}'."""
    segments = []
    depth = 0
    line_i = open_line
    start_col = open_col
    body_from = open_col + 1
    while line_i < len(code):
        text = code[line_i]
        for j in range(start_col, len(text)):
            if text[j] == "{":
                depth += 1
                if depth == 1:
                    body_from = j + 1
            elif text[j] == "}":
                depth -= 1
                if depth == 0:
                    begin = body_from if line_i == open_line else 0
                    segments.append((line_i, text[begin:j]))
                    return segments, line_i
        begin = open_col + 1 if line_i == open_line else 0
        if depth >= 1:
            segments.append((line_i, text[begin:]))
        line_i += 1
        start_col = 0
    return segments, line_i


def lexical_functions(path: str, code: list[str]) -> list[FnDef]:
    """Function definitions in one stripped file, found by a brace scanner.

    Declarations and constructors with an init list are skipped.
    """
    fns = []
    i = 0
    while i < len(code):
        line = code[i]
        m = HEAD_RE.match(line)
        if not m or m.group(1).split("::")[-1] in KEYWORDS:
            i += 1
            continue
        # Join the head until its parens balance and we reach '{' or ';'.
        head = line
        j = i
        while (head.count("(") > head.count(")")
               or not re.search(r'[;{]', head)) and j + 1 < len(code) \
                and j - i < 8:
            j += 1
            head = head + " " + code[j]
        args_text = balanced_args(head, head.find("(", m.start(1)))
        if args_text is None or ";" in head.split("{")[0]:
            i += 1
            continue
        close = head.find("(", m.start(1)) + 1 + len(args_text)
        tail = head[close + 1:]
        tail_stripped = tail.lstrip()
        if tail_stripped.startswith(":") and not tail_stripped.startswith("::"):
            i = j + 1
            continue
        if "{" not in tail:
            i = j + 1
            continue
        # Find the '{' position in the original per-line layout.
        open_line, open_col = None, None
        for k in range(i, min(j + 1, len(code))):
            col = code[k].find("{")
            if col != -1:
                open_line, open_col = k, col
                break
        if open_line is None:
            i = j + 1
            continue
        segments, end_line = body_segments(code, open_line, open_col)
        fns.append(FnDef(name=m.group(1).split("::")[-1], file=path,
                         head_line=i + 1, params=split_params(args_text),
                         segments=segments))
        i = end_line + 1
    return fns

# -- libclang ----------------------------------------------------------------


def clang_available(build_dir: pathlib.Path | None):
    """(clang.cindex, None) when the clang frontend can run, else
    (None, reason). Any failure to load the bindings counts as missing."""
    try:
        from clang import cindex
    except Exception:
        return None, "python clang bindings not importable"
    if build_dir is None or not (build_dir / "compile_commands.json").exists():
        return None, "no compile_commands.json (pass --build-dir)"
    try:
        cindex.Index.create()
    except Exception as e:  # libclang.so missing/mismatched
        return None, f"libclang unusable: {e}"
    return cindex, None


@functools.lru_cache(maxsize=None)
def relative(root: pathlib.Path, filename: str) -> str | None:
    """Repo-relative POSIX path of a libclang file name, or None when it
    lies outside the (resolved) `root`."""
    try:
        return pathlib.Path(filename).resolve().relative_to(root).as_posix()
    except ValueError:
        return None


def translation_units(cindex, root: pathlib.Path, build_dir: pathlib.Path,
                      files: dict[str, list[str]]):
    """Parses each .cc in `files` that compile_commands.json covers."""
    index = cindex.Index.create()
    db = cindex.CompilationDatabase.fromDirectory(str(build_dir))
    for rel in sorted(files):
        if not rel.endswith(".cc"):
            continue
        path = str((root / rel).resolve())
        cmds = db.getCompileCommands(path)
        if not cmds:
            continue
        # Drop the compiler, "-c", and the "-o out.o" / "in.cc" operands;
        # keep include dirs, defines and the language standard.
        args, skip = [], False
        for a in list(cmds[0].arguments)[1:]:
            if skip:
                skip = False
                continue
            if a in ("-o", "-c"):
                skip = a == "-o"
                continue
            if a.endswith(".cc") or a.endswith(".o"):
                continue
            args.append(a)
        try:
            tu = index.parse(path, args=args)
        except Exception:
            continue
        yield tu


def clang_functions(cindex, root: pathlib.Path, build_dir: pathlib.Path,
                    files: dict[str, list[str]],
                    code: dict[str, list[str]]) -> list[FnDef] | None:
    """AST-precise function discovery; None when no TU could be parsed."""
    kinds = cindex.CursorKind
    fn_kinds = (kinds.FUNCTION_DECL, kinds.CXX_METHOD, kinds.CONSTRUCTOR,
                kinds.DESTRUCTOR)
    fns, seen = [], set()

    def visit(cur):
        try:
            loc_file = cur.location.file
        except Exception:
            loc_file = None
        if cur.kind in fn_kinds and cur.is_definition() and loc_file:
            rel = relative(root, loc_file.name)
            body = None
            if rel in files:
                for child in cur.get_children():
                    if child.kind == kinds.COMPOUND_STMT:
                        body = child
            key = (rel, cur.spelling, cur.extent.start.line)
            if body is not None and key not in seen:
                seen.add(key)
                clines = code[rel]
                open_line = body.extent.start.line - 1
                open_col = body.extent.start.column - 1
                if (0 <= open_line < len(clines)
                        and clines[open_line].find("{", open_col) >= 0):
                    open_col = clines[open_line].find("{", open_col)
                    segs, _ = body_segments(clines, open_line, open_col)
                    fns.append(FnDef(
                        name=cur.spelling.split("::")[-1], file=rel,
                        head_line=cur.extent.start.line,
                        params=[a.spelling for a in cur.get_arguments()
                                if a.spelling],
                        segments=segs))
        for child in cur.get_children():
            visit(child)

    parsed_any = False
    for tu in translation_units(cindex, root, build_dir, files):
        parsed_any = True
        visit(tu.cursor)
    # Headers (inline bodies) are only seen through includes; merge in a
    # lexical pass over any header no TU covered so header-only code
    # (bounded_queue.h) is never silently skipped.
    covered = {f.file for f in fns}
    for rel in sorted(files):
        if rel.endswith(".h") and rel not in covered:
            fns.extend(lexical_functions(rel, code[rel]))
    return fns if parsed_any else None

# -- loading -----------------------------------------------------------------


def load_files(root: pathlib.Path, subdirs: tuple[str, ...]
               ) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """(raw, stripped) lines of every .h/.cc under root/<subdir>, keyed by
    repo-relative POSIX path, in subdir order then path order."""
    files: dict[str, list[str]] = {}
    code: dict[str, list[str]] = {}
    for sub in subdirs:
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            rel = path.relative_to(root).as_posix()
            raw = path.read_text(encoding="utf-8",
                                 errors="replace").splitlines()
            files[rel] = raw
            code[rel] = strip_comments(raw)
    return files, code

# -- driver ------------------------------------------------------------------


@dataclasses.dataclass
class Sources:
    """What an analyzer's check reads."""
    root: pathlib.Path
    files: dict[str, list[str]]          # repo-relative path -> raw lines
    code: dict[str, list[str]]           # same keys, strip_comments applied
    build_dir: pathlib.Path | None = None
    cindex: object | None = None         # set when the clang frontend runs
    fns: list[FnDef] | None = None       # set for analyzers that ask


def emit(name: str, version: str, rules: dict[str, str],
         findings: list[sarif.Finding], sarif_path: pathlib.Path | None,
         ok: str = "OK", suffix: str = "") -> int:
    """Dedupes by (file, line, rule), sorts, writes SARIF, prints; returns
    the exit code (0 clean, 1 findings)."""
    findings = sorted({(f.file, f.line, f.rule_id): f
                       for f in findings}.values(),
                      key=lambda f: (f.file, f.line, f.rule_id))
    if sarif_path is not None:
        sarif.write_log(sarif_path,
                        sarif.make_log(name, version, findings, rules))
    if findings:
        for f in findings:
            print(f.render(), file=sys.stderr)
        print(f"{name}: {len(findings)} error(s){suffix}", file=sys.stderr)
        return 1
    print(f"{name}: {ok}")
    return 0


def main(name: str, version: str, description: str, rules: dict[str, str],
         subdirs: tuple[str, ...],
         check: Callable[[Sources], tuple[list[sarif.Finding], str]],
         functions: bool = False, argv: list[str] | None = None) -> int:
    """Runs one analyzer: `check` gets the loaded Sources (with `fns` when
    `functions` is set) and returns its findings and the summary that
    follows the file count on the OK line."""
    parser = argparse.ArgumentParser(
        description=description,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=pathlib.Path, default=REPO_ROOT)
    parser.add_argument("--build-dir", type=pathlib.Path, default=None,
                        help="build dir containing compile_commands.json "
                             "(enables the clang frontend)")
    parser.add_argument("--frontend", choices=("auto", "clang", "lexical"),
                        default="auto")
    parser.add_argument("--sarif", type=pathlib.Path, default=None,
                        help="also write findings as a SARIF 2.1.0 log")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    files, code = load_files(root, subdirs)
    if not files:
        print(f"{name}: no sources under "
              f"{', '.join(str(root / sub) for sub in subdirs)}",
              file=sys.stderr)
        return 0
    src = Sources(root, files, code, build_dir=args.build_dir)
    if args.frontend != "lexical":
        src.cindex, reason = clang_available(args.build_dir)
        if src.cindex is None and args.frontend == "clang":
            print(f"{name}: clang frontend unavailable: {reason}",
                  file=sys.stderr)
            return 2
    if functions:
        if src.cindex is not None:
            src.fns = clang_functions(src.cindex, root, args.build_dir,
                                      files, code)
            if src.fns is None:
                if args.frontend == "clang":
                    print(f"{name}: clang frontend produced no translation "
                          f"units", file=sys.stderr)
                    return 2
                src.cindex = None
        if src.fns is None:
            src.fns = [fn for rel in sorted(files)
                       for fn in lexical_functions(rel, code[rel])]
    frontend = "lexical" if src.cindex is None else "clang"
    findings, summary = check(src)
    return emit(name, version, rules, findings, args.sarif,
                ok=f"OK (frontend={frontend}, {len(files)} files, "
                   f"{summary})",
                suffix=f" (frontend={frontend})")
