#!/usr/bin/env python3
"""Census of the library's settings: every settable data member of each
`struct ...Config` / `struct ...Options` under src/, then every PALADIN_*
build switch that src/ tests with #if, #ifdef, #ifndef or #elif.

A report, not a gate: it prints one line per struct, the field total and
the switch list, and always exits 0.  ROADMAP.md item 7 tracks the totals.

    tools/config_census.py            # census of this checkout's src/
    tools/config_census.py OTHER_ROOT # census of another checkout's src/
"""
import pathlib
import re
import sys

STRUCT_RE = re.compile(r"\bstruct\s+(\w+(?:Config|Options))\b([^;{]*)\{")
SWITCH_LINE_RE = re.compile(r"^\s*#\s*(?:if|ifdef|ifndef|elif)\b(.*)$", re.M)
NOT_A_FIELD = ("static", "using", "typedef", "friend", "enum", "struct",
               "class", "template")


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    text = re.sub(r"//[^\n]*", "", text)
    return re.sub(r"^\s*#[^\n]*", "", text, flags=re.M)


def struct_body(text, open_brace):
    """The text between the brace at `open_brace` and its match."""
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[open_brace + 1:i]
    raise ValueError("unbalanced braces")


def member_statements(body):
    """Top-level declarations of a struct body: `;`-terminated statements
    and brace-bodied member functions, with nested braces kept whole."""
    statements, current, depth = [], [], 0
    for i, ch in enumerate(body):
        current.append(ch)
        if ch in "{(":
            depth += 1
        elif ch in "})":
            depth -= 1
            if ch == "}" and depth == 0 and \
                    not body[i + 1:].lstrip().startswith(";"):
                statements.append("".join(current))
                current = []
        elif ch == ";" and depth == 0:
            statements.append("".join(current))
            current = []
    return [s.strip() for s in statements if s.strip(" ;\n\t")]


def field_name(statement):
    statement = re.sub(r"^(public|private|protected)\s*:", "",
                       statement).strip()
    if not statement or statement.split()[0] in NOT_A_FIELD:
        return None
    if re.search(r"\boperator\b", statement):
        return None
    head = re.split(r"[={]", statement, maxsplit=1)[0]
    if "(" in head:
        return None  # a member function or constructor
    names = re.findall(r"([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*;?\s*$", head)
    return names[-1] if names else None


def census(root):
    src = root / "src"
    files = sorted(p for p in src.rglob("*") if p.suffix in (".h", ".cpp"))
    rows, switches = [], {}
    for path in files:
        raw = path.read_text()
        rel = path.relative_to(root)
        for m in SWITCH_LINE_RE.finditer(raw):
            for name in re.findall(r"\bPALADIN_\w+", m.group(1)):
                switches.setdefault(name, str(rel))
        text = strip_comments(raw)
        for m in STRUCT_RE.finditer(text):
            body = struct_body(text, m.end() - 1)
            fields = [f for f in map(field_name, member_statements(body)) if f]
            rows.append((str(rel), m.group(1), fields))
    return rows, switches


def main(argv):
    root = pathlib.Path(argv[1]) if len(argv) > 1 else \
        pathlib.Path(__file__).resolve().parent.parent
    rows, switches = census(root)
    for rel, name, fields in rows:
        listed = ", ".join(fields) if fields else "-"
        print(f"{name} ({rel}): {len(fields)}: {listed}")
    print(f"settable fields: {sum(len(f) for _, _, f in rows)} "
          f"in {len(rows)} structs")
    print(f"PALADIN_* build switches: {len(switches)}")
    for name, rel in sorted(switches.items()):
        print(f"  {name} ({rel})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
