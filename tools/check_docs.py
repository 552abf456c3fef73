#!/usr/bin/env python
"""Guard documentation code blocks against API drift.

Extracts every fenced ``python`` code block from the given markdown files
(default: README.md and docs/ARCHITECTURE.md) and executes them in order,
doctest-style, inside one shared namespace per file.  A block that raises —
because a documented function, argument or attribute no longer exists —
fails the check, so the documentation cannot silently drift away from the
actual API.

Blocks can opt out with a ``<!-- docs-check: skip -->`` comment on the line
directly above the opening fence (for illustrative pseudo-code).

Every ``python -m repro.service <verb> --flag ...`` command in a fenced
``sh`` block is checked too: each flag must appear in that verb's
``--help``, so a deleted flag cannot linger in the documentation.

The ``current (s)`` column of the benchmark trajectory table in
PERFORMANCE.md must equal ``current.configs[*].wall_s`` of
``BENCH_maxrank.json`` at two decimals, so the table cannot fall behind
the committed baseline.

Usage::

    python tools/check_docs.py [file.md ...]
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path
from typing import List, Mapping, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

DEFAULT_FILES = ("README.md", "docs/ARCHITECTURE.md")
_FENCE = re.compile(
    r"^(?P<indent>[ ]*)```python[^\n]*\n(?P<body>.*?)^(?P=indent)```[ ]*$",
    re.MULTILINE | re.DOTALL,
)
_SH_FENCE = re.compile(
    r"^(?P<indent>[ ]*)```sh[^\n]*\n(?P<body>.*?)^(?P=indent)```[ ]*$",
    re.MULTILINE | re.DOTALL,
)
_SKIP_MARK = "docs-check: skip"
_SERVICE_COMMAND = re.compile(r"python -m repro\.service\s+(?P<verb>\S+)(?P<rest>.*)")
#: Where a documented command's own arguments end: a pipe, a redirect, a
#: command separator or a comment.
_COMMAND_END = re.compile(r"\s(?:\||>|<|;|&&|#)")
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
#: The trajectory table and the column that mirrors the committed baseline.
TRAJECTORY_DOC = "PERFORMANCE.md"
TRAJECTORY_COLUMN = "current (s)"


def extract_blocks(text: str) -> List[Tuple[int, str]]:
    """Return ``(line_number, source)`` for every checkable python block."""
    blocks: List[Tuple[int, str]] = []
    for match in _FENCE.finditer(text):
        preceding = text[: match.start()].rstrip("\n").rsplit("\n", 1)[-1]
        if _SKIP_MARK in preceding:
            continue
        line = text[: match.start()].count("\n") + 1
        indent = match.group("indent")
        body = match.group("body")
        if indent:
            body = "\n".join(
                row[len(indent):] if row.startswith(indent) else row
                for row in body.split("\n")
            )
        blocks.append((line, body))
    return blocks


def service_commands(text: str) -> List[Tuple[int, str, List[str]]]:
    """``(line, verb, flags)`` of every ``python -m repro.service`` command
    in the fenced ``sh`` blocks of ``text`` (backslash continuations
    joined; ``line`` is where the command's first row is)."""
    commands: List[Tuple[int, str, List[str]]] = []
    for match in _SH_FENCE.finditer(text):
        first = text[: match.start()].count("\n") + 2
        logical, start = "", first
        for number, row in enumerate(match.group("body").split("\n"), first):
            if not logical:
                start = number
            if row.endswith("\\"):
                logical += row[:-1] + " "
                continue
            command = _SERVICE_COMMAND.search(logical + row)
            logical = ""
            if command is not None:
                rest = _COMMAND_END.split(command.group("rest"), maxsplit=1)[0]
                commands.append(
                    (start, command.group("verb"), _FLAG.findall(rest))
                )
    return commands


def verb_flags(verb: str) -> List[str]:
    """The flags ``python -m repro.service <verb> --help`` lists (empty
    for an unknown verb)."""
    from repro.service.cli import main as service_main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            service_main([verb, "--help"])
        except SystemExit:
            pass
    return _FLAG.findall(out.getvalue())


def check_service_flags(path: Path) -> Tuple[List[str], int]:
    """Check every documented service command's flags; return (failures,
    command count)."""
    failures: List[str] = []
    commands = service_commands(path.read_text(encoding="utf-8"))
    known = {}
    for line, verb, flags in commands:
        if verb not in known:
            known[verb] = set(verb_flags(verb))
        if not known[verb]:
            failures.append(f"{path}:{line}: unknown repro.service verb {verb!r}")
            continue
        for flag in flags:
            if flag not in known[verb]:
                failures.append(
                    f"{path}:{line}: `repro.service {verb}` has no {flag} flag"
                )
    return failures, len(commands)


def trajectory_cells(text: str) -> List[Tuple[int, str, str]]:
    """``(line, config, value)`` for every row of each markdown table in
    ``text`` that has a ``current (s)`` column."""
    cells: List[Tuple[int, str, str]] = []
    column = None  # None: outside a table; -1: a table without the column
    for number, line in enumerate(text.split("\n"), 1):
        if not line.startswith("|"):
            column = None
            continue
        row = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if column is None:
            column = row.index(TRAJECTORY_COLUMN) if TRAJECTORY_COLUMN in row else -1
        elif column >= 0 and not set(row[0]) <= set("-: "):
            cells.append((number, row[0], row[column]))
    return cells


def check_trajectory(path: Path, configs: Mapping[str, Mapping[str, object]]) -> List[str]:
    """Check the ``current (s)`` column of ``path`` against the committed
    baseline's ``configs``; return the failures."""
    cells = trajectory_cells(path.read_text(encoding="utf-8"))
    if not cells:
        return [f"{path}: no table with a {TRAJECTORY_COLUMN!r} column"]
    failures: List[str] = []
    for line, config, value in cells:
        wall = configs.get(config, {}).get("wall_s")
        if wall is None:
            failures.append(f"{path}:{line}: {config} has no wall_s in the baseline")
        elif value != f"{float(wall):.2f}":
            failures.append(
                f"{path}:{line}: {config} reads {value}, the baseline's wall_s "
                f"is {float(wall):.2f}"
            )
    return failures


def run_file(path: Path) -> Tuple[List[str], int]:
    """Execute every python block of one file; return (failures, block count)."""
    failures: List[str] = []
    blocks = extract_blocks(path.read_text(encoding="utf-8"))
    namespace: dict = {"__name__": f"docscheck_{path.stem}"}
    for line, source in blocks:
        try:
            code = compile(source, f"{path}:{line}", "exec")
            exec(code, namespace)  # noqa: S102 - the whole point of the check
        except Exception as error:  # pragma: no cover - failure reporting
            failures.append(f"{path}:{line}: {type(error).__name__}: {error}")
    return failures, len(blocks)


def main(argv: List[str]) -> int:
    targets = [Path(name) for name in (argv or list(DEFAULT_FILES))]
    failures: List[str] = []
    checked = 0
    commands = 0
    for target in targets:
        path = target if target.is_absolute() else REPO_ROOT / target
        if not path.exists():
            failures.append(f"{target}: file not found")
            continue
        file_failures, block_count = run_file(path)
        checked += block_count
        failures.extend(file_failures)
        flag_failures, command_count = check_service_flags(path)
        commands += command_count
        failures.extend(flag_failures)
    baseline = json.loads((REPO_ROOT / "BENCH_maxrank.json").read_text(encoding="utf-8"))
    failures.extend(
        check_trajectory(REPO_ROOT / TRAJECTORY_DOC, baseline["current"]["configs"])
    )
    if failures:
        print("docs check FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"docs check OK ({checked} code block(s) executed, "
          f"{commands} service command(s) checked)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
