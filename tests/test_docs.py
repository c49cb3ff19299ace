"""Docs drift: every CLI command the docs show must still exist.

Scans the user-facing Markdown for ``python -m repro.experiments.cli
VERB`` (VERB must be a CLI verb), ``--preset NAME`` (a campaign preset),
``paper NAME`` written as a command (a figure the ``paper`` verb
regenerates), ``cli VERB ACTION`` or `` `VERB ACTION` `` (ACTION
must be one of the verb's actions), every ``--flag`` of a
documented command line (a parser option) and every repository path
in inline code (a file or directory, or a glob that matches one).
"""

import re
from pathlib import Path

from repro.campaign import PRESET_PLANS
from repro.experiments.cli import _ACTIONS, _COMMANDS, _PAPER, build_parser

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / name for name in ("README.md", "EXPERIMENTS.md", "DESIGN.md")]
DOCS += sorted((ROOT / "docs").glob("*.md"))

CHECKS = (
    (re.compile(r"python -m repro\.experiments\.cli\s+([a-z][\w-]*)"),
     _COMMANDS, "verb"),
    (re.compile(r"--preset[ =]([a-z][\w-]*)"), PRESET_PLANS, "preset"),
    # ``cli paper NAME`` or `paper NAME` in backticks, not prose
    (re.compile(r"(?:cli\s+|`)paper\s+([a-z][\w-]*)"), _PAPER, "figure"),
)

#: ``cli VERB ACTION`` as a command, or `VERB ACTION` in backticks
ACTION = re.compile(
    r"(?:repro\.experiments\.cli[ \t]+|`)([a-z][\w-]*)[ \t]+([a-z][\w-]*)"
)

#: a documented command line: to the end of its line, with the lines a
#: trailing backslash continues it onto; an inline one ends at its
#: closing backtick, and a shell comment is not part of it
COMMAND = re.compile(
    r"python -m repro\.experiments\.cli\b((?:[^\n`#]*\\\n)*[^\n`#]*)"
)
FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")

#: inline code, and a repository path in it; a test id's ``::name``
#: is not part of the path
CODE = re.compile(r"`([^`\n]+)`")
PATH = re.compile(
    r"(?<![\w/.-])(?:benchmarks|scripts|src|tests|examples|docs)/[\w./*<>-]*"
)


def test_docs_name_real_verbs_presets_and_figures():
    assert len(DOCS) > 3 and all(doc.is_file() for doc in DOCS)
    unknown = []
    for doc in DOCS:
        text = doc.read_text(encoding="utf-8")
        for pattern, known, kind in CHECKS:
            for match in pattern.finditer(text):
                if match.group(1) not in known:
                    line = text.count("\n", 0, match.start()) + 1
                    unknown.append(f"{doc.name}:{line}: unknown {kind} "
                                   f"{match.group(1)!r}")
    assert unknown == []


def test_docs_name_real_actions():
    shown, unknown = 0, []
    for doc in DOCS:
        text = doc.read_text(encoding="utf-8")
        for match in ACTION.finditer(text):
            verb, action = match.groups()
            if verb not in _ACTIONS:
                continue
            shown += 1
            if action not in _ACTIONS[verb]:
                line = text.count("\n", 0, match.start()) + 1
                unknown.append(f"{doc.name}:{line}: {verb} has no action "
                               f"{action!r}")
    assert shown > 20
    assert unknown == []


def test_docs_pass_real_flags():
    options = {option for action in build_parser()._actions
               for option in action.option_strings}
    shown, unknown = 0, []
    for doc in DOCS:
        text = doc.read_text(encoding="utf-8")
        for match in COMMAND.finditer(text):
            for flag in FLAG.findall(match.group(1)):
                shown += 1
                if flag not in options:
                    line = text.count("\n", 0, match.start()) + 1
                    unknown.append(f"{doc.name}:{line}: no flag {flag}")
    assert shown > 50
    assert unknown == []


def test_docs_name_real_paths():
    shown, missing = 0, []
    for doc in DOCS:
        text = doc.read_text(encoding="utf-8")
        for code in CODE.finditer(text):
            for path in PATH.findall(code.group(1)):
                if "<" in path:  # a placeholder, as in bench_<exp>*.py
                    continue
                shown += 1
                if not any(ROOT.glob(path)):
                    line = text.count("\n", 0, code.start()) + 1
                    missing.append(f"{doc.name}:{line}: no path {path}")
    assert shown > 50
    assert missing == []
