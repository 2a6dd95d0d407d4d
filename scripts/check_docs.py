"""Docs drift gate: broken links and a stale EXPERIMENTS.md fail CI.

Usage:  PYTHONPATH=src python scripts/check_docs.py [--experiments]

Two checks:

* **Links** (always): every relative link in ``README.md`` and
  ``docs/*.md`` must resolve to a file in the repository. Anchors
  (``page.md#section``) are checked for the file part only; absolute
  URLs are skipped.
* **EXPERIMENTS.md staleness** (``--experiments``; several minutes):
  re-runs ``scripts/generate_experiments_md.py`` into a scratch file and
  diffs it against the committed EXPERIMENTS.md after masking the
  run-to-run noise — ``_(ran in Ns)_`` footers and measured wall-clock
  cells like ``12.34 s`` / ``1.2 ms`` in the §6.4.5 overhead table, each
  with the alignment padding after it (a timing one digit wider leaves
  one space less). Any other difference means a code change altered
  experiment output without the file being regenerated.
"""

from __future__ import annotations

import argparse
import difflib
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Markdown links: [text](target). Images share the syntax (![alt](src)).
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Run-to-run noise masked before the staleness diff. A wall-clock cell
#: takes its table padding with it: the spaces up to the next column
#: separator or the end of the line.
_NOISE_RES = (
    re.compile(r"_\(ran in \d+s\)_"),
    re.compile(r"\b\d+(?:\.\d+)? (?:s|ms)\b(?: *(?=\|)| *$)?", re.MULTILINE),
    re.compile(r"self-overhead: [^\n]*"),
)


def iter_doc_files() -> "list[Path]":
    return [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))


def check_links() -> "list[str]":
    """Every relative markdown link must resolve; returns error strings."""
    errors: "list[str]" = []
    for doc in iter_doc_files():
        text = doc.read_text(encoding="utf-8")
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:  # pure in-page anchor
                continue
            resolved = (doc.parent / path_part).resolve()
            if not resolved.exists():
                rel = doc.relative_to(REPO)
                errors.append(f"{rel}: broken link -> {target}")
    return errors


def _mask_noise(text: str) -> str:
    for pattern in _NOISE_RES:
        text = pattern.sub("<masked>", text)
    return text


def check_experiments() -> "list[str]":
    """Regenerate EXPERIMENTS.md and diff against the committed copy."""
    committed = REPO / "EXPERIMENTS.md"
    if not committed.exists():
        return ["EXPERIMENTS.md is missing"]
    with tempfile.NamedTemporaryFile(suffix=".md", delete=False) as tmp:
        scratch = Path(tmp.name)
    try:
        subprocess.run(
            [sys.executable, str(REPO / "scripts/generate_experiments_md.py"),
             "--output", str(scratch)],
            cwd=REPO, check=True,
        )
        regenerated = scratch.read_text(encoding="utf-8")
    finally:
        scratch.unlink(missing_ok=True)
    return diff_experiments(committed.read_text(encoding="utf-8"),
                            regenerated)


def diff_experiments(committed: str, regenerated: str) -> "list[str]":
    """The staleness error for two EXPERIMENTS.md texts, if they differ
    beyond run-to-run noise; an empty list when they agree."""
    want = _mask_noise(regenerated)
    have = _mask_noise(committed)
    if want == have:
        return []
    diff = "\n".join(difflib.unified_diff(
        have.splitlines(), want.splitlines(),
        fromfile="EXPERIMENTS.md (committed)",
        tofile="EXPERIMENTS.md (regenerated)", lineterm="", n=2,
    ))
    return ["EXPERIMENTS.md is stale — regenerate with "
            "`PYTHONPATH=src python scripts/generate_experiments_md.py`:\n"
            + diff]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--experiments", action="store_true",
                        help="also regenerate and diff EXPERIMENTS.md (slow)")
    args = parser.parse_args()

    errors = check_links()
    n_docs = len(iter_doc_files())
    if not errors:
        print(f"links OK across {n_docs} markdown files")
    if args.experiments:
        exp_errors = check_experiments()
        if not exp_errors:
            print("EXPERIMENTS.md is fresh")
        errors += exp_errors
    for err in errors:
        print(f"ERROR: {err}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
