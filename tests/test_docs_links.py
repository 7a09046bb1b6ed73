"""Every README link to one of its own sections lands on a heading, and every repository path it
names in backticks exists."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
# a path with at least one directory, ending in a file name with an extension or in "/"
# (`benchmarks/README.md`, `configs/`), or a top-level document or module (`CHANGES.md`);
# a formula such as `rho/2` has no extension and is not a path
PATH = re.compile(r"`((?:[\w.-]+/)+(?:[\w-]+\.\w+)?|[\w-]+\.(?:md|py|toml))`")


def prose(text: str) -> str:
    """The text outside fenced blocks, where a `#` line is a comment, not a heading."""
    return re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)


def anchor(heading: str) -> str:
    """GitHub's anchor of a heading: lower case, punctuation but hyphens dropped, spaces to
    hyphens."""
    return re.sub(r"[^\w\- ]", "", heading.strip().lower()).replace(" ", "-")


def dangling_anchors(text: str) -> list[str]:
    body = prose(text)
    headings = {anchor(h) for h in re.findall(r"^#+ (.+)$", body, re.M)}
    return sorted(set(re.findall(r"\]\(#([^)]+)\)", body)) - headings)


def missing_paths(text: str, root: Path) -> list[str]:
    return sorted({p for p in PATH.findall(prose(text)) if not (root / p).exists()})


def test_the_checks_find_a_dangling_anchor_and_a_missing_path():
    text = ("## Command line\n\nsee [here](#command-line), [there](#performance), "
            "`benchmarks/README.md`, `CHANGES.md`, `configs/`, `rho/2`, `nowhere/x.json`\n"
            "```\n# Performance\n```\n")
    assert dangling_anchors(text) == ["performance"]
    assert missing_paths(text, ROOT) == ["nowhere/x.json"]


def test_readme_anchor_links_land_on_headings():
    text = README.read_text(encoding="utf-8")
    assert re.search(r"\]\(#", text)
    assert dangling_anchors(text) == []


def test_readme_repository_paths_exist():
    text = README.read_text(encoding="utf-8")
    assert PATH.search(prose(text))
    assert missing_paths(text, ROOT) == []
