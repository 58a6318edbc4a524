"""``tools/census.py --check``: the allow-list ratchet, on a synthetic
reach table (the census itself takes tens of minutes and is not run)."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_census():
    spec = importlib.util.spec_from_file_location("census", ROOT / "tools" / "census.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


census = load_census()

ALLOW = """
# comments and blank lines are skipped

repro/core/persistence.py load_encoder  public contract: save/load
repro/serve/backends.py ANNBackend.rebuild  base-class stub
repro/gone.py removed_helper  paper menu: Table I
"""


def test_flagged_function_without_an_allow_line_fails():
    allowed = census.parse_allow(ALLOW)
    assert allowed[("repro/core/persistence.py", "load_encoder")] == (
        "public contract: save/load"
    )
    flagged = [
        ("repro/core/persistence.py", 120, "load_encoder"),
        ("repro/serve/backends.py", 88, "ANNBackend.rebuild"),
        ("repro/serve/service.py", 42, "MatchService.test_only_helper"),
    ]
    missing, stale = census.check_allowed(flagged, allowed)
    assert missing == [("repro/serve/service.py", 42, "MatchService.test_only_helper")]
    assert stale == [("repro/gone.py", "removed_helper")]


def test_allow_lines_ignore_line_numbers():
    allowed = census.parse_allow(ALLOW)
    moved = [("repro/core/persistence.py", 999, "load_encoder")]
    assert census.check_allowed(moved, allowed)[0] == []


def test_every_flagged_function_allowed_passes():
    allowed = census.parse_allow(ALLOW)
    flagged = [
        ("repro/core/persistence.py", 1, "load_encoder"),
        ("repro/serve/backends.py", 2, "ANNBackend.rebuild"),
        ("repro/gone.py", 3, "removed_helper"),
    ]
    assert census.check_allowed(flagged, allowed) == ([], [])


@pytest.mark.parametrize(
    "text",
    [
        "repro/core/persistence.py load_encoder",
        "repro/a.py f  reason one\nrepro/a.py f  reason two",
    ],
    ids=["no-reason", "repeated"],
)
def test_line_without_a_reason_or_repeated_is_an_error(text):
    with pytest.raises(ValueError):
        census.parse_allow(text)


def test_checked_in_allow_list_parses_with_a_reason_per_line():
    allowed = census.parse_allow((ROOT / "tools" / "census_allow.txt").read_text())
    assert allowed
    assert all(reason.strip() for reason in allowed.values())
    for path, _ in allowed:
        assert (ROOT / "src" / path).is_file(), path
