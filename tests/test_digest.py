"""The byte-identity digest, .github/digest.py: one line per group of
requests, each the sha256 of the group's exit codes, stdout and stderr."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

GROUPS = [
    ("circle", [["circle", "--phi", "0", "--l", "2"],
                ["circle", "--phi", "0.3", "--l", "-1.5"]]),
    ("circle csv", [["circle", "--phi", "0", "--l", "2", "--format", "csv"]]),
    ("sphere", [["sphere", "--x", "0,0,1", "--l", "1,0,0"]]),
    # exit 2 and 3, each with one line on stderr and nothing on stdout
    ("errors", [["circle", "--phi", "nan", "--l", "1"],
                ["sphere", "--x", "0,0,1", "--l", "0,0,1"]]),
]


@pytest.fixture(scope="module")
def digest():
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location(
        "digest", ROOT / ".github" / "digest.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


@pytest.fixture(scope="module")
def lines(digest):
    return digest.digest_lines(GROUPS)


def test_the_workload_groups_are_the_documented_596_requests(digest):
    groups = list(digest.workload_groups())
    assert len(groups) == 12
    assert sum(len(reqs) for _, reqs in groups) == 596


def test_the_lines_repeat(digest, lines):
    assert digest.digest_lines(GROUPS) == lines
    # the groups' outputs differ, and so do their digests
    assert len({line.split()[-1] for line in lines}) == len(lines)


@pytest.mark.parametrize("group, index, argv", [
    (0, 1, ["circle", "--phi", "0.3", "--l", "-1.25"]),
    (1, 0, ["circle", "--phi", "0", "--l", "2"]),
    (2, 0, ["sphere", "--x", "0,0,1", "--l", "2,0,0"]),
    # the same exit code and an empty stdout: only stderr differs
    (3, 0, ["circle", "--phi", "inf", "--l", "1"]),
])
def test_one_changed_request_changes_exactly_its_line(digest, lines, group,
                                                      index, argv):
    groups = [(name, list(reqs)) for name, reqs in GROUPS]
    groups[group][1][index] = argv
    changed = digest.digest_lines(groups)
    assert [i for i, (a, b) in enumerate(zip(lines, changed))
            if a != b] == [group]
