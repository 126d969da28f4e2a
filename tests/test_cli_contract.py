"""Every command of the CLI contract prints and returns what its record says
(``cli_contract.py`` states the comparison and how to regenerate the
record)."""

import json

import pytest

from cli_contract import CASES, RECORD, REGENERATE, differences, run_case, versions, write_files

RECORDED = json.loads(RECORD.read_text())
#: Why the seeded cases and the help texts are not compared here, or "" under
#: the versions the record was made with: numpy may change its seeded
#: streams, and Python its help text.
OTHER_VERSIONS = "" if {key: RECORDED[key] for key in versions()} == versions() else (
    f"the record was made under Python {RECORDED['python']} and numpy {RECORDED['numpy']}, "
    f"this is Python {versions()['python']} and numpy {versions()['numpy']}")


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract")
    write_files(str(path))
    return str(path)


def test_record_holds_every_case_under_these_versions():
    assert {name: case["argv"] for name, case in RECORDED["cases"].items()} == \
        {name: case.argv for name, case in CASES.items()}, f"regenerate the record: {REGENERATE}"
    if OTHER_VERSIONS:
        pytest.skip(f"{OTHER_VERSIONS}; to compare every case, regenerate it: {REGENERATE}")


def test_contract_covers_every_subcommand_and_exit_code():
    from windwalk.cli import build_parser

    (commands,) = [action.choices for action in build_parser()._actions
                   if action.dest == "command"]
    covered = {case.argv[0] for case in CASES.values() if case.argv}
    assert set(commands) <= covered
    assert {case["exit"] for case in RECORDED["cases"].values()} == {0, 1, 2, 3}


@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_matches_the_record(directory, name):
    if OTHER_VERSIONS and (CASES[name].seeded or "--help" in CASES[name].argv):
        pytest.skip(OTHER_VERSIONS)
    got = run_case(CASES[name], directory)
    assert differences(RECORDED["cases"][name], got, CASES[name].seeded) == []
