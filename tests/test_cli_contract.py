"""Every command of the CLI contract prints and returns what its record says
(``cli_contract.py`` states the comparison and how to regenerate the
record)."""

import json

import pytest

from cli_contract import CASES, RECORD, REGENERATE, differences, run_case, versions, write_files

RECORDED = json.loads(RECORD.read_text())


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract")
    write_files(str(path))
    return str(path)


def test_record_holds_every_case_under_these_versions():
    # The seeded streams may change with numpy, help text with Python.
    assert {key: RECORDED[key] for key in versions()} == versions(), \
        f"the record was made under other versions; regenerate it: {REGENERATE}"
    assert {name: case["argv"] for name, case in RECORDED["cases"].items()} == \
        {name: case.argv for name, case in CASES.items()}, f"regenerate the record: {REGENERATE}"


def test_contract_covers_every_subcommand_and_exit_code():
    from windwalk.cli import build_parser

    (commands,) = [action.choices for action in build_parser()._actions
                   if action.dest == "command"]
    covered = {case.argv[0] for case in CASES.values() if case.argv}
    assert set(commands) <= covered
    assert {case["exit"] for case in RECORDED["cases"].values()} == {0, 1, 2, 3}


@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_matches_the_record(directory, name):
    got = run_case(CASES[name], directory)
    assert differences(RECORDED["cases"][name], got, CASES[name].seeded) == []
