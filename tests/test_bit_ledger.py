"""Every entry of the committed bit ledger (``bit_ledger.json``) recomputed
and compared: the weight-file entries everywhere, the forecast and training
entries where the environment stamp has a record (see ``bit_ledger.py``,
which records them)."""

import pytest

import bit_ledger

LEDGER = bit_ledger.load()
STAMP = bit_ledger.environment_stamp()
RECORDED = bit_ledger.recorded_entries(LEDGER, STAMP)
WEIGHT_FILES = bit_ledger.weight_file_entries()
ENVIRONMENT = bit_ledger.environment_entries()


def test_ledger_names_every_entry():
    assert sorted(LEDGER["weight_files"]) == sorted(WEIGHT_FILES)
    for record in LEDGER["environments"]:
        assert sorted(record["entries"]) == sorted(ENVIRONMENT)


@pytest.mark.parametrize("name", list(WEIGHT_FILES))
def test_weight_file_bits(name):
    assert WEIGHT_FILES[name]() == LEDGER["weight_files"][name]


@pytest.mark.parametrize("name", list(ENVIRONMENT))
def test_environment_bits(name):
    if RECORDED is None:
        pytest.skip(f"no ledger record for environment stamp {STAMP}")
    assert ENVIRONMENT[name]() == RECORDED[name]


def test_update_keeps_each_record_in_place():
    one, default, new = {"threads": "1"}, {"threads": None}, {"threads": "2"}
    ledger = {"weight_files": {"w": "0"},
              "environments": [{"stamp": one, "entries": {"e": "a"}},
                               {"stamp": default, "entries": {"e": "b"}}]}
    # host default first, then one thread: the records keep their order
    assert bit_ledger.update(ledger, default, {"w": "0"}, {"e": "c"}) == ["e"]
    assert bit_ledger.update(ledger, one, {"w": "0"}, {"e": "a"}) == []
    assert ledger["environments"] == [
        {"stamp": one, "entries": {"e": "a"}},
        {"stamp": default, "entries": {"e": "c"}}]
    # a new stamp's record goes last; a new entry name is not a change
    assert bit_ledger.update(ledger, new, {"w": "1"},
                             {"e": "d", "f": "e"}) == ["w"]
    assert [rec["stamp"] for rec in ledger["environments"]] == \
        [one, default, new]
    assert ledger["weight_files"] == {"w": "1"}
