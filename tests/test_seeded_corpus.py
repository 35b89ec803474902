"""Seeded CLI commands print what the committed corpus holds (see seeded_corpus.py)."""

import pytest

from seeded_corpus import COMMANDS, cli_stdout, differences, expected, output_differences, parse

CASES = expected()["cli"]


def test_the_corpus_holds_every_command():
    assert [case["argv"] for case in CASES] == COMMANDS


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_command_prints_the_corpus_output(case):
    kind = "csv" if "csv" in case["argv"] else "json"
    diffs = output_differences(cli_stdout(case["argv"]), case["stdout"], kind)
    assert not diffs, diffs[:10]


def test_the_comparison_is_exact_but_for_float_rounding():
    want = parse('{"a": 1, "b": [0.5, true, "x"]}', "json")
    assert not differences(parse('{"a": 1, "b": [0.5000000000001, true, "x"]}', "json"), want)
    for moved in ('{"b": [0.5, true, "x"], "a": 1}', '{"a": 1.0, "b": [0.5, true, "x"]}',
                  '{"a": 1, "b": [0.5001, true, "x"]}', '{"a": 1, "b": [0.5, 1, "x"]}',
                  '{"a": 1, "b": [0.5, true, "y"]}', '{"a": 1, "b": [0.5, true]}'):
        assert differences(parse(moved, "json"), want), moved
    text = "p  [ 0.25 -0.  ]  n=3\n"
    assert not output_differences("p  [0.25000000000001 0.]  n=3\n", text, "text")
    for moved in ("p  [ 0.25 -0.  ]  n=4\n", "q  [ 0.25 -0.  ]  n=3\n", "p  [ 0.26 -0.  ]  n=3\n",
                  "p  [ 0.25 -0.  ]  n=3\nextra\n"):
        assert output_differences(moved, text, "text"), moved
    table = "key,value\ncp,False\nx,0.1\n"
    assert not output_differences("key,value\ncp,False\nx,0.10000000000001\n", table, "csv")
    assert output_differences("key,value\ncp,True\nx,0.1\n", table, "csv")
