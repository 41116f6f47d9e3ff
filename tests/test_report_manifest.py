"""The report manifest tool: stable on reruns, and its diff names a change."""

import pytest

import report_manifest
from honestflow import scenarios

# each case's exit code, as the console steps of CI expect it
EXITS = {
    "run unit-ladder-honest": "0",
    "run geometric-ladder-dishonest": "2",
    "run disk-billiard": "0",
    "honesty disk-billiard --window 0,5": "0",
    "honesty geometric-ladder-dishonest --window 1,2": "2",
    "honesty geometric-ladder-dishonest --window 0,0.5": "0",
    "resolvent geometric-ladder-dishonest --lambda 1": "2",
    "honesty unit-ladder-honest --window 0,3": "0",
    "run no-such-scenario": "1",
    "honesty geometric-ladder-dishonest --window 2,1": "1",
}


@pytest.fixture(scope="module")
def baseline():
    return report_manifest.manifest()


def test_reruns_give_the_same_manifest(baseline):
    assert report_manifest.manifest() == baseline
    exits = {case: value for case, file, value in
             (line.split("\t") for line in baseline.splitlines()) if file == "exit"}
    configs = [case for case in exits if case.startswith("run .github/cli-cases/")]
    assert len(exits) == len(report_manifest.CASES) == len(EXITS) + len(configs)
    assert exits == {**EXITS, **dict.fromkeys(configs, "0")}


def test_diff_names_a_changed_csv_digit(baseline, monkeypatch, tmp_path, capsys):
    render = scenarios.time_series_csv

    def mutant(result):
        # the last digit of the first row of one case's CSV, changed
        text = render(result)
        if result.config.label != "kernel-ladder":
            return text
        head, row, rest = text.split("\n", 2)
        return f"{head}\n{row[:-1]}{'2' if row[-1] == '1' else '1'}\n{rest}"

    monkeypatch.setattr(scenarios, "time_series_csv", mutant)
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text(baseline)
    new.write_text(report_manifest.manifest())
    assert report_manifest.main(["--diff", str(old), str(old)]) == 0
    capsys.readouterr()
    assert report_manifest.main(["--diff", str(old), str(new)]) == 1
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("run .github/cli-cases/kernel-ladder.cfg\tkernel-ladder-series.csv\t")
