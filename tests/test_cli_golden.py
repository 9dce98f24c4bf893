"""Byte-for-byte replay of tests/data/cli_golden.json: stdout, stderr and the
exit code of `qreal measure` and `qreal context` on the fixtures, the
headline witness and a seeded n = k = 4 model, and the witness text the
headline search writes.  tests/data/make_cli_golden.py records the file."""

import json
import pathlib

import pytest

from qreal.cli import main

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def places(tmp_path_factory) -> dict[str, str]:
    work = tmp_path_factory.mktemp("golden")
    for name, text in GOLDEN["files"].items():
        (work / name).write_text(text, encoding="utf-8")
    return {"data": str(DATA), "work": str(work)}


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda case: " ".join(case["argv"][:1] + [
    pathlib.Path(arg).stem for arg in case["argv"][1:] if arg.endswith(".json")]))
def test_cli_replays_recorded_bytes(case, places, capsys):
    code = main([arg.format(**places) for arg in case["argv"]])
    captured = capsys.readouterr()
    stderr = captured.err
    for key, path in places.items():
        stderr = stderr.replace(path, f"{{{key}}}")
    assert (code, captured.out, stderr) == (case["code"], case["stdout"], case["stderr"])


def test_headline_search_writes_the_recorded_witness(tmp_path, capsys):
    out = tmp_path / "witness.json"
    code = main(["search", str(DATA / "obs_sigma_x.json"), str(DATA / "obs_sigma_y.json"),
                 "--probe-dim", "2", "--out", str(out)])
    reply = json.loads(capsys.readouterr().out)
    assert code == 0 and reply["restart_index"] == 0
    assert out.read_text(encoding="utf-8") == GOLDEN["files"]["witness.json"]
