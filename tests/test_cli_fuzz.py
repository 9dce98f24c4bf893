"""Loader fuzzing: every command answers a mutated input file with exit 0,
1 or 2, exit 2 always with an ``error:`` line, and never a traceback.

Hypothesis picks one fixture body a command reads, one place in it and one
mutation: a value of the wrong type, a JSON boolean, NaN, a row made ragged
or a key removed.
"""

import contextlib
import copy
import io
import json
import math
import pathlib
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qreal.cli import main

DATA = pathlib.Path(__file__).parent / "data"

# command -> (argv with {placeholders}, placeholder -> fixture file)
COMMANDS = {
    "eval": (["eval", "[A = B] | A in {{1}}", "--obs", "A={a}", "--obs", "B={b}", "--state", "{state}"],
             {"a": "obs_sigma_z.json", "b": "obs_sigma_x.json", "state": "state_plus.json"}),
    "com": (["com", "{a}", "{b}"], {"a": "obs_sigma_x.json", "b": "obs_sigma_z.json"}),
    "measure": (["measure", "{model}", "--state", "{state}", "--observable", "Z={a}", "--map", "f"],
                {"model": "model_cnot.json", "state": "state_plus.json", "a": "obs_sigma_z.json"}),
    "context": (["context", "{model}", "{a}", "fA", "{b}", "fB", "--state", "{state}"],
                {"model": "model_headline.json", "a": "obs_sigma_x.json", "b": "obs_sigma_y.json",
                 "state": "state_plus_i.json"}),
}

WRONG_TYPES = ["text", {}, [], None, 3, 2.5, {"dim": 2}, [[1.0, 0.0]]]


def _at(body, path):
    for step in path:
        body = body[step]
    return body


@st.composite
def mutated_inputs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv, files = COMMANDS[command]
    bodies = {slot: json.loads((DATA / name).read_text(encoding="utf-8")) for slot, name in files.items()}
    slot = draw(st.sampled_from(sorted(bodies)))
    kind = draw(st.sampled_from(["wrong type", "boolean", "nan", "ragged", "missing"]))
    # Walk down from the root, stopping at each level with probability ½, so
    # the shallow keys are hit about as often as the many matrix entries.
    node, path = bodies[slot], []
    while isinstance(node, (dict, list)) and node and (not path or draw(st.booleans())):
        path.append(draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node)))))
        node = node[path[-1]]
    lists = [depth for depth in range(1, len(path) + 1) if isinstance(_at(bodies[slot], path[:depth]), list)]
    if kind == "ragged" and lists:
        path = path[:draw(st.sampled_from(lists))]
    elif kind == "ragged":
        kind = "missing"
    *parent_path, key = path
    parent = _at(bodies[slot], parent_path)
    if kind == "wrong type":
        parent[key] = copy.deepcopy(draw(st.sampled_from(WRONG_TYPES)))
    elif kind == "boolean":
        parent[key] = draw(st.booleans())
    elif kind == "nan":
        parent[key] = math.nan
    elif kind == "ragged" and parent[key] and draw(st.booleans()):
        parent[key].pop()
    elif kind == "ragged":
        parent[key].append(copy.deepcopy(parent[key][0]) if parent[key] else 1.0)
    else:
        del parent[key]
    return command, argv, bodies


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_inputs())
def test_mutated_fixture_bodies_exit_cleanly(case):
    command, argv, bodies = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for slot, body in bodies.items():
            paths[slot] = str(pathlib.Path(tmp) / f"{slot}.json")
            with open(paths[slot], "w", encoding="utf-8") as handle:
                json.dump(body, handle)  # NaN is written as the token NaN
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.format(**paths) for arg in argv])
    assert code in (0, 1, 2), (command, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error:"), err.getvalue()
    else:
        assert json.loads(out.getvalue())
