"""Seeded malformed-JSON fuzzing of every subcommand that reads a file.

Small valid documents are mutated (values replaced, keys dropped,
nodes wrapped in lists, text truncated or corrupted) and fed to the
CLI in-process.  Each run must end with exit 0, 2 (input error) or 3
(limit reached); an escaping exception fails the test.
"""

import json
import random

import pytest

from kstab.cli import main

DOCUMENTS = {
    "lct-arrangement": (
        "--file",
        {"n": 2, "forms": [[1, 0], [0, 1], [1, "1/2"]]},
    ),
    "df": (
        "--flag",
        {"M": 2, "divisors": [{"p": 1}, {"p": 2, "q": 1}]},
    ),
    "check-summation": (
        "--file",
        {
            "a0": {"n": 2, "generators": [[1, 0]]},
            "c0": "1/2",
            "parts": [
                {"n": 2, "generators": [[1, 0]]},
                {"n": 2, "generators": [[0, 1]]},
            ],
            "c": 1,
            "denom_bound": 8,
        },
    ),
}

VALUES = [
    None, True, False, -1, 0, 1, 2, 10**9, 1.5, "", "x", "1/2", "1/0",
    [], [[]], [1], [True], {}, {"p": 1}, {"n": 1},
]

CASES = 120


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _mutate(rng, doc):
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(list(_paths(doc)))
        if not path:
            return json.loads(json.dumps(rng.choice(VALUES)))
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        key = path[-1]
        op = rng.randrange(3)
        if op == 0:
            parent[key] = json.loads(json.dumps(rng.choice(VALUES)))
        elif op == 1:
            del parent[key]
        else:
            parent[key] = [parent[key]]
    return doc


def _corrupt(rng, text):
    data = text.encode()
    cut = rng.randrange(len(data))
    if rng.random() < 0.5:
        return data[:cut]
    return data[:cut] + bytes([rng.choice(b"{}[],:\"0\xff")]) + data[cut + 1:]


@pytest.mark.parametrize("command", sorted(DOCUMENTS))
def test_malformed_documents_end_in_a_typed_exit(tmp_path, capsys, command):
    option, document = DOCUMENTS[command]
    rng = random.Random(f"fuzz:{command}")
    path = tmp_path / "doc.json"
    for _ in range(CASES):
        if rng.random() < 0.2:
            path.write_bytes(_corrupt(rng, json.dumps(document)))
        else:
            doc = _mutate(rng, json.loads(json.dumps(document)))
            path.write_text(json.dumps(doc))
        code = main([command, option, str(path)])
        out = capsys.readouterr().out
        assert code in (0, 2, 3), path.read_text(errors="replace")
        if code:
            assert out == ""
