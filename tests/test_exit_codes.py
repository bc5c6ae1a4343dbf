"""The exit-code contract on every path: a seeded sweep of malformed input.

``cli.main`` runs in-process on inputs mutated by type from well-formed
ones: booleans, integers too large for a float, non-finite numbers, wrong
shapes, duplicates, and missing or extra keys.  The inputs are channel
documents under every channel command, bosonic parameter documents under
``bosonic vsi|si|hk``, and the command line of every subcommand, including
the spellings the command line no longer accepts and ``--out`` names of
every suffix.  Every run must exit 0, 2 or 3 with no other exception
escaping, and a run that exits 0 must print no nan or inf.  The generator is seeded and uses only the standard library.
"""

import contextlib
import copy
import io
import json
import random
import re

import pytest

from qnetcap.channels import builtin, dump_channel
from qnetcap.cli import main

HUGE = 10**400  # a whole number too large for a float
# replacement values, one or more of each type a JSON document can hold
VALUES = [True, False, HUGE, -HUGE, float("nan"), float("inf"), -float("inf"),
          None, "1", "homodyne", [], {}, 0, -1, 2.5]
KINDS = ("value", "shape", "duplicate", "missing", "extra")

CHANNEL_COMMANDS = [
    "capacity p2p-holevo", "capacity p2p-classical", "region mac --uniform",
    "region mac --grid 3", "region vsi", "region si", "region sato", "region hk",
    "region cmg --oracle", "region bc-superposition", "region bc-marton",
    "region relay-pdf", "sim quantum --param 0.3 1", "sim classical --param 0.3 4 5",
]
BUILTINS = ["bb84_p2p", "bb84_qmac", "theta_swap(1.2)", "bb84_bc", "bb84_relay"]
BOSONIC = {"eta": [[0.3, 0.6], [0.6, 0.3]], "NS": [100, 100], "NB": [1, 1],
           "lambda": [0.8, 0.8], "mode": "het"}

# one well-formed command line per subcommand
LINES = [
    "capacity p2p-holevo --builtin bb84_p2p",
    "capacity p2p-classical --builtin bb84_p2p --povm-angle -0.3927",
    "region mac --builtin bb84_qmac --grid 3",
    "region mac --builtin bb84_qmac --uniform",
    "region vsi --builtin theta_swap(1.2) --grid 21",
    "region si --builtin theta_swap(1.2)",
    "region sato --builtin theta_swap(1.2)",
    "region hk --builtin bb84_qmac --seed 2",
    "region cmg --builtin bb84_qmac --seed 1 --oracle",
    "region bc-superposition --builtin bb84_bc --seed 4",
    "region bc-marton --builtin bb84_bc --seed 5",
    "region relay-pdf --builtin bb84_relay --seed 3",
    "bosonic p2p --param 0.9 1.0 --grid 5",
    "bosonic vsi --param 0.0625 0.5 0.5 0.0625 1 1 1 1 --mode het",
    "bosonic si --param 0.3 0.6 0.6 0.3 100 100 1 1 --mode hom",
    "bosonic hk --param 0.3 0.6 0.6 0.3 100 100 1 1 --lambda 0.8 0.8 --mode joint",
    "sim quantum --builtin bb84_p2p --param 0.3 1 --delta 0.4 --seed 0",
    "sim classical --builtin bb84_p2p --param 0.1 6 20 --seed 21",
]
# replacement tokens: the types of VALUES as a command line spells them,
# and builtin names with malformed parameters
TOKENS = ["true", "nan", "inf", "-inf", "1" * 401, "-" + "1" * 401, "1e400", "0",
          "-1", "2.5", "", "homodyne", "theta_swap", "theta_swap(nan)",
          "theta_swap(True)", "theta_swap(1" + "0" * 400 + ")", "bb84_p2p(1.0)", "nope"]
# spellings the command line no longer accepts, and a flag no subcommand defines
REMOVED = [["--param", "1.2"], ["--grid", "5"], ["--mode", "homodyne"],
           ["--mode", "heterodyne"], ["--builtin", "theta_swap", "--param", "1.2"],
           ["--threads", "2"]]
# --out names: a region's format follows the suffix, any other command's
# .csv or .json name must match the one format it writes
OUT_NAMES = ["out.csv", "out.json", "out.txt", "out"]


class Pairs(list):
    """A JSON object written from (key, value) pairs, so a key can repeat."""


def dumps(node):
    if isinstance(node, dict):
        node = Pairs(node.items())
    if isinstance(node, Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {dumps(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(dumps, node)) + "]"
    return json.dumps(node)


def nodes(node, path=()):
    """(path, node) of every node of a JSON tree, the root first."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield from nodes(child, path + (key,))


def replaced(doc, path, new):
    """A copy of ``doc`` with the node at ``path`` replaced by ``new``."""
    if not path:
        return new
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return doc


def mutate(doc, kind, rng):
    """A copy of ``doc`` with one node changed as ``kind`` says."""
    path, node = rng.choice(list(nodes(doc)))
    if kind == "shape":
        new = [node] if not isinstance(node, list) or not node or rng.random() < 0.5 \
            else node[0]
    elif kind == "duplicate" and isinstance(node, dict) and node:
        key = rng.choice(list(node))
        new = Pairs(list(node.items()) + [(key, rng.choice(list(node.values())))])
    elif kind == "duplicate" and isinstance(node, list) and node:
        new = node + [rng.choice(node)]
    elif kind == "missing" and isinstance(node, (dict, list)) and node:
        new = copy.copy(node)
        del new[rng.choice(list(node) if isinstance(node, dict) else range(len(node)))]
    elif kind == "extra" and isinstance(node, dict):
        new = {**node, rng.choice(["9", "extra", "0,1"]): rng.choice(VALUES)}
    elif kind == "extra" and isinstance(node, list):
        new = node + [rng.choice(VALUES)]
    else:
        new = rng.choice(VALUES)
    return replaced(doc, path, new)


def mutants(base, count, rng):
    """``count`` mutants of ``base`` per kind, plus one per replacement value
    put in place of a node below the root."""
    below_root = [path for path, _ in nodes(base)][1:]
    return ([mutate(base, kind, rng) for kind in KINDS for _ in range(count)]
            + [replaced(base, rng.choice(below_root), value) for value in VALUES])


def run(argv):
    """(exit code, stdout) of one in-process run; an exception other than
    argparse's SystemExit stands in for the code as its name and message."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"[:200]
    return code, out.getvalue()


NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def breaches(runs):
    """The runs that break the contract, each with its command line."""
    found = []
    for argv in runs:
        code, out = run(argv)
        if code not in (0, 2, 3) or (code == 0 and NON_FINITE.search(out)):
            found.append((" ".join(argv), code, out[:120]))
    return found


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", BUILTINS)
def test_channel_documents(workdir, name):
    rng = random.Random(f"channel {name}")
    runs = []
    for k, doc in enumerate(mutants(dump_channel(builtin(name)), 2, rng)):
        path = workdir / f"channel{k}.json"
        path.write_text(dumps(doc))
        for command in rng.sample(CHANNEL_COMMANDS, 5):
            runs.append(command.split() + ["--channel", str(path)])
    assert not breaches(runs)


def test_bosonic_documents(workdir):
    rng = random.Random("bosonic")
    runs = []
    for k, doc in enumerate(mutants(BOSONIC, 4, rng)):
        path = workdir / f"bosonic{k}.json"
        path.write_text(dumps(doc))
        runs += [["bosonic", sub, "--channel", str(path)] for sub in ("vsi", "si", "hk")]
    assert not breaches(runs)


@pytest.mark.parametrize("line", LINES)
def test_command_lines(workdir, line):
    rng = random.Random(line)
    base = line.split()
    runs = [base + extra for extra in REMOVED]
    runs += [base + ["--out", name] for name in OUT_NAMES]
    for k in range(2, len(base)):  # every token after the subcommand
        runs += [base[:k] + [token] + base[k + 1:] for token in rng.sample(TOKENS, 4)]
        runs.append(base[:k] + base[k + 1:])  # missing
        runs.append(base[:k + 1] + base[k:])  # duplicated
    assert not breaches(runs)
