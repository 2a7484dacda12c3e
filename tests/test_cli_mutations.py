"""Seeded mutation corpus for the command line.

Each `fixtures/*.kg` file is mutated 16 times from a fixed seed: a byte
replaced (non-UTF-8 bytes included), the file truncated, a line deleted
or duplicated, or a token replaced by `1/0`, `-1`, `x` or a 20-digit
numerator.  Most of those end in a parse error, so each file is also
edited 3 times in ways that keep it parseable and reach validation, the
drawing checks and transport instead: a coordinate nudged by an exact
fraction, two vertices' coordinates swapped, or a boundary vertex moved
off the unit circle.  Every input runs through `count`, `measure`,
`oracle`, `oracle --signed` and `check` in-process.  No exception may
escape `main`; a run that succeeds writes nothing to stderr, and every
other run ends in a documented exit code with exactly one stderr line
(never a parse error for an input that parses).
"""

from fractions import Fraction
from pathlib import Path
from random import Random

import kasteleyn as K
from kasteleyn.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = sorted((ROOT / "fixtures").glob("*.kg"))
MUTATIONS_PER_FIXTURE = 16
PARSEABLE_PER_FIXTURE = 3
COMMANDS = (["count"], ["measure"], ["oracle"], ["oracle", "--signed"], ["check"])
PREFIXES = {2: "parse error: ", 3: "validation error: ", 4: "degeneracy: ",
            5: "identity failure: "}
REPLACEMENT_BYTES = b"\xff\xfe\x80\xc3\x00 \n\t/-0123456789xab"
REPLACEMENT_TOKENS = (b"1/0", b"-1", b"x", b"98765432109876543210/7")
NUDGES = (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 1024), Fraction(-5, 7), Fraction(1))
OFF_CIRCLE = (Fraction(1, 2), Fraction(6, 5))

# Inputs that once ended in a traceback: the oracle's vertex cap, and a
# vertex resting on an edge under --signed.
TOUCHING = (b"vertex a plain 0 0\nvertex b plain 2 0\nvertex c plain 1 0\n"
            b"vertex d plain 1 1\nedge a b\nedge c d\n")


def mutate(data: bytes, rng: Random) -> bytes:
    lines = data.split(b"\n")
    kind = rng.randrange(5)
    if kind == 0:
        at = rng.randrange(len(data))
        return data[:at] + bytes([rng.choice(REPLACEMENT_BYTES)]) + data[at + 1:]
    if kind == 1:
        return data[:rng.randrange(len(data))]
    at = rng.randrange(len(lines))
    if kind == 2:
        return b"\n".join(lines[:at] + lines[at + 1:])
    if kind == 3:
        return b"\n".join(lines[:at + 1] + lines[at:])
    words = lines[at].split(b" ")
    words[rng.randrange(len(words))] = rng.choice(REPLACEMENT_TOKENS)
    lines[at] = b" ".join(words)
    return b"\n".join(lines)


def mutate_coordinates(data: bytes, rng: Random) -> bytes:
    """Edit vertex coordinates only, so the file still parses."""
    lines = [line.split() for line in data.split(b"\n")]
    at = {words[1]: i for i, words in enumerate(lines) if words[:1] == [b"vertex"]}
    boundary = next((words[1:] for words in lines if words[:1] == [b"boundary"]), [])
    kind = rng.randrange(3 if boundary else 2)
    if kind == 0:  # nudge x or y by an exact fraction
        words = lines[rng.choice(list(at.values()))]
        axis = rng.choice((3, 4))
        words[axis] = str(Fraction(words[axis].decode()) + rng.choice(NUDGES)).encode()
    elif kind == 1:  # swap the positions of two vertices
        u, v = (lines[i] for i in rng.sample(list(at.values()), 2))
        u[3:], v[3:] = v[3:], u[3:]
    else:  # scale a boundary vertex off the unit circle
        words = lines[at[rng.choice(boundary)]]
        scale = rng.choice(OFF_CIRCLE)
        words[3:] = [str(Fraction(x.decode()) * scale).encode() for x in words[3:]]
    return b"\n".join(b" ".join(words) for words in lines)


def corpus():
    """(name, bytes, whether the bytes parse) for every input of the corpus."""
    for path in FIXTURES:
        data = path.read_bytes()
        rng = Random(f"{path.name}-mutations")
        for i in range(MUTATIONS_PER_FIXTURE):
            yield f"{path.stem}-{i}", mutate(data, rng), False
        rng = Random(f"{path.name}-coordinates")
        for i in range(PARSEABLE_PER_FIXTURE):
            yield f"{path.stem}-xy{i}", mutate_coordinates(data, rng), True
    yield "grid5x5", K.serialize(*K.generate_grid(5, 5)).encode(), True
    yield "touching", TOUCHING, True


def test_no_input_escapes_main(capsys, tmp_path):
    escapes = []
    parsed_codes = set()
    for name, data, parses in corpus():
        path = tmp_path / f"{name}.kg"
        path.write_bytes(data)
        for command in COMMANDS:
            argv = [command[0], str(path), *command[1:]]
            try:
                code = main(argv)
            except Exception as exc:  # the corpus reports every escape
                capsys.readouterr()
                escapes.append(f"{name} {' '.join(command)}: {type(exc).__name__}: {exc}")
                continue
            err = capsys.readouterr().err
            if code == 0:
                ok = err == ""
            else:
                ok = (code in PREFIXES and err.startswith(PREFIXES[code])
                      and err.count("\n") == 1 and err.endswith("\n"))
            if parses:
                parsed_codes.add(code)
                ok = ok and code != 2
            if not ok:
                escapes.append(f"{name} {' '.join(command)}: exit {code}, stderr {err!r}")
    assert escapes == []
    assert {0, 3} <= parsed_codes  # the parseable edits reach checks and transport

