"""Seeded mutation corpus for the command line.

Each `fixtures/*.kg` file is mutated 16 times from a fixed seed: a byte
replaced (non-UTF-8 bytes included), the file truncated, a line deleted
or duplicated, or a token replaced by `1/0`, `-1`, `x` or a 20-digit
numerator.  Every input runs through `count`, `measure`, `oracle`,
`oracle --signed` and `check` in-process.  No exception may escape
`main`; a run that succeeds writes nothing to stderr, and every other
run ends in a documented exit code with exactly one stderr line.
"""

from pathlib import Path
from random import Random

import kasteleyn as K
from kasteleyn.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = sorted((ROOT / "fixtures").glob("*.kg"))
MUTATIONS_PER_FIXTURE = 16
COMMANDS = (["count"], ["measure"], ["oracle"], ["oracle", "--signed"], ["check"])
PREFIXES = {2: "parse error: ", 3: "validation error: ", 4: "degeneracy: ",
            5: "identity failure: "}
REPLACEMENT_BYTES = b"\xff\xfe\x80\xc3\x00 \n\t/-0123456789xab"
REPLACEMENT_TOKENS = (b"1/0", b"-1", b"x", b"98765432109876543210/7")

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


def corpus():
    for path in FIXTURES:
        data = path.read_bytes()
        rng = Random(f"{path.name}-mutations")
        for i in range(MUTATIONS_PER_FIXTURE):
            yield f"{path.stem}-{i}", mutate(data, rng)
    yield "grid5x5", K.serialize(*K.generate_grid(5, 5)).encode()
    yield "touching", TOUCHING


def test_no_input_escapes_main(capsys, tmp_path):
    escapes = []
    for name, data in corpus():
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
            if not ok:
                escapes.append(f"{name} {' '.join(command)}: exit {code}, stderr {err!r}")
    assert escapes == []

