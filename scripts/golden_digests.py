#!/usr/bin/env python3
"""Compute the golden output digests; with --write, regenerate their file.

`tests/golden_digests.json` records the package version and two maps of
SHA-256 digests.  `commands` holds, for each command in COMMANDS, the digest
of the CSV body it writes to `--out` (the file without its manifest line): a
gas trajectory or the tree leaves.  `summaries` holds, for each command in
SUMMARY_COMMANDS, the digest of its whole `.summary.json`.  None of these
bytes depend on numpy's CPU dispatch.  The spectrum CSV and the gas summary
still do, until ROADMAP item 3 (the same spectrum on every x86-64 host)
lands, so they are left out.

A change that alters any of these bytes bumps `__version__` and reruns this
script with --write.  Under the recorded version --write refuses, writing
nothing, if any digest of a command already in the file would change; new
commands may be added.  Without --write it prints the file it would write;
`tests/test_golden_digests.py` reruns the commands and compares.

    PYTHONPATH=src python3 scripts/golden_digests.py [--write]
"""

import argparse
import hashlib
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from arnoldgas import __version__, cli

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden_digests.json"

# The benchmark's gas-spectral run at its full size, at two thread counts.
GAS_SPECTRAL = "gas --particles 32768 --steps 16 --pairing tree --twin on --modes 2"
COMMANDS = [
    f"{GAS_SPECTRAL} --threads 1",
    f"{GAS_SPECTRAL} --threads 2",
    "gas --particles 513 --steps 12 --twin on --modes 3",
    "gas --particles 1000 --steps 5 --modes 0",
    "gas --particles 1024 --steps 20 --twin on --modes 1 --matrix 2,-1,-1,1 --seed 4",
    # More than one gas.PIECE of pairs: random pairing at odd N in 3 pieces,
    # and tree pairing in 2.
    "gas --particles 70001 --steps 12 --twin on --modes 0",
    "gas --particles 65536 --steps 16 --pairing tree --twin on --modes 0",
    # Odd N with tree pairing: from step 11 on the idle particle is affected,
    # in row 2h of the layout that gas.step writes.
    "gas --particles 1025 --steps 12 --pairing tree --twin on --modes 2",
    "tree --stages 18",
    # The tree runs at unit scale, so these summaries equal the default
    # one's; epsilon scales only the written cells, each rounded once
    # (tree.leaf_records).  Normal cells:
    "tree --stages 12 --epsilon 1e-200",
    # subnormal cells:
    "tree --stages 12 --epsilon 1e-320",
    # cells a few subnormal ulps wide, three of them rounded to zero:
    "tree --stages 12 --epsilon 3e-323",
    # a second matrix, whose leaves and dilations differ from the default's
    "tree --stages 12 --matrix 2,1,1,1",
]
# Tree summaries hold the enumerated and closed-form dilations; the last
# command writes a summary only.
SUMMARY_COMMANDS = [command for command in COMMANDS if command.startswith("tree")] + [
    "tree --stages 40 --aggregate-only",
]


def run(command: str, out: Path) -> None:
    """Run `command` in process with `--out out`; raise if it fails."""
    stderr = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(stderr):
        code = cli.main([*command.split(), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"{command} exited {code}: {stderr.getvalue()}")


def output_digests(command: str) -> dict[str, str]:
    """Run `command` into a fresh directory: the SHA-256 of its CSV body at
    `--out` ("body", if it writes one) and of its whole summary ("summary")."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        run(command, out)
        digests = {"summary": hashlib.sha256(
            out.with_suffix(".summary.json").read_bytes()).hexdigest()}
        if out.exists():
            data = out.read_bytes()
            digests["body"] = hashlib.sha256(data[data.index(b"\n") + 1:]).hexdigest()
    return digests


def changed_commands(recorded: dict, golden: dict) -> list[str]:
    """The commands of `recorded` whose digest `golden` changes, if both hold
    one `__version__`; none if the version was bumped."""
    if recorded.get("__version__") != golden["__version__"]:
        return []
    return list(dict.fromkeys(
        command for key in ("commands", "summaries")
        for command, digest in golden[key].items()
        if recorded.get(key, {}).get(command, digest) != digest))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true",
                        help=f"write {GOLDEN.name} instead of printing it")
    args = parser.parse_args()

    digests = {command: output_digests(command)
               for command in dict.fromkeys(COMMANDS + SUMMARY_COMMANDS)}
    golden = {
        "__version__": __version__,
        "commands": {command: digests[command]["body"] for command in COMMANDS},
        "summaries": {command: digests[command]["summary"] for command in SUMMARY_COMMANDS},
    }
    text = json.dumps(golden, indent=2) + "\n"
    if args.write:
        changed = changed_commands(json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {},
                                   golden)
        if changed:
            sys.exit(f"refused: {GOLDEN.name} records version {__version__}, and these "
                     "commands' digests would change; bump __version__ first:\n  "
                     + "\n  ".join(changed))
        GOLDEN.write_text(text)
        print(f"wrote {GOLDEN}")
    else:
        print(text, end="")


if __name__ == "__main__":
    main()
