"""Exit code, stdout and stderr sha256 of a fixed list of nsg commands, one line each.

    PYTHONPATH=src python3 scripts/cli_digest.py

Each line reads "<exit code> <sha256 of stdout> <sha256 of stderr>
<command>".  The commands run in this process through nsg.cli.run, against
whichever nsg the import finds first; its location goes to stderr.  Two
checkouts print the same lines exactly when these commands give
byte-identical stdout, byte-identical error text and equal exit codes, so
comparing them is one diff:

    diff <(PYTHONPATH=../other/src python3 scripts/cli_digest.py) \\
         <(PYTHONPATH=src python3 scripts/cli_digest.py)

The list, COMMANDS below, runs every subcommand in json and in text: the
benchmark's large-single ladder, the empty edge N = <1>, both routes of
the gap writer and of the Betti scan, every exception tag, and the error
paths, with a comment on each input that needs one.  It is fixed here, so
that digests taken at different commits stay comparable.

tests/cli_digest.txt holds these lines as the last tree with intended
output printed them, and tests/test_scripts.py asserts that the script
prints exactly them.  When the list or an output changes on purpose,
regenerate it from the tree whose output is intended:

    PYTHONPATH=src python3 scripts/cli_digest.py > tests/cli_digest.txt
"""

from __future__ import annotations

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout

import nsg
from nsg.cli import run

HUGE = "100000000000000000000,100000000000000000001"  # m = 10^20 > sys.maxsize
SINGLE = (
    # the benchmark's large-single ladder; its two info inputs have long gap runs
    ("info", "500,999"),
    ("info", "1000,1999"),
    ("presentation", "200,201"),
    ("star", "300,301"),
    ("classify", "400,401"),
    ("ci-tree", "48,60,72,80,126,315"),
    ("ci-tree", "110,120,176,180,210,264,495"),
    ("presentation", "96,99,165,168,240,392"),
    # long gap runs past piece 0: F = 10,099 ends in a piece 1 of 100
    # numbers, and <329,330>'s head grows from 9 to 10 digits at 10^5
    ("info", "101,102"),
    ("info", "329,330"),
    # short gap runs, the other route of gap_chunks
    ("info", "4,6,9"),
    ("info", "2,2001"),
    ("info", "101,1000,5000"),
    ("presentation", "1000,1000001"),  # a Betti window of about 10^9 bits: the candidate route
    # N, the empty edge: no relations, no d_max, a one-leaf tree
    ("presentation", "1"),
    ("star", "1"),
    ("classify", "1"),
    ("ci-tree", "1"),
    ("hypotheses", "1"),
    ("hypotheses", "2,3"),
    ("hypotheses", "4,6,9"),  # a CI
    ("hypotheses", "3,5,7"),  # not a CI
    ("star", "3,5,7"),
    ("classify", "3,5,7"),
    # margin 2, the least of any CI with three or more generators
    ("star", "4,5,6"),
    ("classify", "4,5,6"),
    # 8*<2,3> + 5*<4,6,9>, a gluing no inductive branch covers
    ("star", "16,20,24,30,45"),
    ("classify", "16,20,24,30,45"),
    ("ci-tree", "3,5,7"),
    # which split comes first: two splits with left parts of sizes 1 and 2,
    # two splits of one size, and a non-CI with one split
    ("ci-tree", "4,6,15"),
    ("ci-tree", "6,8,9"),
    ("ci-tree", "8,9,10,12,14"),
    # one input per failure tag, <2,q>, <3,4> and <3,5>, and a CI
    # candidate (m = 4 >= 2^2) with no split
    *(
        (command, generators)
        for generators in ("2,5", "3,4", "3,5", "4,5,7")
        for command in ("star", "classify", "hypotheses")
    ),
    # a multiplicity above sys.maxsize: one error line, no table
    ("star", HUGE),
    ("info", HUGE),
)
# (left, right, lambda, mu) of mu*left + lambda*right; glue and inductive
# exit 1 on the last two, and inductive on the first, whose left side fails star
GLUINGS = (
    ("3,5", "4,6,9", "9", "10"),  # multiplicity mu*3 = 30 < lambda*4 = 36
    ("4,6,9", "3,5", "10", "9"),  # multiplicity lambda*3 = 30 < mu*4 = 36
    ("3,7", "1", "10", "3"),  # N on the right, multiplicity mu*3 = 9
    ("2,3", "2,3", "3", "5"),  # lambda = 3 is a generator of the left side
    # multiplicity lambda*4 = 4 * 10^20 > sys.maxsize: one error line, no table
    ("3,5", "4,6,9", "100000000000000000000", "10000000000000000000001"),
)
CENSUS = (
    ("enumerate", "--max-genus", "8"),
    ("verify", "--max-genus", "10"),
)
COMMANDS = SINGLE + tuple(
    (command, left, right, "--lambda", lam, "--mu", mu)
    for left, right, lam, mu in GLUINGS
    for command in ("glue", "inductive")
) + CENSUS
FORMATS = ("json", "text")


def digest(argv: list[str]) -> tuple[int, str, str]:
    """Exit code and sha256 of the UTF-8 stdout and stderr of `nsg argv`.

    stdout is a UTF-8 TextIOWrapper over BytesIO, the route a real stdout
    takes: nsg writes the long gap text of `info` to its binary buffer.
    """
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n"), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    out.flush()
    return (
        code,
        hashlib.sha256(out.buffer.getvalue()).hexdigest(),
        hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest(),
    )


def main() -> int:
    print(f"nsg from {nsg.__file__}", file=sys.stderr)
    for command in COMMANDS:
        for fmt in FORMATS:
            argv = [*command, "--format", fmt]
            code, out_sha, err_sha = digest(argv)
            print(f"{code} {out_sha} {err_sha} {' '.join(argv)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
