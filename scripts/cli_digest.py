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

The list is the benchmark's large-single ladder of eight commands plus
info 4,6,9, info 2,2001 and info 101,1000,5000; presentation
1000,1000001, whose Betti window of about 10^9 bits takes the candidate
route; hypotheses on N, a
two-generated, a CI and a non-CI semigroup, and star, classify and ci-tree
on that non-CI one, 3,5,7; star and classify on 4,5,6, whose margin 2 is
the least of any CI with three or more generators, and on 16,20,24,30,45 =
8*<2,3> + 5*<4,6,9>, a gluing no inductive branch covers; ci-tree on
4,6,15 (two splits, left parts of sizes 1 and 2), 6,8,9 (two splits of one
size) and the non-CI 8,9,10,12,14 (one split), so the tree shows which
split comes first; then glue and inductive on four gluings, then the census
commands enumerate --max-genus 8 and verify --max-genus 10, each in json
and in text, so every subcommand appears.  The ladder's two info inputs
have long gap runs and the last two short ones, so both of gap_chunks's
routes are covered.  The gluings take their multiplicity from the left
side, from the right side, and with N as the right side, and the last has
an ineligible lambda and exits 1; inductive exits 1 on the first too, whose
left side fails the star condition.  The list is fixed here, so that
digests taken at different commits stay comparable.
"""

from __future__ import annotations

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout

import nsg
from nsg.cli import run

SINGLE = (
    ("info", "500,999"),
    ("info", "1000,1999"),
    ("presentation", "200,201"),
    ("star", "300,301"),
    ("classify", "400,401"),
    ("ci-tree", "48,60,72,80,126,315"),
    ("ci-tree", "110,120,176,180,210,264,495"),
    ("presentation", "96,99,165,168,240,392"),
    ("info", "4,6,9"),
    ("info", "2,2001"),
    ("info", "101,1000,5000"),
    ("presentation", "1000,1000001"),
    ("hypotheses", "1"),
    ("hypotheses", "2,3"),
    ("hypotheses", "4,6,9"),
    ("hypotheses", "3,5,7"),
    ("star", "3,5,7"),
    ("classify", "3,5,7"),
    ("star", "4,5,6"),
    ("classify", "4,5,6"),
    ("star", "16,20,24,30,45"),
    ("classify", "16,20,24,30,45"),
    ("ci-tree", "3,5,7"),
    ("ci-tree", "4,6,15"),
    ("ci-tree", "6,8,9"),
    ("ci-tree", "8,9,10,12,14"),
)
# (left, right, lambda, mu) of mu*left + lambda*right
GLUINGS = (
    ("3,5", "4,6,9", "9", "10"),  # multiplicity mu*3 = 30 < lambda*4 = 36
    ("4,6,9", "3,5", "10", "9"),  # multiplicity lambda*3 = 30 < mu*4 = 36
    ("3,7", "1", "10", "3"),  # N on the right, multiplicity mu*3 = 9
    ("2,3", "2,3", "3", "5"),  # lambda = 3 is a generator of the left side
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


def _sha256(buffer: io.StringIO) -> str:
    return hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()


def digest(argv: list[str]) -> tuple[int, str, str]:
    """Exit code and sha256 of the UTF-8 stdout and stderr of `nsg argv`."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, _sha256(out), _sha256(err)


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
