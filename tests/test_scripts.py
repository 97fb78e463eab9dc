"""The digest lines of scripts/cli_digest.py."""

import argparse
import hashlib
import importlib.util
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from nsg import gap_text, make_semigroup, parse_generators
from nsg.cli import WRITE_BATCH, build_parser, run
from test_cli import INFO_SHA256

TESTS = Path(__file__).resolve().parent
SCRIPTS = TESTS.parent / "scripts"


def cli_digest():
    """scripts/cli_digest.py as a module."""
    spec = importlib.util.spec_from_file_location("cli_digest", SCRIPTS / "cli_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_digest_lists_every_command_and_the_info_pins(capsys):
    module = cli_digest()
    assert module.main() == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("nsg from ")
    lines = captured.out.splitlines()
    # cli_digest.txt holds the lines of an earlier tree; outputs only change
    # on purpose, together with a new golden (see the script's docstring)
    assert lines == (TESTS / "cli_digest.txt").read_text().splitlines()
    digests = {}
    for line in lines:
        code, out_sha, err_sha, *argv = line.split(" ")
        assert argv[-2] == "--format" and len(out_sha) == len(err_sha) == 64
        digests[tuple(argv)] = code, out_sha, err_sha
    assert len(digests) == len(lines)
    (subcommands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert {argv[0] for argv in digests} == set(subcommands.choices)
    empty = hashlib.sha256(b"").hexdigest()
    for (generators, fmt), sha in INFO_SHA256.items():
        assert digests["info", generators, "--format", fmt] == ("0", sha, empty)
    for command in (("enumerate", "--max-genus", "8"), ("verify", "--max-genus", "10")):
        for fmt in ("json", "text"):
            assert digests[(*command, "--format", fmt)][0] == "0"
    # the commands that exit 1: a multiplicity above sys.maxsize, of a
    # semigroup or of a gluing, an ineligible lambda for both gluing
    # commands, and a left side failing star for inductive; they alone
    # write to stderr
    huge_gluing = ("3,5", "4,6,9", "--lambda", str(10**20), "--mu", str(10**22 + 1))
    failing = {argv[:-2] for argv, (code, _, _) in digests.items() if code != "0"}
    assert failing == {
        ("star", module.HUGE),
        ("info", module.HUGE),
        ("glue", *huge_gluing),
        ("inductive", *huge_gluing),
        ("glue", "2,3", "2,3", "--lambda", "3", "--mu", "5"),
        ("inductive", "2,3", "2,3", "--lambda", "3", "--mu", "5"),
        ("inductive", "3,5", "4,6,9", "--lambda", "9", "--mu", "10"),
    }
    assert {code for code, _, _ in digests.values()} == {"0", "1"}
    assert all((err_sha == empty) == (code == "0") for code, _, err_sha in digests.values())


class ByteWrites(io.BytesIO):
    """A binary sink that keeps the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, data):
        self.sizes.append(len(data))
        return super().write(data)


class TextLayer(io.TextIOWrapper):
    """A text stream over ByteWrites that counts the characters written to it as text."""

    def __init__(self, encoding: str):
        super().__init__(ByteWrites(), encoding=encoding, newline="\n")
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return super().write(text)

    def text(self) -> str:
        self.flush()
        return self.buffer.getvalue().decode(self.encoding)


def test_info_sends_full_gap_batches_to_a_utf8_buffer_alone(monkeypatch):
    # every info input of the digest but HUGE, in both formats, into a
    # StringIO, a UTF-8 stream and a UTF-16 one: the three texts are equal,
    # and only the UTF-8 stream takes gap batches, each a full one, past its
    # text layer
    module = cli_digest()
    inputs = [
        generators for command, generators in module.SINGLE
        if command == "info" and generators != module.HUGE
    ]
    assert len(inputs) == 7
    bypassed = set()
    for generators in inputs:
        s = make_semigroup(parse_generators(generators))
        for fmt, sep in (("json", ", "), ("text", ",")):
            plain, utf8, utf16 = io.StringIO(), TextLayer("utf-8"), TextLayer("utf-16")
            for stream in (plain, utf8, utf16):
                monkeypatch.setattr(sys, "stdout", stream)
                assert run(["info", generators, "--format", fmt]) == 0
                monkeypatch.undo()
            text = plain.getvalue()
            assert utf8.text() == utf16.text() == text, (generators, fmt)
            assert utf16.chars == len(text)
            # the output is ASCII, one byte per character
            direct = len(text) - utf8.chars
            assert direct == sum(size for size in utf8.buffer.sizes if size >= WRITE_BATCH)
            assert (direct > 0) == (len(gap_text(s, sep)) >= WRITE_BATCH), (generators, fmt)
            if direct:
                bypassed.add(generators)
    # both routes of gap_chunks: long runs, and <101, 1000, 5000>'s short ones
    assert bypassed == {"500,999", "1000,1999", "329,330", "101,1000,5000"}


def python_version(major: int, minor: int) -> str | None:
    """A working Python major.minor: pythonX.Y on PATH, else one pyenv installed."""
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    name = f"python{major}.{minor}"
    candidates = [shutil.which(name)]
    candidates += sorted(map(str, pyenv.glob(f"versions/{major}.{minor}.*/bin/{name}")))
    for exe in filter(None, candidates):
        # a pyenv shim is on PATH even where it refuses to run
        probe = subprocess.run(
            [exe, "-c", f"import sys; print(sys.version_info[:2] == ({major}, {minor}))"],
            capture_output=True, text=True, timeout=30,
        )
        if probe.returncode == 0 and probe.stdout.strip() == "True":
            return exe
    return None


def test_cli_digest_is_the_same_under_python_3_10():
    # pyproject.toml promises Python >= 3.10, and dataclass options such as
    # weakref_slot=True only exist from 3.11; the script needs no package
    exe = python_version(3, 10)
    if exe is None:
        pytest.skip("no working Python 3.10 interpreter on PATH or in pyenv")
    done = subprocess.run(
        [exe, str(SCRIPTS / "cli_digest.py")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(TESTS.parent / "src")},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (TESTS / "cli_digest.txt").read_text()


def test_value_classes_match_each_pythons_dataclasses():
    # the lazy dataclass metadata comes from the running version's own
    # dataclasses, and copy.replace exists from 3.13; the probe needs no package
    found = {sys.executable}
    found.update(filter(None, (python_version(3, minor) for minor in (10, 12, 13))))
    for exe in sorted(found):
        done = subprocess.run(
            [exe, str(SCRIPTS / "value_class_probe.py")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(TESTS.parent / "src")},
        )
        assert done.returncode == 0, (exe, done.stderr)
        assert done.stdout.count(": ok") == 11, (exe, done.stdout)
