"""End-to-end checks of every subcommand, format, and exit code."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nsg
import nsg.census
import nsg.cli

from nsg import (
    ExceptionClass,
    enumerate_records,
    read_records,
    record_to_doc,
    summarize,
    verify_star,
    write_records,
)
from nsg.census import DEFAULT_WORK_CEILING, ENV_WORK_CEILING
from nsg.cli import build_parser, run

from test_acceptance import NDJSON_SHA256


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_text(capsys):
    code, out, _ = run_cli(capsys, "info", "4,6,9")
    assert code == 0
    assert "frobenius" in out and "11" in out
    assert "gaps" in out and "1,2,3,5,7,11" in out


def test_info_json(capsys):
    code, out, _ = run_cli(capsys, "info", "4,6,9", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["generators"] == [4, 6, 9]
    assert doc["frobenius"] == 11
    assert doc["genus"] == 6
    assert doc["apery"] == {"0": 0, "1": 9, "2": 6, "3": 15}


def test_info_of_the_natural_numbers_has_no_gap_piece(capsys):
    # N has an empty gap mask, so the gap stream writes nothing
    assert run_cli(capsys, "info", "1") == (
        0,
        "generators:    1\nmultiplicity:  1\nembedding_dim: 1\nfrobenius:     -1\n"
        "genus:         0\ngaps:          none\napery mod 1:   0:0\n",
        "",
    )
    code, out, _ = run_cli(capsys, "info", "1", "--format", "json")
    assert (code, out) == (0, json.dumps({
        "generators": [1], "multiplicity": 1, "embedding_dim": 1, "frobenius": -1,
        "genus": 0, "gaps": [], "apery": {"0": 0},
    }) + "\n")


# sha256 of the stdout of `nsg info GENS --format FMT`, taken from the
# version that built and sorted the whole gap list before printing it
INFO_SHA256 = {
    ("500,999", "json"): "5c259f986d8d7ccd492e9c907e46bde06c47a3d44a725d8497e902c954f39940",
    ("500,999", "text"): "1bc3348e67a86c249a050ff19c7e114454410c2cb0e8ecb28243f2d4dd34a57c",
    ("1000,1999", "json"): "5052b2df12d944700466179e4acf4451e41f464e893af94f8a6853f6a72e0d64",
    ("1000,1999", "text"): "ef02cf38846876821b1a560a12d3f03054ddd64b916398ff0ccc513d4d8676cd",
}


def info_digest(capsys, generators, fmt):
    code, out, err = run_cli(capsys, "info", generators, "--format", fmt)
    assert (code, err) == (0, "")
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("generators, fmt", sorted(INFO_SHA256))
def test_large_info_output_is_pinned(capsys, generators, fmt):
    assert info_digest(capsys, generators, fmt) == INFO_SHA256[generators, fmt]


def test_info_never_builds_the_gap_list(capsys, monkeypatch):
    # every nsg name for gaps and for gap_text is a trap, so `info` can go
    # back neither to one int per gap nor to holding the whole gap text
    for fname in ("gaps", "gap_text"):
        real = getattr(nsg.core, fname)

        def trap(semigroup, *args, fname=fname):
            raise AssertionError(f"{fname} called for {semigroup}")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "nsg" and vars(module).get(fname) is real:
                monkeypatch.setattr(module, fname, trap)
        with pytest.raises(AssertionError, match=f"{fname} called"):
            getattr(nsg.core, fname)(nsg.make_semigroup([2, 3]), ",")
    for fmt in ("json", "text"):
        assert info_digest(capsys, "1000,1999", fmt) == INFO_SHA256["1000,1999", fmt]


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_info_with_gaps_past_sys_maxsize_fails_before_any_output(fmt, capsys):
    # F + 1 is no possible sequence length; the head and the JSON "gaps": [
    # used to go out before an OverflowError traceback
    big = 10**23 - 1
    code, out, err = run_cli(capsys, "info", f"{big},2", "--format", fmt)
    assert (code, out) == (1, "")
    assert err == (
        f"error: cannot list the gaps of <2,{big}>: F + 1 = {big - 1} "
        f"exceeds sys.maxsize = {sys.maxsize}\n"
    )
    for gap_list in (nsg.gaps, lambda s: nsg.gap_text(s, ",")):
        with pytest.raises(ValueError, match="exceeds sys.maxsize"):
            gap_list(nsg.make_semigroup([2, big]))


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "command", ["star", "info", "ci-tree", "presentation", "classify", "hypotheses"]
)
def test_a_multiplicity_past_sys_maxsize_fails_before_any_output(command, fmt, capsys):
    # the Apery table would have m entries, more than any list can hold
    big = 10**20
    code, out, err = run_cli(capsys, command, f"{big},{big + 1}", "--format", fmt)
    assert (code, out) == (1, "")
    assert err == (
        f"error: cannot build an Apery table mod {big}: m = {big} "
        f"exceeds sys.maxsize = {sys.maxsize}\n"
    )


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command", ["glue", "inductive"])
def test_a_glued_multiplicity_past_sys_maxsize_fails_before_any_output(command, fmt, capsys):
    # m = lambda * 4 = 4 * 10^20 entries, more than any list can hold
    lam, mu = 10**20, 10**22 + 1
    gluing = ("3,5", "4,6,9", "--lambda", str(lam), "--mu", str(mu))
    code, out, err = run_cli(capsys, command, *gluing, "--format", fmt)
    assert (code, out) == (1, "")
    assert err == (
        f"error: cannot glue {mu}*<3,5> + {lam}*<4,6,9>: m = {4 * lam} "
        f"exceeds sys.maxsize = {sys.maxsize}\n"
    )


class WriteSizes(io.StringIO):
    """A text sink that keeps the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


class ByteWriteSizes(io.BytesIO):
    """A binary sink that keeps the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, data):
        self.sizes.append(len(data))
        return super().write(data)


def test_info_writes_the_gap_text_in_bounded_batches(monkeypatch):
    # a batch is written once it reaches WRITE_BATCH bytes, so no write
    # reaches WRITE_BATCH plus one piece and its sep, however large F is,
    # and the writes are about len(text) / WRITE_BATCH plus the other rows',
    # not two per piece.  Into a text sink every batch goes through write;
    # into a UTF-8 stream the full batches go to its buffer, which sees the
    # text layer's writes too
    s = nsg.make_semigroup([1000, 1999])
    for fmt, sep in (("json", ", "), ("text", ",")):
        longest = max(map(len, nsg.core.gap_chunks(s, sep)))
        text_sink = WriteSizes()
        byte_sink = io.TextIOWrapper(ByteWriteSizes(), encoding="utf-8", newline="\n")
        for sink in (text_sink, byte_sink):
            monkeypatch.setattr(sys, "stdout", sink)
            assert run(["info", "1000,1999", "--format", fmt]) == 0
            monkeypatch.undo()
        byte_sink.flush()
        texts = text_sink.getvalue(), byte_sink.buffer.getvalue().decode("utf-8")
        for text, sizes in zip(texts, (text_sink.sizes, byte_sink.buffer.sizes)):
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == INFO_SHA256["1000,1999", fmt]
            assert max(sizes) < nsg.cli.WRITE_BATCH + longest + len(sep)
            assert len(sizes) <= len(text) // nsg.cli.WRITE_BATCH + 20


def test_presentation_json(capsys):
    code, out, _ = run_cli(capsys, "presentation", "4,6,9", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["betti"] == [12, 18]
    assert doc["degrees"] == [12, 18]
    assert {"left": [3, 0, 0], "right": [0, 2, 0], "degree": 12} in doc["relations"]


def test_glue_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "glue", "2,3", "2,3", "--lambda", "4", "--mu", "5")
    assert code == 0
    assert "8,10,12,15" in out and "29" in out

    code, out, _ = run_cli(
        capsys, "glue", "3,7", "1", "--lambda", "10", "--mu", "3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["generators"] == [9, 10, 21]
    assert doc["frobenius"] == 53
    assert doc["extra_degree"] == 30
    assert doc["identity_holds"] is True


def test_glue_domain_error(capsys):
    code, out, err = run_cli(capsys, "glue", "2,3", "2,3", "--lambda", "3", "--mu", "5")
    assert code == 1
    assert out == ""
    assert "lambda" in err


def test_ci_tree_text(capsys):
    code, out, _ = run_cli(capsys, "ci-tree", "8,10,12,15")
    assert code == 0
    assert "(4*(2*N + 3*N : d=6) + 5*(2*N + 3*N : d=6) : d=20)" in out

    code, out, _ = run_cli(capsys, "ci-tree", "3,5,7")
    assert code == 0
    assert "no" in out


def test_ci_tree_json(capsys):
    code, out, _ = run_cli(capsys, "ci-tree", "4,5,6", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["ci"] is True
    assert doc["tree"]["extra_degree"] == 10

    code, out, _ = run_cli(capsys, "ci-tree", "3,5,7", "--format", "json")
    assert json.loads(out) == {"generators": [3, 5, 7], "ci": False}


def test_star_json(capsys):
    code, out, _ = run_cli(capsys, "star", "3,5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["star_verdict"] == "failed"
    assert doc["margin"] == -1

    code, out, _ = run_cli(capsys, "star", "3,5,7", "--format", "json")
    doc = json.loads(out)
    assert doc["star_verdict"] == "undefined"
    assert doc["d_max"] is None


def test_classify(capsys):
    code, out, _ = run_cli(capsys, "classify", "3,4")
    assert code == 0 and "three_four" in out
    code, out, _ = run_cli(capsys, "classify", "2,11", "--format", "json")
    assert json.loads(out)["exception"] == "two_generated_with_two"


def test_inductive(capsys):
    code, out, _ = run_cli(capsys, "inductive", "3,7", "1", "--lambda", "10", "--mu", "3")
    assert code == 0
    assert "star_with_small_partner" in out
    assert "passed" in out and "yes" in out

    code, _, err = run_cli(capsys, "inductive", "2,3", "4,6,9", "--lambda", "5", "--mu", "8")
    assert code == 1
    assert "hypothesis" in err or "branch" in err


def test_hypotheses(capsys):
    code, out, _ = run_cli(capsys, "hypotheses", "4,6,9", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["branch"] == "star_condition"
    assert doc["holds"] is True


# lambda near 10^12: enumerating the fiber of the extra degree 2*lambda of
# <4, 6, lambda> would take about 10^11 factorizations
HUGE = 10**12 + 1


def test_ci_commands_build_no_presentation(capsys, monkeypatch):
    # every nsg name for minimal_presentation is a trap, so a command that
    # builds a presentation fails instead of hanging
    real = nsg.presentations.minimal_presentation

    def trap(semigroup):
        raise AssertionError(f"presentation built for {semigroup}")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "nsg" and vars(module).get("minimal_presentation") is real:
            monkeypatch.setattr(module, "minimal_presentation", trap)
    with pytest.raises(AssertionError, match="presentation built"):
        run(["presentation", "2,3"])

    gluing = ["2,3", "1", "--lambda", str(HUGE), "--mu", "2"]
    glued = f"4,6,{HUGE}"

    def json_of(*argv):
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert (code, err) == (0, ""), argv
        return json.loads(out)

    assert json_of("glue", *gluing) == {
        "generators": [4, 6, HUGE], "frobenius": HUGE + 2, "extra_degree": 2 * HUGE,
        "mu": 2, "lambda": HUGE, "left_frobenius": 1, "right_frobenius": -1,
        "identity_holds": True,
    }
    assert json_of("ci-tree", glued)["tree"] == {
        "leaf": False, "generators": [4, 6, HUGE], "mu": 2, "lambda": HUGE,
        "extra_degree": 2 * HUGE,
        "left": {
            "leaf": False, "generators": [2, 3], "mu": 2, "lambda": 3, "extra_degree": 6,
            "left": {"leaf": True, "generators": [1]},
            "right": {"leaf": True, "generators": [1]},
        },
        "right": {"leaf": True, "generators": [1]},
    }
    assert json_of("star", glued) == {
        "generators": [4, 6, HUGE], "frobenius": HUGE + 2, "d_max": 2 * HUGE,
        "margin": 4, "star_verdict": "satisfied",
    }
    assert json_of("classify", glued) == {"generators": [4, 6, HUGE], "exception": "satisfies"}
    assert json_of("hypotheses", glued) == {
        "generators": [4, 6, HUGE], "embedding_dim": 3, "is_ci": True,
        "star_verdict": "satisfied", "branch": "star_condition", "holds": True,
    }
    # <2, 3> fails star, so no branch covers this gluing
    assert run_cli(capsys, "inductive", *gluing) == (
        1, "", "error: no hypothesis branch covers gluing <2,3> with <1>\n"
    )
    assert json_of("inductive", "4,6,9", "1", "--lambda", str(HUGE), "--mu", "2") == {
        "branch": "star_with_small_partner", "generators": [8, 12, 18, HUGE],
        "frobenius": HUGE + 22, "extra_degree": 2 * HUGE,
        "degree_checks": [[24, True], [36, True], [2 * HUGE, True]], "passed": True,
    }

    # the census: every record of genus <= 12, byte for byte
    buffer = io.StringIO()
    write_records(enumerate_records(12), buffer)
    digest = hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()
    assert digest == NDJSON_SHA256[12]


def test_enumerate_json_lines(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--max-genus", "2", "--format", "json")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines == [record_to_doc(r) for r in enumerate_records(2)]


def test_enumerate_text(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--max-genus", "1")
    assert code == 0
    assert "genus=1" in out and "2,3" in out


def test_enumerate_to_file(tmp_path, capsys):
    target = tmp_path / "records.ndjson"
    code, out, _ = run_cli(capsys, "enumerate", "--max-genus", "3", "--out", str(target))
    assert code == 0
    assert "wrote 8 records" in out
    assert list(read_records(target)) == enumerate_records(3)


def test_enumerate_jobs_flag_is_invisible_in_output(capsys):
    code1, out1, _ = run_cli(capsys, "enumerate", "--max-genus", "6", "--format", "json")
    code2, out2, _ = run_cli(
        capsys, "enumerate", "--max-genus", "6", "--jobs", "2", "--format", "json"
    )
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-genus", "4")
    assert code == 0
    assert "verification up to genus 4" in out
    assert "counterexamples: none" in out
    assert "2,3 | 2,5 | 2,7 | 3,4 | 2,9 | 3,5" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-genus", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["per_genus"] == [1, 1, 2, 4, 7]
    assert doc["counterexamples"] == []
    assert doc["ci_count"] == 8


def test_verify_writes_records(tmp_path, capsys):
    target = tmp_path / "verified.ndjson"
    code, out, err = run_cli(capsys, "verify", "--max-genus", "3", "--out", str(target))
    assert (code, err) == (0, "")
    assert out.startswith("verification up to genus 3\n")
    assert out.endswith(f"records written to {target}\n")
    assert list(read_records(target)) == enumerate_records(3)


def test_verify_small_sweep_succeeds(tmp_path, capsys):
    target = tmp_path / "census.ndjson"
    code, out, err = run_cli(capsys, "verify", "--max-genus", "3", "--out", str(target))
    assert (code, err) == (0, "")
    assert "total:           8\n" in out
    assert "counterexamples: none\n" in out
    assert len(target.read_text().splitlines()) == 8


def test_verify_usage_error_exits_two(capsys):
    code, out, err = run_cli(capsys, "verify", "--max-genus", "two")
    assert (code, out) == (2, "")
    assert "--max-genus" in err


@pytest.mark.parametrize(
    "bound, message",
    [
        ("-1", "error: max_genus must be >= 0, got -1\n"),
        (
            str(DEFAULT_WORK_CEILING + 1),
            f"error: genus bound {DEFAULT_WORK_CEILING + 1} exceeds the work ceiling "
            f"{DEFAULT_WORK_CEILING}\n",
        ),
    ],
    ids=["negative", "over-ceiling"],
)
def test_verify_domain_errors_exit_one(bound, message, capsys, monkeypatch):
    monkeypatch.delenv(ENV_WORK_CEILING, raising=False)
    assert run_cli(capsys, "verify", "--max-genus", bound) == (1, "", message)


def test_verify_unwritable_out_exits_one(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "census.ndjson"
    code, out, err = run_cli(capsys, "verify", "--max-genus", "2", "--out", str(missing))
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


# sha256 of the stdout of `nsg verify --max-genus 10`, as printed from the
# summary of the sorted record list
VERIFY_10_SHA256 = {
    "json": "dd11665d0968922428c9fb8ad7c32da224184f8ca3fb09524b53197fa35b8d99",
    "text": "97016325ddc5872b623df157c8eadc09e40e6aaf1220fd5add70746ed089039c",
}


def test_verify_without_out_builds_no_record_list(capsys, monkeypatch):
    expected = summarize(enumerate_records(10), 10)

    def trap(*args, **kwargs):
        raise AssertionError("enumerate_records called")

    monkeypatch.setattr(nsg.census, "enumerate_records", trap)
    monkeypatch.setattr(nsg.cli, "enumerate_records", trap)
    assert verify_star(10) == expected
    for fmt, sha in VERIFY_10_SHA256.items():
        code, out, err = run_cli(capsys, "verify", "--max-genus", "10", "--format", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha


def test_verify_exits_one_on_a_counterexample(capsys, monkeypatch):
    real = nsg.star._classify

    def mistag(semigroup):
        star, tag = real(semigroup)
        if semigroup.generators == (2, 3):
            return star, ExceptionClass.SATISFIES
        return star, tag

    monkeypatch.setattr(nsg.census, "_classify", mistag)
    code, out, err = run_cli(capsys, "verify", "--max-genus", "2", "--format", "json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "bound": 2, "total": 4, "ci_count": 3, "exceptions_found": [[2, 5]],
        "counterexamples": [[2, 3]], "per_genus": [1, 1, 2],
    }


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, )[0] == 2
    assert run_cli(capsys, "bogus")[0] == 2
    assert run_cli(capsys, "info")[0] == 2
    assert run_cli(capsys, "info", "4,x")[0] == 2
    assert run_cli(capsys, "info", "4,6,9", "--format", "yaml")[0] == 2
    assert run_cli(capsys, "glue", "2,3", "2,3", "--lambda", "4")[0] == 2
    assert run_cli(capsys, "enumerate")[0] == 2
    assert run_cli(capsys, "enumerate", "--max-genus", "2", "--jobs", "0")[0] == 2


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "info", "--help")[0] == 0


def test_domain_errors_exit_one(capsys):
    code, out, err = run_cli(capsys, "info", "4,6")
    assert code == 1
    assert "gcd" in err and out == ""

    code, _, err = run_cli(capsys, "enumerate", "--max-genus", "99")
    assert code == 1
    assert "ceiling" in err


def test_work_ceiling_env_is_respected(monkeypatch, capsys):
    monkeypatch.setenv(ENV_WORK_CEILING, "3")
    code, _, err = run_cli(capsys, "verify", "--max-genus", "4")
    assert code == 1 and "ceiling" in err
    monkeypatch.setenv(ENV_WORK_CEILING, "4")
    assert run_cli(capsys, "verify", "--max-genus", "4")[0] == 0


def test_io_failure_exits_one(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "enumerate", "--max-genus", "1", "--out", str(tmp_path / "no" / "dir.ndjson")
    )
    assert code == 1
    assert err.startswith("error:")


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert build_parser() is build_parser()
    # a usage error, a domain error, then text output: a --format or an
    # error left behind by one call would show in the next
    sequence = (
        ("info", "4,6,9", "--format", "yaml"),
        ("info", "4,6", "--format", "json"),
        ("info", "4,6,9"),
    )
    first = [run_cli(capsys, *argv) for argv in sequence]
    second = [run_cli(capsys, *argv) for argv in sequence]
    assert [code for code, _, _ in first] == [2, 1, 0]
    assert first[2][1].startswith("generators:")
    assert first == second


def test_repeated_invocations_agree(capsys):
    first = run_cli(capsys, "verify", "--max-genus", "5", "--format", "json")
    second = run_cli(capsys, "verify", "--max-genus", "5", "--format", "json")
    assert first == second


@pytest.mark.parametrize("module", ["nsg", "nsg.cli"])
def test_python_dash_m_runs_the_cli(module, capsys):
    src = str(Path(nsg.__file__).resolve().parent.parent)
    argv = ["star", "3,5", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(capsys, *argv)
    assert proc.returncode == 0 and proc.stdout



@pytest.mark.parametrize(
    "argv, err",
    [
        # the text stays buffered until the flush in main
        (["info", "4,6,9"], ""),
        (["--help"], ""),
        # a write in the handler fails, which run() reports
        (["info", "1000,1999", "--format", "json"], "error: [Errno 32] Broken pipe\n"),
        # the flush before the first full batch of gaps goes to the buffer
        (["info", "1000,1999", "--format", "text"], "error: [Errno 32] Broken pipe\n"),
    ],
)
def test_a_closed_stdout_exits_one_without_a_traceback(argv, err):
    # with buffered stdout, text still buffered when the reader has gone used
    # to fail again at interpreter shutdown: a traceback and exit 120
    src = str(Path(nsg.__file__).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nsg", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, err)
