"""Command line front end, run as `nsg` or `python -m nsg`.

One subcommand per library operation, each with --format text|json.  Exit
codes: 0 on success, 1 on domain errors (bad semigroup input, unmet
hypotheses, IO failures, a stdout its reader closed), 2 on usage errors
(argparse handles those).
`verify` also exits 1, after printing its summary, when the summary lists a
counterexample.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .census import enumerate_records, summarize, verify_star, write_records
from .core import gap_chunks, make_semigroup, parse_generators
from .errors import NsgError
from .gluing import ci_tree, extra_degree, glue
from .presentations import minimal_presentation
from .star import (
    check_star_gluing,
    classify_exception,
    hypotheses_report,
    star_report,
)


def _generators_arg(text: str):
    try:
        return parse_generators(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _text(value) -> str:
    """One JSON value as a text row shows it: none, yes/no or a comma list."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, list):
        return _csv(value) or "none"
    return str(value)


def _doc_rows(doc: dict, relabel=None, skip=()) -> list:
    """The (label, value) text rows of doc, one per key not in skip, in key order."""
    relabel = relabel or {}
    return [(relabel.get(key, key), _text(value)) for key, value in doc.items() if key not in skip]


def _emit(args, doc: dict, rows=None, relabel=None, skip=()) -> None:
    """Print doc as JSON, or as text rows: rows() if given, else doc's own.

    rows is only called for text output, so JSON output never formats them.
    Without rows each key of doc not in skip is one row, labelled by relabel
    or by the key itself, with its value rendered by _text.
    """
    if args.format == "json":
        print(json.dumps(doc))
        return
    _print_rows(_doc_rows(doc, relabel, skip) if rows is None else rows())


def _print_rows(pairs, width: int | None = None) -> None:
    if width is None:
        width = max(len(label) for label, _ in pairs)
    for label, value in pairs:
        print(f"{label + ':':<{width + 2}}{str(value).strip()}")


# gap text goes out in writes of at least this many bytes, the last
# excepted; each write is shorter than this plus one piece.  On a 2-core
# host with Python 3.11, the gap text of <1000, 1999> went to a file in
# 25.5 ms with one write per piece of a thousand numbers and in 22.0 ms
# with batches of about eight, medians of 9; peak RSS of both `info`
# commands of the benchmark stayed within 0.1 MB of one write per piece,
# where 512 K batches added 0.9 MB.  A template piece of ten thousand
# numbers holds up to about 90 K of that JSON, so there a batch is mostly
# one piece
WRITE_BATCH = 1 << 16


def _gap_buffer(out, sep: str):
    """out.buffer if out writes the digits and sep as their UTF-8 bytes, else None.

    Then UTF-8 gap text written to the buffer is the bytes out would write
    for it.  A stream whose encoding writes that alphabet otherwise
    (UTF-16, say), or that has no buffer (io.StringIO), takes the gap text
    through its text layer.
    """
    buffer = getattr(out, "buffer", None)
    encoding = getattr(out, "encoding", None)
    if buffer is None or not isinstance(encoding, str):
        return None
    alphabet = "0123456789" + sep
    try:
        same = alphabet.encode(encoding) == alphabet.encode("utf-8")
    except (LookupError, UnicodeError):
        return None
    return buffer if same else None


def _write_gaps(out, chunks, sep: str) -> bool:
    """Write sep.join of the chunks to out in batches; True if any gap.

    The chunks are UTF-8 (surrogatepass) bytes (see nsg.core.gap_chunks),
    and each batch is their join by sep's bytes.  Every batch after the
    first opens with b"", so its join starts with the sep that continues
    the text, and the writes join to the whole text.  A full batch, at
    least WRITE_BATCH bytes, goes to out.buffer as it is when _gap_buffer
    finds one, after one out.flush() before the first, so that the text
    already written comes first; the rest is decoded and written as text.
    Output below one batch never flushes, so `info 4,6,9` into a closed
    pipe fails only at main's flush, silently.
    """
    code = sep.encode("utf-8", "surrogatepass")
    buffer = _gap_buffer(out, sep)
    batch, size = [], 0
    for chunk in chunks:
        batch.append(chunk)
        size += len(chunk) + len(code)
        if size >= WRITE_BATCH:
            if buffer is None:
                out.write(code.join(batch).decode("utf-8", "surrogatepass"))
            else:
                if batch[0]:  # the first batch: the text before it goes first
                    out.flush()
                buffer.write(code.join(batch))
            batch, size = [b""], 0
    if size:
        out.write(code.join(batch).decode("utf-8", "surrogatepass"))
    return bool(batch)


def _cmd_info(args) -> int:
    """Print the semigroup's invariants, with its gaps streamed from gap_chunks.

    The JSON line equals json.dumps(doc) for doc = head with "gaps" and
    "apery" appended, in that order.  With the default separators
    json.dumps writes a dict as "{" + ", ".join(key + ": " + value) + "}",
    so the non-empty head's text minus its closing brace, then
    ', "gaps": ' + list text, then ', "apery": ' + dict text and "}", is
    the text of the whole doc.  json.dumps writes a list of ints as "[",
    their str joined by ", ", "]", which is "[" + gap_text(s, ", ") + "]"
    ("[]" for none).  gap_text is the UTF-8 pieces of gap_chunks(s, sep)
    joined by sep, and _write_gaps writes those pieces, each cut from a
    byte template or picked by compress (see nsg.core), to stdout in
    batches of about WRITE_BATCH bytes with sep between them, so the gap
    text, tens of MB for a large semigroup, is never held whole.  A full
    batch goes to stdout's binary buffer as it is, when stdout writes the
    digits and sep as UTF-8 (a file, a pipe or a UTF-8 terminal), and is
    otherwise decoded and written as text.  The apery dict is dumped as it
    is: json.dumps writes its int keys as strings, as it would inside doc.
    The text rows are head's, through _doc_rows, then the gaps row ("none"
    for none), written the same way, and the Apery row.  gap_chunks builds
    the gap mask when it is called, before any output, so a semigroup whose
    gaps cannot be listed fails with nothing written.
    """
    s = make_semigroup(args.generators)
    apery = s.apery.as_dict()
    head = {
        "generators": list(s.generators),
        "multiplicity": s.multiplicity,
        "embedding_dim": s.embedding_dim,
        "frobenius": s.frobenius,
        "genus": s.genus,
    }
    out = sys.stdout
    if args.format == "json":
        chunks = gap_chunks(s, ", ")
        out.write(json.dumps(head)[:-1] + ', "gaps": [')
        _write_gaps(out, chunks, ", ")
        out.write('], "apery": ' + json.dumps(apery) + "}\n")
        return 0
    chunks = gap_chunks(s, ",")
    apery_row = (f"apery mod {s.multiplicity}", " ".join(f"{r}:{w}" for r, w in apery.items()))
    rows = _doc_rows(head)
    width = max(map(len, [label for label, _ in rows] + ["gaps", apery_row[0]]))
    _print_rows(rows, width)
    out.write(f"{'gaps:':<{width + 2}}")
    if not _write_gaps(out, chunks, ","):
        out.write("none")
    out.write("\n")
    _print_rows([apery_row], width)
    return 0


def _cmd_presentation(args) -> int:
    s = make_semigroup(args.generators)
    pres = minimal_presentation(s)
    betti = sorted({rel.degree for rel in pres.relations})
    doc = {
        "generators": list(s.generators),
        "betti": betti,
        "relations": [
            {
                "left": list(rel.left.coords),
                "right": list(rel.right.coords),
                "degree": rel.degree,
            }
            for rel in pres.relations
        ],
        "degrees": list(pres.degrees),
    }
    _emit(args, doc, skip={"relations"})
    if args.format == "text":
        print("relations:")
        if not pres.relations:
            print("  none")
        for rel in pres.relations:
            print(f"  {rel.left} = {rel.right}  @ {rel.degree}")
    return 0


def _cmd_glue(args) -> int:
    left = make_semigroup(args.left)
    right = make_semigroup(args.right)
    glued = glue(left, right, args.lam, args.mu)
    d = extra_degree(glued, left, right, args.lam, args.mu)
    identity = d + args.mu * left.frobenius + args.lam * right.frobenius
    doc = {
        "generators": list(glued.generators),
        "frobenius": glued.frobenius,
        "extra_degree": d,
        "mu": args.mu,
        "lambda": args.lam,
        "left_frobenius": left.frobenius,
        "right_frobenius": right.frobenius,
        "identity_holds": identity == glued.frobenius,
    }
    _emit(
        args,
        doc,
        lambda: [
            ("glued", _csv(glued.generators)),
            ("frobenius", glued.frobenius),
            ("extra_degree", d),
            (
                "identity",
                f"F = d + mu*F(left) + lambda*F(right) = "
                f"{d} + {args.mu}*{left.frobenius} + {args.lam}*{right.frobenius} = {identity}",
            ),
        ],
    )
    return 0


def _cmd_ci_tree(args) -> int:
    s = make_semigroup(args.generators)
    tree = ci_tree(s)
    if tree is None:
        _emit(args, {"generators": list(s.generators), "ci": False})
        return 0
    doc = {"generators": list(s.generators), "ci": True, "tree": tree.to_record()}
    _emit(
        args,
        doc,
        lambda: [
            ("generators", _csv(s.generators)),
            ("ci", "yes"),
            ("tree", tree.to_text()),
        ],
    )
    return 0


def _cmd_star(args) -> int:
    s = make_semigroup(args.generators)
    report = star_report(s)
    doc = {
        "generators": list(s.generators),
        "frobenius": report.frobenius,
        "d_max": report.d_max,
        "margin": report.margin,
        "star_verdict": report.verdict.value,
    }
    _emit(args, doc, relabel={"star_verdict": "verdict"})
    return 0


def _cmd_classify(args) -> int:
    s = make_semigroup(args.generators)
    tag = classify_exception(s)
    _emit(args, {"generators": list(s.generators), "exception": tag.value})
    return 0


def _cmd_inductive(args) -> int:
    left = make_semigroup(args.left)
    right = make_semigroup(args.right)
    report = check_star_gluing(left, right, args.lam, args.mu)
    doc = {
        "branch": report.branch.value,
        "generators": list(report.glued.generators),
        "frobenius": report.frobenius,
        "extra_degree": report.extra_degree,
        "degree_checks": [[d, ok] for d, ok in report.degree_checks],
        "passed": report.passed,
    }
    _emit(
        args,
        doc,
        lambda: [
            ("branch", report.branch.value),
            ("glued", _csv(report.glued.generators)),
            ("frobenius", report.frobenius),
            ("extra_degree", report.extra_degree),
            (
                "degrees",
                " ".join(
                    f"{d}:{'ok' if ok else 'FAIL'}" for d, ok in report.degree_checks
                ),
            ),
            ("passed", "yes" if report.passed else "no"),
        ],
    )
    return 0


def _cmd_hypotheses(args) -> int:
    s = make_semigroup(args.generators)
    report = hypotheses_report(s)
    doc = {
        "generators": list(s.generators),
        "embedding_dim": report.embedding_dim,
        "is_ci": report.is_ci,
        "star_verdict": report.star.verdict.value,
        "branch": report.branch,
        "holds": report.holds,
    }
    _emit(args, doc)
    return 0


def _record_line(record) -> str:
    return (
        f"{_csv(record.generators)} genus={record.genus} F={record.frobenius}"
        f" e={record.embedding_dim} ci={'yes' if record.is_ci else 'no'}"
        f" star={record.star.verdict.value} exception={record.exception.value}"
    )


def _cmd_enumerate(args) -> int:
    records = enumerate_records(args.max_genus)
    if args.out:
        count = write_records(records, args.out)
        print(f"wrote {count} records to {args.out}")
    elif args.format == "json":
        write_records(records, sys.stdout)
    else:
        for record in records:
            print(_record_line(record))
    return 0


def _cmd_verify(args) -> int:
    """Print the verification summary; exit 1 if it lists a counterexample.

    Without --out the summary is folded over the walk (verify_star).  The
    file needs canonical order, so --out holds the records, one list per
    genus that enumerate_records reverses.
    """
    if args.out:
        records = enumerate_records(args.max_genus)
        summary = summarize(records, args.max_genus)
        write_records(records, args.out)
    else:
        summary = verify_star(args.max_genus)
    if args.format == "text":
        print(f"verification up to genus {summary.bound}")
    _emit(
        args,
        # its fields in order; json writes the tuples as lists
        {name: getattr(summary, name) for name in summary.__match_args__},
        lambda: [
            ("total", summary.total),
            ("ci", summary.ci_count),
            ("exceptions", " | ".join(_csv(g) for g in summary.exceptions_found) or "none"),
            ("counterexamples", " | ".join(_csv(g) for g in summary.counterexamples) or "none"),
            ("per_genus", " ".join(str(c) for c in summary.per_genus)),
        ],
    )
    if args.out and args.format == "text":
        print(f"records written to {args.out}")
    return 1 if summary.counterexamples else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The nsg parser, built on first use and shared by every run() call.

    parse_args keeps no state between calls: each returns a new Namespace,
    and prog is fixed to "nsg", so the help and usage text do not depend on
    sys.argv.
    """
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    parser = argparse.ArgumentParser(
        prog="nsg", description="numerical semigroup toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def semigroup_command(name: str, handler, help_text: str):
        p = sub.add_parser(name, parents=[shared], help=help_text)
        p.add_argument(
            "generators",
            type=_generators_arg,
            help="comma-separated generators, e.g. 4,6,9",
        )
        p.set_defaults(handler=handler)
        return p

    semigroup_command("info", _cmd_info, "generators, Frobenius number, genus, gaps, Apery set")
    semigroup_command("presentation", _cmd_presentation, "Betti elements and a minimal presentation")
    semigroup_command("ci-tree", _cmd_ci_tree, "recursive gluing certificate, if one exists")
    semigroup_command("star", _cmd_star, "star condition report")
    semigroup_command("classify", _cmd_classify, "exception taxonomy tag")
    semigroup_command("hypotheses", _cmd_hypotheses, "which hypothesis branch covers the semigroup ring")

    def gluing_command(name: str, handler, help_text: str):
        p = sub.add_parser(name, parents=[shared], help=help_text)
        p.add_argument("left", type=_generators_arg, help="left semigroup generators")
        p.add_argument("right", type=_generators_arg, help="right semigroup generators")
        p.add_argument("--lambda", dest="lam", type=_positive_int, required=True,
                       help="non-generator element of the left semigroup")
        p.add_argument("--mu", type=_positive_int, required=True,
                       help="non-generator element of the right semigroup")
        p.set_defaults(handler=handler)
        return p

    gluing_command("glue", _cmd_glue, "glue two semigroups: mu*left + lambda*right")
    gluing_command("inductive", _cmd_inductive, "star condition check for one gluing")

    def census_command(name: str, handler, help_text: str):
        p = sub.add_parser(name, parents=[shared], help=help_text)
        p.add_argument("--max-genus", type=int, required=True, help="genus bound")
        p.add_argument(
            "--jobs", type=_positive_int, default=1,
            help="accepted and ignored: the census runs in one process",
        )
        p.add_argument("--out", help="write records to this path")
        p.set_defaults(handler=handler)
        return p

    census_command("enumerate", _cmd_enumerate, "census records up to a genus bound")
    census_command("verify", _cmd_verify, "exhaustive star verification up to a genus bound")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        return args.handler(args)
    except (NsgError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    """run() as a process: its exit code, and exit 1 when the reader closes stdout.

    A closed pipe raises BrokenPipeError on a write, which run() reports as
    an IO failure, or on the flush here.  Either way the text still
    buffered would fail again in the interpreter's last flush, which prints
    a traceback and exits 120; so, as the Python docs' note on SIGPIPE
    advises, fd 1 is pointed at os.devnull first.  This lives here, not in
    run(), which callers use in-process with their own streams.
    """
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
