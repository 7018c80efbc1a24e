"""Command-line front end.

Verbs: ``analyze`` (full ancillarity classification of a model file),
``evidence`` (minimal-sufficient or stable-conditional reduction at an
observed value), ``compare`` (equivalence of two inference bases),
``reproduce`` (regenerate the built-in example tables and the reweighting
CSV, diffing them against embedded reference values), and ``audit``
(relation audits on a seeded corpus).

Exit codes: 0 success / expected outcome, 2 input error, 3 a size limit
exceeded (ancillary search or event scan).  Reports are byte-identical
across runs for identical inputs, flags and seeds.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from pathlib import Path

from .ancillary import classify, conditional_mle_table, mle, mle_ties
from .corpus import audit_corpus
from .errors import EpsilonOutOfRange, LaminalError, ModelFormatError, SizeCapExceeded
from .evidence import (
    _is_sc_fixed_point,
    audit_relation,
    condition_on_laminal,
    content_hash,
    ev_sc,
    is_ms_reduced,
    maximal_conditionals,
)
from .model import (
    FiniteModel,
    InferenceBase,
    ancillary_distribution,
    block_probabilities,
    example1_model,
    example2_model,
    mixture_model,
    parse_model,
)
from .partitions import DEFAULT_ENUMERATION_CAP, format_event, format_partition, parse_partition
from .report import ReportDocument, csv_text, fmt_decimal, fmt_q, fmt_vector, table_lines
from .sufficiency import (
    Obstruction,
    _require_same_thetas,
    column_signature,
    ev_ms,
    match_reductions,
    mss_partition,
)

# ---------------------------------------------------------------------------
# Embedded reference values for the reproduce command.  Entries depending on
# the eps parameter are stored as exact linear forms (base, coefficient), so
# any admissible eps can be diffed; all other entries are plain rationals.
# ---------------------------------------------------------------------------

F = Fraction

EX1_FORMS = {
    "theta1": ((F(1, 8), 1), (F(1, 8), -1), (F(1, 8), 2), (F(1, 8), -2),
               (F(1, 14), 0), (F(1, 7), 0), (F(2, 7), 0)),
    "theta2": ((F(1, 16), -1), (F(3, 16), 1), (F(3, 16), 4), (F(1, 16), -4),
               (F(1, 7), 0), (F(1, 14), 0), (F(2, 7), 0)),
}
EX1_MINIMAL = ("1,2,3,4,5,6,7", "1,2,3,4,5,6|7", "1,2,3,4,7|5,6",
               "1,2,3,4|5,6,7", "1,2,3,4|5,6|7")
EX1_MAXIMAL = ("1,2|3,4|5,6|7", "1,3|2,4|5,6|7")
EX1_LAMINAL = "1,2,3,4|5,6|7"
# The one admissible eps where 1/16 + 2*eps = 1/14: cross-pair events such
# as {1,5} become zero-sum there, so the three answers above do not hold.
EX1_EXCEPTIONAL_EPS = F(1, 224)

EX2_ROWS = ((F(1, 6), F(1, 6), F(2, 6), F(2, 6)),
            (F(1, 12), F(3, 12), F(5, 12), F(3, 12)))
# (ancillary, conditioning block index, expected conditional MLE rows)
EX2_MLE_TABLE = (
    ("1,2|3,4", 0, ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))),
    ("1,3|2,4", 0, ((F(1, 3), F(2, 3)), (F(1, 6), F(5, 6)))),
)

EX3_WEIGHTS = (F(7, 100), F(13, 100), F(27, 100), F(53, 100))
EX3_C2 = "1,3,5,6|2,4|7"
EX3_L_ORIGINAL = (F(1, 2), F(3, 14), F(2, 7))
EX3_L_REWEIGHTED = (F(1, 5), F(27, 100), F(53, 100))
# Per-block (base, coefficient) forms of the C2 block probabilities.
EX3_C2_ORIGINAL = {
    "theta1": ((F(13, 28), 3), (F(1, 4), -3), (F(2, 7), 0)),
    "theta2": ((F(13, 28), 3), (F(1, 4), -3), (F(2, 7), 0)),
}
EX3_C2_REWEIGHTED = {
    "theta1": ((F(37, 100), F(33, 25)), (F(1, 10), F(-33, 25)), (F(53, 100), 0)),
    "theta2": ((F(77, 200), F(9, 5)), (F(17, 200), F(-9, 5)), (F(53, 100), 0)),
}


def _eval_form(form: tuple, eps: Fraction) -> Fraction:
    base, coeff = form
    return base + coeff * eps


def _rational_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
        return value
    return parse


def _fs_path(text: str) -> str:
    # run() decodes argv as UTF-8; hand the file system back those bytes,
    # whatever its own encoding.
    return os.fsdecode(text.encode("utf-8", "surrogateescape"))


def _load_model(path: str) -> FiniteModel:
    # One decode in C (a text-mode read runs utf-8-sig's pure-Python
    # decoder); splitlines ends lines at \r\n and \r, as a text read would.
    try:
        with open(_fs_path(path), "rb") as f:
            return parse_model(f.read().decode("utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"model file {path} is not UTF-8 text: {exc}") from None


def _model_table(model: FiniteModel, extra_rows: tuple[list[str], ...] = ()) -> list[str]:
    rows = [[lab, *map(fmt_q, row)] for lab, row in zip(model.theta_labels, model.probs)]
    return table_lines(["x", *model.sample_labels], [*rows, *extra_rows])


def _check(doc_lines: list[str], label: str, ok: bool) -> bool:
    doc_lines.append(f"reference check ({label}): {'PASS' if ok else 'FAIL'}")
    return ok


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> tuple[ReportDocument, int]:
    model = _load_model(args.model_file)
    labels = model.sample_labels
    mss = mss_partition(model)
    cls = classify(model, mss if args.within_mss else None, cap=args.cap)
    # Each distinct block is labelled once, and a name joins its blocks'
    # labels as format_partition does: the listed partitions share few
    # blocks (a one-theta model's 203 ancillaries of 6 points have 63).
    block_text = functools.cache(lambda b: ",".join(map(labels.__getitem__, b)))

    def name(p) -> str:
        return "|".join(map(block_text, p.blocks))

    doc = ReportDocument(f"analysis of model {model.name}")
    doc.add("model", _model_table(model))
    doc.add("minimal sufficient partition", [name(mss)])
    scope = "coarsenings of the minimal sufficient partition" if args.within_mss \
        else "all partitions of the sample space"
    doc.add("ancillaries", [f"count: {len(cls.ancillaries)} (enumerated over {scope})"])
    doc.add("maximal ancillaries", [name(p) for p in cls.maximal])
    # classify checks stable = minimal and returns one tuple for both, so
    # the minimal ancillaries are named once for the two sections.
    minimal = [name(p) for p in cls.minimal]
    doc.add("minimal ancillaries", minimal)
    doc.add("laminal ancillary", [name(cls.laminal)])
    doc.add("stable ancillaries", minimal)
    # Γ0 is sorted by size and every other nonempty event holds a smaller
    # atom, so the atoms are the nonempty events missing every atom before
    # them.  They are not cls.laminal's blocks: Γ0 is always taken over the
    # sample space, and under --within-mss the laminal can be coarser.
    atoms, covered = [], set()
    for e in cls.gamma0:
        if e and covered.isdisjoint(e):
            atoms.append(e)
            covered |= e
    doc.add("conforming events (Gamma0)", [
        f"algebra of {len(cls.gamma0)} events",
        "atoms: " + "; ".join(format_event(e, labels) for e in atoms),
    ])
    # A witness is a function of the block it destabilizes: via, weights
    # and ratios are all read off that block (see ancillary._Lattice), so
    # each line's tail is formatted once per set of block points.
    tails: dict[tuple[int, ...], str] = {}

    def tail(w) -> str:
        points = w.unstable.blocks[w.block]
        if points not in tails:
            tails[points] = (
                f"reweight {name(w.via)} by {fmt_vector(w.weights)}; "
                f"block {format_event(points, labels)} gets "
                f"{fmt_q(w.lr[0])} under {model.theta_labels[w.thetas[0]]} vs "
                f"{fmt_q(w.lr[1])} under {model.theta_labels[w.thetas[1]]}")
        return tails[points]

    witness_lines = [f"{name(w.unstable)}: {tail(w)}" for w in cls.witnesses]
    doc.add("instability witnesses (one per non-stable ancillary)",
            witness_lines or ["none; every ancillary is stable"])
    return doc, 0


# ---------------------------------------------------------------------------
# evidence
# ---------------------------------------------------------------------------


def cmd_evidence(args) -> tuple[ReportDocument, int]:
    model = _load_model(args.model_file)
    ib = InferenceBase(model, model.sample_index(args.observed))
    doc = ReportDocument(
        f"evidence ({args.function}) for model {model.name}, observed {args.observed}"
    )
    ms = ev_ms(ib)
    pushed = ms.model
    doc.add("minimal sufficient partition", [
        format_partition(ms.mss, model.sample_labels),
        "block signatures (normalized probability vectors):",
        *table_lines(
            ["block", "signature"],
            [[pushed.sample_labels[j], fmt_vector(column_signature(pushed, j))]
             for j in range(pushed.n_samples)],
        ),
    ])
    if args.function == "ms":
        eb = ms
        fixed = is_ms_reduced(eb.as_inference_base())
    else:
        eb = condition_on_laminal(ms)
        fixed = _is_sc_fixed_point(ms, eb)
        doc.add("laminal contour (conditioning event)",
                [format_event(eb.conditioning_block, model.sample_labels)])
    doc.add("evidence model", _model_table(eb.model))
    doc.add("observed block", [eb.model.sample_labels[eb.observed_block]])
    doc.add("idempotence check (double reduction is a fixed point)",
            ["PASS" if fixed else "FAIL"])
    return doc, 0 if fixed else 1


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def cmd_compare(args) -> tuple[ReportDocument, int]:
    m1 = _load_model(args.model_file_1)
    m2 = _load_model(args.model_file_2)
    ib1 = InferenceBase(m1, m1.sample_index(args.observed1))
    ib2 = InferenceBase(m2, m2.sample_index(args.observed2))
    doc = ReportDocument(
        f"compare ({args.relation}): ({m1.name}, {args.observed1}) vs "
        f"({m2.name}, {args.observed2})"
    )
    _require_same_thetas(ib1, ib2)
    reduce_base = ev_ms if args.relation == "s" else ev_sc
    r1, r2 = reduce_base(ib1), reduce_base(ib2)
    h = match_reductions(r1, r2)
    if isinstance(h, Obstruction):
        doc.add("verdict", ["NOT-EQUIVALENT", f"obstruction: {h.reason}"])
        return doc, 0
    rows = [
        [format_event(r2.mss.blocks[src], m2.sample_labels),
         format_event(r1.mss.blocks[dst], m1.sample_labels)]
        for src, dst in enumerate(h.mapping)
    ]
    lines = ["EQUIVALENT",
             "identity relabeling" if h.is_identity else "relabeling h:"]
    lines += table_lines(["second-base block", "maps to first-base block"], rows)
    if args.relation == "sc":
        lines.append("mss spaces have equal size (required for the bijection); "
                     "h is completed off the contour in ascending index order")
    doc.add("verdict", lines)
    return doc, 0


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def _reproduce_example1(doc: ReportDocument, eps: Fraction) -> bool:
    model = example1_model(eps)
    labels = model.sample_labels
    ok = True
    lr_row = ["LR"] + [
        fmt_q(model.probs[0][j] / model.probs[1][j]) for j in range(7)
    ]
    lines = _model_table(model, extra_rows=(lr_row,))
    expected = {
        lab: tuple(_eval_form(f, eps) for f in EX1_FORMS[lab])
        for lab in model.theta_labels
    }
    ok &= _check(lines, "distribution rows",
                 all(model.probs[i] == expected[lab]
                     for i, lab in enumerate(model.theta_labels)))
    doc.add(f"example1 (eps = {fmt_q(eps)}): distributions and likelihood ratios", lines)

    cls = classify(model)
    minimal = [format_partition(p, labels) for p in cls.minimal]
    maximal = [format_partition(p, labels) for p in cls.maximal]
    laminal = format_partition(cls.laminal, labels)
    lines = ["minimal ancillaries: " + "; ".join(minimal),
             "maximal ancillaries: " + "; ".join(maximal),
             "laminal: " + laminal]
    ok &= _check(lines, "minimal ancillaries", set(minimal) == set(EX1_MINIMAL))
    ok &= _check(lines, "maximal ancillaries", set(maximal) == set(EX1_MAXIMAL))
    ok &= _check(lines, "laminal", laminal == EX1_LAMINAL)
    doc.add("example1: ancillary classification", lines)
    return ok


def _reproduce_example2(doc: ReportDocument) -> bool:
    model = example2_model()
    labels = model.sample_labels
    ok = True
    lines = _model_table(model)
    ok &= _check(lines, "distribution rows", model.probs == EX2_ROWS)
    doc.add("example2: distributions", lines)

    lines = [f"MLE at x=1: {model.theta_labels[mle(model, 0)]}"]
    ties = [labels[j] for j in range(model.n_samples) if len(mle_ties(model, j)) > 1]
    lines.append("MLE ties (broken toward the lowest theta index): "
                 + (", ".join(ties) if ties else "none"))
    rows = []
    table_ok = True
    for part_text, block, want in EX2_MLE_TABLE:
        a = parse_partition(part_text, labels)
        got = conditional_mle_table(model, a, block)
        table_ok &= got == want
        block_label = format_event(a.blocks[block], labels)
        for t, row in enumerate(got):
            rows.append([f"given {part_text} at {block_label}",
                         model.theta_labels[t]] + [fmt_q(v) for v in row])
    lines += table_lines(
        ["conditioning", "theta", "P(mle=theta1)", "P(mle=theta2)"], rows)
    ok &= _check(lines, "conditional MLE table", table_ok)
    doc.add("example2: conditional distributions of the MLE", lines)
    return ok


def _reproduce_example3(doc: ReportDocument, eps: Fraction) -> bool:
    model = example1_model(eps)
    labels = model.sample_labels
    a1 = parse_partition(EX1_MAXIMAL[0], labels)
    lam = parse_partition(EX1_LAMINAL, labels)
    c2 = parse_partition(EX3_C2, labels)
    mix = mixture_model(model, a1, EX3_WEIGHTS)
    ok = True
    lines = [
        f"reweighting {EX1_MAXIMAL[0]} from {fmt_vector(ancillary_distribution(model, a1))} "
        f"to {fmt_vector(EX3_WEIGHTS)}",
    ]
    scenarios = (("original", model), ("reweighted", mix))
    stats = {"L": lam, "C2": c2}
    # One (theta1 row, theta2 row) table per statistic and scenario, in CSV
    # order, and its block rows, which the C2 tables and the CSV both read.
    probs = {(stat, scen): block_probabilities(m, p)
             for stat, p in stats.items() for scen, m in scenarios}
    block_rows = {
        (stat, scen): [[",".join(labels[i] for i in block), fmt_q(p1), fmt_q(p2),
                        fmt_q(p1 / p2), fmt_decimal(p1 / p2)]
                       for block, p1, p2 in zip(stats[stat].blocks, *rows)]
        for (stat, scen), rows in probs.items()}

    for scen, want in (("original", EX3_L_ORIGINAL), ("reweighted", EX3_L_REWEIGHTED)):
        p1s, p2s = probs["L", scen]
        lines.append(f"L distribution ({scen}): "
                     + (fmt_vector(p1s) if p1s == p2s else "parameter-dependent"))
        ok &= _check(lines, f"L stays ancillary ({scen})", p1s == p2s)
        ok &= _check(lines, f"L distribution ({scen})", p1s == p2s == want)
    for scen, forms in (("original", EX3_C2_ORIGINAL), ("reweighted", EX3_C2_REWEIGHTED)):
        want = tuple(tuple(_eval_form(f, eps) for f in forms[theta])
                     for theta in ("theta1", "theta2"))
        lines.append(f"C2 block probabilities ({scen}):")
        lines += table_lines(
            ["block", "p_theta1", "p_theta2", "likelihood_ratio", "decimal_lr"],
            block_rows["C2", scen])
        ok &= _check(lines, f"C2 block probabilities ({scen})", probs["C2", scen] == want)
    p1s, p2s = probs["C2", "reweighted"]
    ok &= _check(lines, "reweighted C2 is informative (some ratio differs from 1)",
                 p1s != p2s)
    doc.add(f"example3 (eps = {fmt_q(eps)}): reweighting a non-stable ancillary",
            lines)
    doc.csv_attachments.append(("figure1.csv", csv_text(
        ["statistic", "block", "scenario", "p_theta1", "p_theta2",
         "likelihood_ratio", "decimal_lr"],
        [[stat, row[0], scen, *row[1:]] for (stat, scen), rows in block_rows.items()
         for row in rows])))
    return ok


def cmd_reproduce(args) -> tuple[ReportDocument, int]:
    eps = args.epsilon
    if args.which in ("example1", "all") and eps == EX1_EXCEPTIONAL_EPS:
        raise EpsilonOutOfRange(
            f"reproduce {args.which} does not admit eps = {fmt_q(eps)}: there "
            "1/16 + 2*eps = 1/14, so cross-pair events such as {1,5} are zero-sum "
            "and the example1 reference answers do not hold")
    doc = ReportDocument(f"reproduce {args.which} (eps = {fmt_q(eps)})")
    ok = True
    if args.which in ("example1", "all"):
        ok &= _reproduce_example1(doc, eps)
    if args.which in ("example2", "all"):
        ok &= _reproduce_example2(doc)
    if args.which in ("example3", "all"):
        ok &= _reproduce_example3(doc, eps)
    doc.add("summary", ["all reference checks passed" if ok
                        else "SOME REFERENCE CHECKS FAILED"])
    return doc, 0 if ok else 1


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def cmd_audit(args) -> tuple[ReportDocument, int]:
    corpus = audit_corpus(args.corpus_seed, args.corpus_size)
    if args.relation == "c":
        # The interesting counterexamples come from conditioning a model with
        # two crossing maximal ancillaries; add those conditionals explicitly.
        corpus = list(corpus) + list(maximal_conditionals(corpus[0], cap=args.cap))
    report = audit_relation(corpus, args.relation, cap=args.cap)
    doc = ReportDocument(
        f"relation audit: {args.relation} on {len(corpus)} inference bases "
        f"(seed {args.corpus_seed}, size {args.corpus_size})"
    )
    rows = [
        [str(i), content_hash(ib), ib.model.name, str(ib.model.n_thetas),
         str(ib.model.n_samples), ib.observed_label]
        for i, ib in enumerate(corpus)
    ]
    doc.add("corpus", table_lines(
        ["index", "hash", "model", "thetas", "samples", "observed"], rows))
    lines = [
        f"reflexive failures: {list(report.reflexive_failures) or 'none'}",
        f"symmetric failures: {list(report.symmetric_failures) or 'none'}",
        f"transitive failures: {list(report.transitive_failures) or 'none'}",
    ]
    if args.relation == "sc":
        pairs = len(report.containment_checks)
        related_s = sum(1 for _, in_s, _sc in report.containment_checks if in_s)
        lines.append(
            f"sufficiency-implies-stable-conditionality containment: checked "
            f"{pairs} pairs ({related_s} related under sufficiency); "
            f"violations: {list(report.containment_failures) or 'none'}"
        )
    verdict = report.is_equivalence
    lines.append(
        f"equivalence relation on this corpus: {'yes' if verdict else 'NO'}")
    doc.add("relation audit", lines)
    if args.relation == "c":
        expected = not verdict
        doc.add("expected outcome", [
            "classical conditioning is expected to fail the audit; "
            + ("violation witnesses found" if expected else "NO violation found"),
        ])
        code = 0 if expected else 1
    else:
        code = 0 if verdict and not report.containment_failures else 1
    return doc, code


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on the first call to main and reused by every later call in the
    # process; parse_args keeps nothing between calls.
    parser = argparse.ArgumentParser(
        prog="laminal",
        description="Exact ancillarity structure and evidence analysis of "
                    "finite discrete models.",
    )
    # dest names the missing verb in argparse's error; each verb's own
    # parser sets args.run, which main calls.
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run, cap=True):
        p.set_defaults(run=run)
        if cap:  # only the verbs that search the ancillaries
            p.add_argument("--cap", type=_int_at_least(1), default=DEFAULT_ENUMERATION_CAP,
                           help="enumeration size cap (default %(default)s)")
        p.add_argument("--out", metavar="DIR",
                       help="directory to write report.txt and CSV attachments")

    p = sub.add_parser("analyze", help="full ancillarity classification")
    p.add_argument("model_file")
    p.add_argument("--within-mss", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="restrict to functions of the minimal sufficient "
                        "partition (default on)")
    common(p, cmd_analyze)

    p = sub.add_parser("evidence", help="evidence function at an observed value")
    p.add_argument("model_file")
    p.add_argument("--observed", required=True, metavar="LABEL")
    p.add_argument("--function", choices=("ms", "sc"), default="sc")
    common(p, cmd_evidence, cap=False)

    p = sub.add_parser("compare", help="equivalence of two inference bases")
    p.add_argument("model_file_1")
    p.add_argument("model_file_2")
    p.add_argument("--observed1", required=True, metavar="LABEL")
    p.add_argument("--observed2", required=True, metavar="LABEL")
    p.add_argument("--relation", choices=("s", "sc"), default="sc")
    common(p, cmd_compare, cap=False)

    p = sub.add_parser("reproduce", help="regenerate built-in example tables")
    p.add_argument("which", choices=("example1", "example2", "example3", "all"))
    p.add_argument("--epsilon", type=_rational_arg, default=Fraction(1, 100),
                   metavar="a/b")
    common(p, cmd_reproduce, cap=False)

    p = sub.add_parser("audit", help="relation audit on a seeded corpus")
    p.add_argument("--corpus-seed", type=int, default=1)
    p.add_argument("--corpus-size", type=_int_at_least(0), default=12)
    p.add_argument("--relation", choices=("s", "sc", "c"), default="sc")
    common(p, cmd_audit)

    return parser


def _os_error(exc: OSError) -> int:
    if isinstance(exc.filename, str):  # name the path as given, not in its file-system form
        exc.filename = os.fsencode(exc.filename).decode("utf-8", "surrogateescape")
    print(f"error: {exc}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc, code = args.run(args)
    except SizeCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        return _os_error(exc)
    except LaminalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = doc.render()
    print(text, end="")
    if args.out:
        out = Path(_fs_path(args.out))
        try:
            out.mkdir(parents=True, exist_ok=True)
            (out / "report.txt").write_text(text, encoding="utf-8")
            for name, payload in doc.csv_attachments:
                (out / name).write_text(payload, encoding="utf-8")
        except OSError as exc:
            return _os_error(exc)
    return code


def run() -> None:
    # UTF-8 in and out, as model files are; bad argument bytes stay surrogates.
    sys.stdout.reconfigure(encoding="utf-8")
    sys.stderr.reconfigure(encoding="utf-8")
    sys.exit(main([os.fsencode(a).decode("utf-8", "surrogateescape") for a in sys.argv[1:]]))


if __name__ == "__main__":
    run()
