"""Command-line front end: proof replay, coalition queries, and exports."""

from __future__ import annotations

import argparse
import sys
import warnings

from . import certificates, cover, eu, separation
from ._packed import integer
from ._record import Record
from .games import Coalition

EXIT_OK = 0
EXIT_STEP_FAILED = 1
EXIT_USAGE = 2


class Step(Record):
    """One checked step of the replay: its name, PASS or FAIL, and a detail line."""

    name: str
    status: str
    detail: str


class ProofTranscript(Record):
    """The replay's notes and steps, and the conclusion they support."""

    notes: list[str]
    steps: list[Step]
    conclusion: str

    @property
    def verified(self) -> bool:
        return bool(self.steps) and all(s.status == "PASS" for s in self.steps)

    def to_text(self) -> str:
        lines = ["council voting rule, dimension lower bound"]
        lines += [f"note: {n}" for n in self.notes]
        lines.append("")
        width = max((len(s.name) for s in self.steps), default=0)
        for i, s in enumerate(self.steps, start=1):
            lines.append(f"step {i}  {s.name:<{width}}  {s.status:<4}  {s.detail}")
        lines.append("")
        lines.append(f"conclusion: {self.conclusion}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "notes": list(self.notes),
            "steps": [{"name": s.name, "status": s.status, "detail": s.detail}
                      for s in self.steps],
            "conclusion": self.conclusion,
        }


def _write_parts(parts) -> None:
    for part in parts:
        sys.stdout.write("  " + " ".join(str(v) for v in sorted(part)) + "\n")


def run_verification(table: eu.MemberTable | None = None) -> ProofTranscript:
    """Replay the whole lower-bound argument; stops at the first failing step."""
    game = eu.build_eu_game(table)
    notes = [
        f"total population {game.table.total_population}; "
        f"member quota {game.member_quota} of {eu.N_MEMBERS}; "
        f"population quota {game.population_quota}",
        "the population rule is read as a closed inequality: "
        f"{eu.POPULATION_DEN}*pop(C) >= {eu.POPULATION_NUM}*total",
    ]
    steps: list[Step] = []

    def record(name: str, ok: bool, detail: str) -> bool:
        steps.append(Step(name, "PASS" if ok else "FAIL", detail))
        return ok

    def conclude() -> ProofTranscript:
        if steps and steps[-1].status != "PASS":
            conclusion = f"not established (failed at: {steps[-1].name})"
        else:
            conclusion = "dimension >= 8"
        return ProofTranscript(notes=notes, steps=steps, conclusion=conclusion)

    # 1: the bundled losing and winning coalitions classify as advertised
    bad = [f"L{i}" for i, c in enumerate(eu.LOSING_FAMILY, start=1) if game.is_winning(c)]
    bad += [f"W{i}" for i, c in enumerate(eu.WINNING_FAMILY, start=1) if not game.is_winning(c)]
    if not record("reference coalitions", not bad,
                  "15 losing and 12 winning confirmed" if not bad
                  else "misclassified: " + ", ".join(bad)):
        return conclude()

    # 2-3: the 75 pair and 5 triple certificates, each built and verified
    # once.  A triple's witnesses are matched from W1..W12 on member counts
    # alone, which no member table changes, and all six of its coalitions
    # were classified in step 1, so any failure here belongs to a pair.
    try:
        family = certificates.nonseparable_family(game)
    except (ValueError, certificates.CertificateError) as err:
        record("pair certificates", False, str(err))
        return conclude()
    anchors = sum(j == eu.ANCHOR_LABEL for _, j in eu.NONSEPARABLE_PAIRS)
    transfers = len(eu.NONSEPARABLE_PAIRS) - anchors
    record("pair certificates", True,
           f"{len(eu.NONSEPARABLE_PAIRS)} verified ({transfers} transfer, {anchors} anchor)")
    record("triple certificates", True, f"{len(eu.NONSEPARABLE_TRIPLES)} verified")

    # 4: the maximal independent parts are exactly the 21 bundled ones
    h = family.hypergraph
    maximal = cover.enumerate_maximal_independent(h)
    expected = set(eu.COUNCIL_MAXIMAL_PARTS)
    if not record("maximal independent sets", set(maximal) == expected,
                  f"{len(maximal)} sets match the bundled family"
                  if set(maximal) == expected else
                  f"enumeration differs: got {len(maximal)} sets"):
        return conclude()

    # 5: no 7-cover exists.  min_cover deepens from one part, refuting each
    # limit exhaustively, so a minimum above 7 refutes every 7-cover.
    solution = cover.min_cover(h, maximal)
    if not record("exhaustive cover search", solution.k > 7,
                  "no 7-cover exists over the 21 candidate parts"
                  if solution.k > 7 else
                  f"found a {solution.k}-cover: {eu._label_sets(solution.parts)}"):
        return conclude()

    # 6: two derived dual weightings refute every 7-cover independently
    duals = cover.dual_refutation(h, 7)
    if not record("dual refutation", len(duals) == 2,
                  f"totals {duals[0].total} > 7 (parts avoiding "
                  f"{eu._label_sets([duals[0].excluded_part])}) and {duals[1].total} > "
                  f"6 (a part equal to it)" if len(duals) == 2 else
                  f"derived {len(duals)} dual weightings, expected 2"):
        return conclude()

    # 7: the minimum cover uses exactly 8 parts
    ok = solution.k == 8 and solution.verify(h)
    record("minimum cover", ok,
           f"8 parts: {eu._label_sets(solution.parts)}" if ok
           else f"minimum cover has {solution.k} parts")
    return conclude()


def _load_table(path: str | None) -> eu.MemberTable:
    if path is None:
        return eu.default_members()
    with open(path, encoding="utf-8-sig") as fh:
        return eu.load_members(fh)


def _read_json(path: str) -> dict:
    import json  # only the commands that read or write JSON load it

    with open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except ValueError as err:  # the JSON or the UTF-8 decoder's message
            raise ValueError(f"{path}: {err}") from None


def _dump_json(obj: dict) -> str:
    import json

    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def parse_coalition(text: str) -> Coalition:
    """Parse '1,4-7,12' style index lists or bundled labels like 'L15'."""
    text = text.strip()
    if text and text[0].upper() in "LW" and text[1:].isdigit():
        return eu.labeled_coalition(text)
    indices: list[int] = []
    if text:
        for part in text.split(","):
            part = part.strip()
            if not part:
                raise ValueError(f"empty member index in {text!r}")
            if "-" in part:
                try:
                    lo, hi = (eu.ascii_int(half.strip()) for half in part.split("-", 1))
                except ValueError:
                    raise ValueError(f"bad member range {part!r}") from None
                if lo > hi:
                    raise ValueError(f"empty range {part!r}")
                # checked before expanding, so a huge range builds no list
                for bound in (lo, hi):
                    if not 1 <= bound <= eu.N_MEMBERS:
                        raise ValueError(f"member index {bound} out of range 1..{eu.N_MEMBERS}")
                indices.extend(range(lo, hi + 1))
            else:
                try:
                    indices.append(eu.ascii_int(part))
                except ValueError:
                    raise ValueError(f"bad member index {part!r}") from None
    return Coalition.from_indices(indices, eu.N_MEMBERS)


def cmd_verify(args: argparse.Namespace) -> int:
    transcript = run_verification(_load_table(args.members))
    if args.format == "json":
        sys.stdout.write(_dump_json(transcript.to_json_obj()))
    else:
        sys.stdout.write(transcript.to_text())
    return EXIT_OK if transcript.verified else EXIT_STEP_FAILED


def cmd_classify(args: argparse.Namespace) -> int:
    game = eu.build_eu_game(_load_table(args.members))
    coalition = parse_coalition(args.coalition)
    report = game.classify(coalition)
    if args.format == "json":
        obj = {
            "coalition": list(coalition.members),
            "members": len(coalition),
            "population": report.population_sum,
            "rule55": report.rule55,
            "rule65": report.rule65,
            "rule25": report.rule25,
            "winning": report.winning,
        }
        sys.stdout.write(_dump_json(obj))
    else:
        yes_no = {True: "yes", False: "no"}
        sys.stdout.write(
            f"coalition: {coalition}\n"
            f"members: {len(coalition)} of {eu.N_MEMBERS}\n"
            f"population: {report.population_sum} "
            f"(quota {game.population_quota})\n"
            f"members rule   (>= {game.member_quota}): {yes_no[report.rule55]}\n"
            f"population rule (>= 65%): {yes_no[report.rule65]}\n"
            f"outright rule  (>= {eu.OUTRIGHT_QUOTA}): {yes_no[report.rule25]}\n"
            f"winning: {yes_no[report.winning]}\n"
        )
    return EXIT_OK


def cmd_separate(args: argparse.Namespace) -> int:
    instance = separation.instance_from_json(_read_json(args.instance))
    result = separation.lp_feasible(instance)
    if isinstance(result, separation.Separable):
        sys.stdout.write("SEPARABLE\n")
        sys.stdout.write("weights: " + " ".join(str(w) for w in result.weights) + "\n")
        sys.stdout.write(f"quota: {result.quota}\n")
    else:
        sys.stdout.write("NOT SEPARABLE\n")
        sys.stdout.write(result.farkas_note + "\n")
    return EXIT_OK


def cmd_certs_check(args: argparse.Namespace) -> int:
    game = eu.build_eu_game(_load_table(args.members))
    cert = certificates.certificate_from_json(_read_json(args.certificate), eu.N_MEMBERS)
    if certificates.verify_balance(cert, game):
        sys.stdout.write(
            f"certificate verifies: {len(cert.losing)} losing vs "
            f"{len(cert.winning)} winning, incidences balance\n"
        )
        return EXIT_OK
    sys.stdout.write("certificate REJECTED\n")
    return EXIT_STEP_FAILED


def _read_k(text: str) -> int:
    """The part count ``--k``: ASCII digits, at least 1.

    A leading minus is read as a sign, so that "-3" is out of range rather
    than malformed.
    """
    negative = text.startswith("-")
    try:
        value = eu.ascii_int(text[1:] if negative else text)
    except ValueError:
        raise ValueError(f"k must be ASCII digits, got {text!r}") from None
    return integer(-value if negative else value, "k", 1)


def cmd_cover_solve(args: argparse.Namespace) -> int:
    k = None if args.k is None else _read_k(args.k)
    h = cover.hypergraph_from_json(_read_json(args.hypergraph))
    solution = cover.min_cover(h, cover.enumerate_maximal_independent(h))
    sys.stdout.write(f"minimum cover: {solution.k} parts\n")
    _write_parts(solution.parts)
    if k is not None and solution.k > k:
        sys.stdout.write(f"no {k}-cover exists\n")
        return EXIT_STEP_FAILED
    return EXIT_OK


def cmd_cover_refute(args: argparse.Namespace) -> int:
    k = _read_k(args.k)
    h = cover.hypergraph_from_json(_read_json(args.hypergraph))
    refutation = cover.no_k_cover(h, k)
    if refutation.refuted:
        sys.stdout.write(f"no {k}-cover exists (exhaustive search)\n")
        duals = cover.dual_refutation(h, k)
        if duals:
            plural = "" if len(duals) == 1 else "s"
            sys.stdout.write(f"confirmed by {len(duals)} dual weight certificate{plural}\n")
        return EXIT_OK
    sys.stdout.write(f"refutation failed, found a {refutation.counterexample.k}-cover:\n")
    _write_parts(refutation.counterexample.parts)
    return EXIT_STEP_FAILED


def cmd_cover_duals(args: argparse.Namespace) -> int:
    h = cover.hypergraph_from_json(_read_json(args.hypergraph))
    k = cover.min_cover(h, cover.enumerate_maximal_independent(h)).k - 1
    if k < 1:
        reason = "one part covers every node" if k == 0 else "there are no nodes to cover"
        sys.stdout.write(f"nothing to refute: {reason}\n")
        return EXIT_STEP_FAILED
    duals = cover.dual_refutation(h, k)
    if not duals:
        sys.stdout.write(f"no dual weight certificates refute a {k}-cover\n")
        return EXIT_STEP_FAILED
    for cert in duals:
        excluded = "none" if cert.excluded_part is None else sorted(cert.excluded_part)
        sys.stdout.write(
            f"weights ({', '.join(str(w) for w in cert.weights)}) "
            f"bound {cert.bound} excluded {excluded} "
            f"total {cert.total}: verified\n"
        )
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    game = eu.build_eu_game(_load_table(args.members))
    family = certificates.nonseparable_family(game)
    if args.what == "hypergraph":
        payload = cover.hypergraph_to_json(family.hypergraph)
    elif args.what == "maximal-sets":
        maximal = cover.enumerate_maximal_independent(family.hypergraph)
        payload = {"nodes": family.hypergraph.node_count,
                   "sets": [sorted(s) for s in maximal]}
    else:
        records = []
        for edge in family.hypergraph.edges:
            record = {"edge": sorted(edge)}
            record.update(certificates.certificate_to_json(family.certificates[edge]))
            records.append(record)
        payload = {"n": eu.N_MEMBERS, "certificates": records}
    with open(args.path, "w", encoding="utf-8") as fh:
        fh.write(_dump_json(payload))
    sys.stdout.write(f"wrote {args.what} to {args.path}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamedim",
        description="Voting-game dimension machinery and the council lower-bound replay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_members(p: argparse.ArgumentParser) -> None:
        p.add_argument("--members", metavar="CSV", default=None,
                       help="override the bundled member table (index,name,population)")

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", help="replay the full dimension lower-bound argument")
    add_members(p)
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="evaluate one coalition under the council rule")
    p.add_argument("coalition", help="index list like '1,4-7' or a bundled label like L15")
    add_members(p)
    add_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("separate", help="decide weighted separability of an instance file")
    p.add_argument("instance", help="JSON instance with winning_constraints/losing_targets")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("certs", help="certificate utilities")
    certs_sub = p.add_subparsers(dest="certs_command", required=True)
    q = certs_sub.add_parser("check", help="verify a certificate file against the council game")
    q.add_argument("certificate", help="JSON certificate with losing/winning index arrays")
    add_members(q)
    q.set_defaults(func=cmd_certs_check)

    p = sub.add_parser("cover", help="hypergraph cover utilities")
    cover_sub = p.add_subparsers(dest="cover_command", required=True)
    q = cover_sub.add_parser("solve", help="find a minimum cover")
    q.add_argument("hypergraph", help="JSON hypergraph {nodes, edges}")
    q.add_argument("--k", default=None, help="also require a cover of at most K parts")
    q.set_defaults(func=cmd_cover_solve)
    q = cover_sub.add_parser("refute", help="prove that no k-cover exists")
    q.add_argument("hypergraph", help="JSON hypergraph {nodes, edges}")
    q.add_argument("--k", required=True, help="the number of parts to refute")
    q.set_defaults(func=cmd_cover_refute)
    q = cover_sub.add_parser("duals", help="derive dual weights refuting a cover one part short")
    q.add_argument("hypergraph", help="JSON hypergraph {nodes, edges}")
    q.set_defaults(func=cmd_cover_duals)

    p = sub.add_parser("export", help="write bundled artifacts as canonical JSON")
    p.add_argument("what", choices=("hypergraph", "certs", "maximal-sets"))
    p.add_argument("path")
    add_members(p)
    p.set_defaults(func=cmd_export)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """A library warning as one stderr line, without its source location."""
    sys.stderr.write(f"warning: {message}\n")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # Shown as a line even where the environment turns warnings into errors.
        warnings.simplefilter("always")
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except (OSError, ValueError, certificates.CertificateError) as err:
            sys.stderr.write(f"error: {err}\n")
            return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
