"""Batch command line: curve specs and rep specs in, certificates out.

Commands: pi1, cover, free, domain, descend, strat, square, hull, rep,
selftest.  Reports are deterministic for fixed inputs and seed; --format
json emits one canonical JSON object.  A report carries what its run
computed, and its `config` echoes the run's inputs, `max_len` and `seed`;
each spec carries its own characteristic p.  The exit code is 0 exactly when
every check in the report passed, 1 when one failed, and 2 on malformed
input.  A module imports a layer inside a function only to skip loading it
or to break a cycle, so each command loads only the layers it runs.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from collections import Counter

from . import io as spec_io
from .errors import (
    BadElementIndex,
    BadFactorIndex,
    NodalCoverError,
    PresentationMismatch,
    ScopeMismatch,
    SpecParseError,
    TrivialW,
)


def _emit(args, report: dict, ok: bool) -> int:
    report = dict(report)
    report["config"] = {"max_len": args.max_len, "seed": args.seed}
    report["ok"] = ok
    if args.out_format == "json":
        print(spec_io.dumps_report(report))
    else:
        _print_text(report)
    return 0 if ok else 1


def _print_text(obj, indent: int = 0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _print_text(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                _print_text(v, indent + 1)
            else:
                print(f"{pad}- {v}")


WITNESS_LEN = 4  # `domain` lists a coverage witness per component up to this length

# `domain`, `cover` and `descend` build entries that grow with |G_1 x ... x G_N|
# or exponentially in --max-len, so each count is worked out from the rep and
# refused past this budget before anything is built.
MAX_REPORT_ENTRIES = 100_000


def _check_budget(entries: int, what: str) -> None:
    if entries > MAX_REPORT_ENTRIES:
        raise SpecParseError(f"{what} would list up to {entries} entries, "
                             f"above the budget of {MAX_REPORT_ENTRIES}")


def _domain_entries(rep, max_len: int) -> int:
    """Bound on a `domain` report's entries: per factor j, |G_1 x ... x G_N|
    (1 + r) core components with |G_j| boundary lifts per node end on curve
    component j, then the witnesses, counted exactly by the freeness walk
    once the rest, which bounds its states, is within budget."""
    from .covering import certify_free_action, node_lifts

    sig = rep.sig
    ends = Counter(j for _, ja, jb, _ in node_lifts(sig, rep.presentation) for j in (ja, jb))
    bound = math.prod(G.order for G in sig.factors) * (1 + sig.r) * sum(
        1 + ends[j] * G.order for j, G in enumerate(sig.factors))
    _check_budget(bound, "domain")
    return bound + certify_free_action(sig, min(max_len, WITNESS_LEN)).components


def _descend_entries(sig, max_len: int) -> int:
    """Entries `descend` builds: the cocycle check's twists, one per normal
    form, and the lattice assignment's components, each up to the shorter
    of its bound and max_len, counted from states that carry no group
    element.  A component Y^j_s is counted through a word s that does not
    end in a j-factor letter, as `certify_free_action` counts it."""
    from .descent import COCYCLE_LEN, LATTICE_LEN
    from .groups import iter_grade_states

    grades = list(iter_grade_states(sig, min(max_len, COCYCLE_LEN), None, lambda *_: None))
    lattice_grades = grades[:min(max_len, LATTICE_LEN) + 1]
    return sum(sum(grade.values()) for grade in grades) + sum(
        count * (sig.num_factors - (last >= sig.r))
        for grade in lattice_grades for (last, _, _), count in grade.items())


# `free` and `square` count the normal forms up to --max-len from states, and
# a count has at most L*log10(alphabet) + 1 digits.  At L = 256 that stays far
# under the 4,300 digits Python will convert to a string for any spec within
# io.MAX_GROUP_ORDER (it would take an alphabet of 10^16 letters), while each
# grade's bigint sums grow dearer with L.
MAX_WORD_LEN = 256


def _check_word_len(max_len: int, what: str) -> None:
    if max_len > MAX_WORD_LEN:
        raise SpecParseError(f"{what} takes --max-len up to {MAX_WORD_LEN}, not {max_len}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_pi1(args) -> int:
    from .curves import betti_rank, pi1_presentation

    curve = spec_io.load_curve(args.curve)
    pres = pi1_presentation(curve)
    report = {
        "command": "pi1",
        "rank_r": pres.r,
        "betti": betti_rank(curve),
        "components": list(curve.component_ids),
        "base_component": pres.base_component,
        "spanning_tree": list(pres.spanning_tree),
        "loop_nodes": {f"z{i + 1}": nid for i, nid in enumerate(pres.loop_nodes)},
        "paths": {nid: {"sigma": list(sig_p), "tau": list(tau_p)}
                  for nid, (sig_p, tau_p) in pres.path_data},
    }
    return _emit(args, report, True)


def cmd_cover(args) -> int:
    from .covering import build_finite_cover

    rep = spec_io.load_rep(args.rep)
    sig = rep.sig
    _check_budget(math.prod(G.order for G in sig.factors)
                  * (sig.r + sum(len(G.generators) for G in sig.factors)), "cover")
    cover = build_finite_cover(sig)
    report = {
        "command": "cover",
        "fiber_size": len(cover.fiber),
        "generator_actions": {name: list(perm) for name, perm in cover.actions},
    }
    return _emit(args, report, True)


def cmd_free(args) -> int:
    from .covering import certify_free_action

    _check_word_len(args.max_len, "free")
    rpt = certify_free_action(spec_io.load_rep(args.rep).sig, args.max_len)
    report = {
        "command": "free",
        "signature": rpt.sig_description,
        "kernel_words": rpt.kernel_words,
        "components": rpt.components,
        "full_group_witnesses": list(rpt.full_group_witnesses),
    }
    return _emit(args, report, True)


def cmd_domain(args) -> int:
    from .covering import cover_witness, enumerate_components, fundamental_domain
    from .groups import first_kernel_word, parse_word

    rep = spec_io.load_rep(args.rep)
    _check_budget(_domain_entries(rep, args.max_len), "domain")
    sig = rep.sig
    if args.word:
        try:
            w = parse_word(sig, args.word)
        except (ValueError, BadFactorIndex, BadElementIndex) as exc:
            raise SpecParseError(f"--word {args.word!r}: {exc}") from exc
    else:
        w = first_kernel_word(sig)
        if w is None:
            raise SpecParseError("ker alpha is trivial, so no kernel word exists: "
                                 "the whole cover is its own domain")
    try:
        dom = fundamental_domain(sig, w, rep.presentation)
    except TrivialW as exc:
        raise SpecParseError(f"--word {args.word!r}: {exc}") from exc
    witnesses = []
    for target in enumerate_components(sig, min(args.max_len, WITNESS_LEN)):
        t = cover_witness(dom, target)
        witnesses.append({"target": str(target), "translate": str(t)})
    report = {
        "command": "domain",
        "word": str(w),
        "core": [str(c) for c in dom.core],
        "core_size": len(dom.core),
        "size_bound": dom.size_bound,
        "boundary": [{"node": nid, "lift": str(u), "inside": str(a), "outside": str(b)}
                     for nid, u, a, b in dom.boundary],
        "coverage_witnesses": witnesses,
    }
    return _emit(args, report, True)


def cmd_descend(args) -> int:
    from .descent import (COCYCLE_LEN, LATTICE_LEN, check_cocycle, datum_from_rep,
                          hom_cocycle, integralize)

    rep = spec_io.load_rep(args.rep)
    _check_budget(_descend_entries(rep.sig, args.max_len), "descend")
    datum = datum_from_rep(rep)
    cert = check_cocycle(datum, min(args.max_len, COCYCLE_LEN))
    end_basis = hom_cocycle(datum, datum)
    assignment = integralize(datum.restricted(), max_len=min(args.max_len, LATTICE_LEN))
    report = {
        "command": "descend",
        "cocycle": {"pairs": cert.pairs_checked, "max_len": cert.max_len},
        "hom_dims": {"end": len(end_basis)},
        "lattice_assignment": {
            "orbits": len(assignment.orbit_reps),
            "components": len(assignment.components),
        },
    }
    return _emit(args, report, cert.passed)


def cmd_strat(args) -> int:
    from .stratified import K_RELATIVE, S_RELATIVE, fdiv_from_rep, hom_fdiv, tensor_fdiv

    rep1 = spec_io.load_rep(args.rep1)
    mode = K_RELATIVE if args.mode == "K" else S_RELATIVE
    if args.action == "tensor" and not args.rep2:
        raise SpecParseError("strat tensor needs two rep files")
    rep2 = spec_io.load_rep(args.rep2) if args.rep2 else rep1
    op = hom_fdiv if args.action == "hom" else tensor_fdiv
    try:
        out = op(fdiv_from_rep(rep1, mode), fdiv_from_rep(rep2, mode))
    except (PresentationMismatch, ScopeMismatch) as exc:
        # reps that cannot be paired are malformed input, not a failed certificate
        raise SpecParseError(f"{args.rep1} and {args.rep2}: {exc}") from exc
    if args.action == "hom":
        report = {
            "command": "strat hom",
            "mode": out.mode,
            "scalar_field": out.scalar_field,
            "dimension": out.dimension,
            "basis": [b.to_strings() for b in out.basis],
        }
        return _emit(args, report, True)
    tensored, cert = out
    report = {
        "command": "strat tensor",
        "mode": mode,
        "rank": tensored.generator.rank,
        "certificate": {"generators_checked": cert.generators_checked},
    }
    return _emit(args, report, cert.passed)


def cmd_square(args) -> int:
    from .specialize import commuting_square_check

    _check_word_len(args.max_len, "square")
    curve = spec_io.load_curve(args.curve)
    fq = spec_io.load_fq(args.fq, curve)
    try:
        cert = commuting_square_check(fq, fq.presentation, max_len=args.max_len)
        report = {
            "command": "square",
            "result": "PASS",
            "words_checked": cert.words_checked,
            "elements_compared": cert.elements_compared,
        }
        return _emit(args, report, True)
    except NodalCoverError as exc:
        report = {"command": "square", "result": "FAIL", "reason": str(exc)}
        return _emit(args, report, False)


def cmd_hull(args) -> int:
    from .hopf import QuotientTower, function_hopf, tower_hull

    if len(args.groups) == 1 and not args.tower:
        G = spec_io.load_group(args.groups[0])
        algebra = function_hopf(G)
        report = {
            "command": "hull",
            "group": G.name,
            "dimension": algebra.dim,
            "cocommutative": algebra.is_cocommutative(),
        }
        return _emit(args, report, True)
    groups = [spec_io.load_group(g) for g in args.groups]
    maps = []
    for low, high in zip(groups, groups[1:]):
        if high.order % low.order:
            raise SpecParseError(
                f"tower orders must divide: each level reduces x to x mod |low|, "
                f"and |{low.name}| = {low.order} does not divide |{high.name}| = {high.order}")
        maps.append([x % low.order for x in range(high.order)])
    try:
        tower = QuotientTower.build(groups, maps)
    except ValueError as exc:
        raise SpecParseError(f"tower {' -> '.join(args.groups)}: {exc}") from exc
    rpt = tower_hull(tower)
    report = {
        "command": "hull",
        "tower": [G.name for G in groups],
        "dimensions": list(rpt.dimensions),
        "duals_injective": rpt.injective,
    }
    return _emit(args, report, rpt.injective)


def cmd_rep(args) -> int:
    from .descent import datum_from_rep, hom_cocycle

    rep = spec_io.load_rep(args.rep)
    datum = datum_from_rep(rep)
    end = hom_cocycle(datum, datum)
    report = {
        "command": "rep check",
        "rank": rep.rank,
        "prime": rep.field.p,
        "z_generators": rep.presentation.r,
        "factor_groups": [G.name for G in rep.factor_groups],
        "intertwiner_dims": {"end": len(end)},
    }
    return _emit(args, report, True)


def cmd_selftest(args) -> int:
    from .selfcheck import run_all

    echo = print if args.out_format == "text" else None
    results = run_all(seed=args.seed, echo=echo)
    ok = all(r.passed and r.in_time for r in results)
    report = {
        "command": "selftest",
        "criteria": [{
            "criterion": r.criterion,
            "name": r.name,
            "passed": r.passed,
            "within_time_bound": r.in_time,
            "detail": r.detail,
        } for r in results],
        "all_passed": ok,
    }
    if args.out_format == "json":
        return _emit(args, report, ok)
    print(f"selftest: {'PASS' if ok else 'FAIL'} "
          f"({sum(r.passed for r in results)}/{len(results)} criteria)")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and then shared: `parse_args` keeps no
    state between calls and returns a fresh namespace each time."""
    ap = argparse.ArgumentParser(
        prog="nodalcover",
        description="Exact covering-space combinatorics and descent data for nodal curves.")
    ap.add_argument("--max-len", type=int, default=6, dest="max_len",
                    help="word-length truncation of the checks, echoed in every report")
    ap.add_argument("--seed", type=int, default=42,
                    help="seed for the randomized checks of selftest")
    ap.add_argument("--format", choices=("text", "json"), default="text",
                    dest="out_format")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pi1", help="presentation and cycle rank of a curve")
    p.add_argument("curve")
    p.set_defaults(fn=cmd_pi1)

    p = sub.add_parser("cover", help="finite cover and deck group of a rep")
    p.add_argument("rep")
    p.set_defaults(fn=cmd_cover)

    p = sub.add_parser("free", help="freeness certificate for a rep's signature")
    p.add_argument("rep")
    p.set_defaults(fn=cmd_free)

    p = sub.add_parser("domain", help="fundamental domain and witness table")
    p.add_argument("rep")
    p.add_argument("--word", help="kernel word like 'z1' (default: the shortlex-first one)")
    p.set_defaults(fn=cmd_domain)

    p = sub.add_parser("descend", help="cocycle check, hom dims, lattice assignment")
    p.add_argument("rep")
    p.set_defaults(fn=cmd_descend)

    p = sub.add_parser("strat", help="divided-sequence hom and tensor")
    p.add_argument("action", choices=("hom", "tensor"))
    p.add_argument("rep1")
    p.add_argument("rep2", nargs="?")
    p.add_argument("--mode", choices=("S", "K"), default="K")
    p.set_defaults(fn=cmd_strat)

    p = sub.add_parser("square", help="compare both routes to the finite twist data")
    p.add_argument("fq")
    p.add_argument("curve")
    p.set_defaults(fn=cmd_square)

    p = sub.add_parser("hull", help="function Hopf algebra / quotient tower report")
    p.add_argument("groups", nargs="+")
    p.add_argument("--tower", action="store_true",
                   help="treat the groups as a tower with reduction maps")
    p.set_defaults(fn=cmd_hull)

    p = sub.add_parser("rep", help="validate a rep spec")
    p.add_argument("action", choices=("check",))
    p.add_argument("rep")
    p.set_defaults(fn=cmd_rep)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(fn=cmd_selftest)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.max_len < 2:
            raise SpecParseError("--max-len must be at least 2")
        return args.fn(args)
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NodalCoverError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
