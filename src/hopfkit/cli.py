"""Command line front end.

Every command prints a short human-readable report followed by a flat
key=value block, so both people and scripts can consume the output.
Identical invocations produce byte-identical output.

Exit codes: 0 for success, 1 when the mathematics fails (a Hopf axiom
violation, a non-confluent system, an obstruction verdict), 2 for
usage, parse, and input errors.  An antipode whose square is not the
identity is reported, but S^2 = Id is no Hopf axiom, so check exits 0.
"""

import argparse
import functools
import os
import sys

from . import grading, hopf, presfile, subspace
from .errors import (
    AxiomFailure,
    HopfkitError,
    InvalidSetting,
    NoCoproductAttached,
    ParseError,
    PresentationError,
    UnknownBuiltin,
    WindowTooSmall,
)
from .freealg import _one_budget

MATH_EXIT = 1
USAGE_EXIT = 2


class _UsageError(Exception):
    pass


class Report:
    """Human lines first, then the key=value block, all deterministic."""

    def __init__(self):
        self.lines = []
        self.values = []

    def say(self, text=""):
        self.lines.append(text)

    def set(self, key, value):
        self.values.append((key, _fmt(value)))

    def emit(self):
        for line in self.lines:
            print(line)
        if self.values:
            print()
            for key, value in self.values:
                print(f"{key}={value}")


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "unknown"
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


# ----- presentation loading --------------------------------------------------


def _add_source(sub):
    """--builtin and --file, collected in command-line order as (flag, value) pairs."""
    sub.add_argument(
        "--builtin",
        action="append",
        dest="sources",
        default=[],
        type=lambda name: ("builtin", name),
        metavar="NAME",
        help="builtin presentation " + "/".join(presfile.BUILTIN_NAMES),
    )
    sub.add_argument(
        "--file",
        action="append",
        dest="sources",
        type=lambda path: ("file", path),
        metavar="PATH",
        help="presentation file",
    )


def _load_sources(args):
    """The presentations as (label, presentation) pairs, in command-line order."""
    if args.command == "dump-builtin" and [flag for flag, _ in args.sources] != ["builtin"]:
        raise _UsageError("dump-builtin takes exactly one --builtin")
    targets = []
    for flag, value in args.sources:
        if flag == "builtin":
            targets.append((value, presfile.builtin(value)))
        else:
            p = presfile.load_presentation(value)
            targets.append((p.name or os.path.basename(value), p))
    if not targets:
        raise _UsageError("give a presentation with --builtin or --file")
    return targets


def _nonnegative(value, flag):
    if value < 0:
        raise _UsageError(f"{flag} must be nonnegative")
    return value


def _window(p, bound):
    """The --weight-bound given, or the presentation's default window."""
    if bound is not None:
        return _nonnegative(bound, "--weight-bound")
    return p.default_window


# ----- commands ---------------------------------------------------------------


def cmd_check(args, rep, label, p):
    ok = _check_stages(args, rep, label, p)
    rep.set("check.ok", ok)
    return 0 if ok else MATH_EXIT


def _check_stages(args, rep, label, p):
    """Run check's stages in order; False at the first that fails.

    The last stage, S^2 = Id, reports but never fails: it is no Hopf
    axiom.  The theorem that S^2 = Id on every connected graded Hopf
    algebra of finite GK dimension (arXiv 1601.06687) makes a failure a
    certificate instead: a PBW basis on finitely many generators has
    finite GK dimension, so no grading makes the algebra connected graded.
    """
    if args.corrupt:
        if not p.has_coproduct:
            raise _UsageError("--corrupt needs a presentation with a coproduct")
        if "d" not in p.alphabet.names:
            raise _UsageError("--corrupt drop-dd-correction needs a generator named d")
        p = hopf.drop_correction(p, "d")
        rep.say(f"checking {label} with delta(d) dropped")
    else:
        rep.say(f"checking {label}")
    v = p.validation
    rep.say(
        f"validation: {v.classification}, {v.relation_count} relations "
        f"({v.nontrivial_relations} nontrivial)"
    )
    for message in v.messages:
        rep.say(f"  {message}")
    rep.set("check.classification", v.classification)
    conf = p.confluence()
    rep.set("check.triples", conf.triples_checked)
    rep.set("check.confluent", conf.ok)
    if not conf.ok:
        triple, residual = conf.residuals[0]
        rep.say(f"confluence: FAIL on overlap {' '.join(triple)}; residual {residual}")
        return False
    rep.say(f"confluence: {conf.triples_checked} overlap triples agree")
    if not p.has_coproduct:
        rep.say("coproduct: none attached, algebra checks only")
        rep.set("check.coproduct", "none")
        return True
    bound = _window(p, args.weight_bound)
    compat = hopf.check_relation_compatibility(p)
    rep.set("compat.relations", len(compat.checks))
    rep.set("compat.ok", compat.ok)
    if not compat.ok:
        rep.say("coproduct compatibility: FAIL")
        for chk in compat.failures:
            rep.say(f"  {chk.label}: residual {chk.residual}")
        return False
    rep.say(f"coproduct respects all {len(compat.checks)} relations")
    coassoc = hopf.check_coassociativity(p, seed=args.seed)
    rep.set("coassoc.generators", len(coassoc.generators))
    rep.set("coassoc.sampled", len(coassoc.monomials))
    rep.set("coassoc.ok", coassoc.ok)
    if not coassoc.ok:
        rep.say("coassociativity: FAIL")
        for gen in coassoc.generators:
            if not gen.ok:
                rep.say(f"  generator {gen.name}: {gen.left} != {gen.right}")
        for mono, ok in coassoc.monomials:
            if not ok:
                rep.say(f"  monomial {p.render_mono(mono)}")
        return False
    rep.say(
        f"coassociativity holds on generators and {len(coassoc.monomials)} "
        f"sampled monomials (seed {args.seed})"
    )
    counit = hopf.check_counit(p)
    rep.set("counit.ok", counit.ok)
    if not counit.ok:
        rep.say("counit laws: FAIL")
        for lab, residual in counit.relation_checks:
            if residual:
                rep.say(f"  {lab}: epsilon residual {residual}")
        return False
    rep.say("counit laws hold")
    try:
        table = hopf.solve_antipode(p, bound)
    except AxiomFailure as failure:
        # a guard: no input reaches it, since the stages above proved Delta an
        # algebra map, coassociative and counital, and weight-lowering legs make
        # H connected, so the antipode exists (see hopf.solve_antipode)
        rep.say(f"antipode axiom ({failure.side}): FAIL on {failure.monomial}")
        rep.say(f"  residual {failure.residual}")
        rep.set("antipode.ok", False)
        return False
    rep.say(
        f"antipode solved; two-sided axiom verified on "
        f"{table.monomials_checked} monomials up to weight {bound}"
    )
    rep.set("antipode.ok", True)
    rep.set("antipode.checked", table.monomials_checked)
    involutive = hopf.check_involutive_antipode(p, table)
    rep.set("involutive.ok", involutive.ok)
    if involutive.ok:
        rep.say(f"antipode is an involution on {involutive.checked} monomials")
        return True
    mono, twice = involutive.failures[0]
    rep.say(f"antipode square: S(S({p.render_mono(mono)})) = {twice}, not the identity")
    rep.say("  S^2 = Id is no Hopf axiom, so check passes; but it holds on every connected")
    rep.say("  graded Hopf algebra of finite GK dimension, and a PBW basis on finitely many")
    rep.say("  generators gives finite GK dimension, so no grading makes this algebra")
    rep.say("  connected graded")
    return True


def cmd_nf(args, rep, label, p):
    p.require_confluent()
    elem = presfile.parse_expression(args.expr, p.alphabet)
    result = p.normal_form(elem)
    rep.say(f"normal form in {label}: {result}")
    rep.set("nf.result", result)
    rep.set("nf.terms", len(result.terms))
    rep.set("nf.weight", result.max_weight())
    return 0


def cmd_hilbert(args, rep, label, p):
    series = grading.hilbert_series(p, _nonnegative(args.degree, "--degree"))
    rep.say(f"series of {label}: {series}")
    rep.set("hilbert.series", series.coeffs)
    exponents = grading.factor_series(series)
    rep.say(f"factorization: {exponents.product_form()}")
    rep.set("hilbert.exponents", exponents.entries)
    gk = grading.gk_dimension(exponents) if grading.series_settles(p, args.degree) else None
    if gk is None:
        rep.say("growth: not settled inside this degree range")
    else:
        rep.say(f"growth: polynomial of dimension {gk}")
    rep.set("hilbert.gk", gk)
    return 0


def cmd_truncate(args, rep, label, p):
    bound = _window(p, args.weight_bound)
    trunc = subspace.truncation_algebra(p, _nonnegative(args.power, "--power"), bound)
    center = trunc.center()
    rep.say(
        f"truncation of {label} at power {args.power}, window {bound}: "
        f"dimension {trunc.dim}"
    )
    rep.say("basis: " + " ".join(p.render_mono(m) for m in trunc.basis))
    rep.say(f"center dimension: {center.dim}")
    rep.say("center basis: " + "; ".join(str(v) for v in center.basis))
    rep.set("truncation.dim", trunc.dim)
    rep.set("truncation.basis", tuple(p.render_mono(m) for m in trunc.basis))
    rep.set("center.dim", center.dim)
    return 0


def cmd_antipode(args, rep, label, p):
    bound = _window(p, args.weight_bound)
    table = hopf.solve_antipode(p, bound)
    rep.say(f"antipode of {label}, verified up to weight {bound}:")
    for gi, name in enumerate(p.alphabet.names):
        rep.say(f"  S({name}) = {table.by_gen[gi]}")
        rep.set(f"antipode.{name}", table.by_gen[gi])
    rep.set("antipode.checked", table.monomials_checked)
    return 0


def _require_hopf_axioms(p):
    """Refuse a coproduct that breaks a relation or is not coassociative.

    The coradical chain's shortcuts are proved for Hopf algebras only, so
    primitives, coradical and signature first run check's compatibility
    stage and its coassociativity on the generators, which with Delta an
    algebra map gives coassociativity on every monomial.
    """
    compat = hopf.check_relation_compatibility(p)
    if not compat.ok:
        raise HopfkitError(f"the coproduct breaks relation {compat.failures[0].label}")
    for gen in hopf.check_coassociativity(p, samples=0).generators:
        if not gen.ok:
            raise HopfkitError(f"the coproduct is not coassociative on generator {gen.name}")


def cmd_primitives(args, rep, label, p):
    bound = _window(p, args.weight_bound)
    _require_hopf_axioms(p)
    space = subspace.primitive_space(p, bound)
    basis = tuple(str(b) for b in space.basis())
    rep.say(f"primitives of {label} up to weight {bound}: dimension {space.dim}")
    for b in basis:
        rep.say(f"  {b}")
    rep.set("primitives.dim", space.dim)
    rep.set("primitives.basis", basis)
    return 0


def cmd_coradical(args, rep, label, p):
    bound = _window(p, args.weight_bound)
    _require_hopf_axioms(p)
    levels = subspace.coradical_levels(p, bound)
    rep.say(
        f"coradical filtration of {label} up to weight {bound}: "
        + " < ".join(str(d) for d in levels.dims)
    )
    rep.set("coradical.dims", levels.dims)
    rep.set("coradical.levels", levels.levels)
    return 0


def cmd_signature(args, rep, label, p):
    bound = _window(p, args.weight_bound)
    _require_hopf_axioms(p)
    sig = subspace.signature(p, bound)
    rep.say(f"signature of {label} up to weight {bound}: {sig}")
    if sig.complete:
        rep.say(f"complete: all {sig.gk} expected entries found")
    elif sig.gk is None:
        rep.say("completeness unknown: growth dimension not settled")
    else:
        rep.say(f"incomplete: {len(sig.entries)} of {sig.gk} entries inside window")
    rep.set("signature.entries", sig.entries)
    rep.set("signature.complete", sig.complete)
    rep.set("signature.gk", sig.gk)
    return 0


def cmd_gr(args, rep, label, p):
    graded = grading.associated_graded(p)
    if graded is p:
        rep.say(f"{label} is already weight-graded; unchanged")
        rep.set("gr.changed", False)
    else:
        rep.say(f"associated graded of {label}:")
        for line in presfile.dump_presentation(graded).splitlines():
            rep.say(f"  {line}")
        rep.set("gr.changed", True)
    rep.set("gr.classification", graded.validation.classification)
    return 0


def cmd_obstruct(args, rep, label, p):
    if args.degree is not None:
        _nonnegative(args.degree, "--degree")
    verdict = grading.hopf_obstruction(p, args.degree)
    rep.say(f"{label}: {verdict.message}")
    rep.set("obstruct.code", verdict.code)
    rep.set("obstruct.obstructed", verdict.obstructed)
    return MATH_EXIT if verdict.obstructed else 0


def cmd_compare_centers(args, rep, targets):
    """Truncated center dimensions side by side.

    They separate the presentations only when no two are equal; with
    three or more, each dimension that some share is named with them.
    """
    if len(targets) < 2:
        raise _UsageError("compare-centers needs at least two presentations")
    _nonnegative(args.power, "--power")
    bounds = [_nonnegative(b, "--weight-bound") for b in args.weight_bound or []] or [None]
    if len(bounds) == 1:
        bounds = bounds * len(targets)
    elif len(bounds) != len(targets):
        raise _UsageError(
            "give one --weight-bound, or exactly one per presentation"
        )
    dims = []
    for (label, p), bound in zip(targets, bounds):
        bound = _window(p, bound)
        trunc = subspace.truncation_algebra(p, args.power, bound)
        center = trunc.center()
        dims.append(center.dim)
        rep.say(
            f"{label}: center dimension {center.dim} "
            f"(truncation dimension {trunc.dim}, power {args.power}, "
            f"window {bound})"
        )
    separated = len(set(dims)) == len(dims)
    if separated:
        rep.say("the truncated centers separate these presentations")
    else:
        rep.say("the truncated centers do not separate these presentations")
    if len(targets) > 2:
        for dim in dict.fromkeys(dims):
            sharing = [label for (label, _), d in zip(targets, dims) if d == dim]
            if len(sharing) > 1:
                rep.say(f"  same center dimension {dim}: {', '.join(sharing)}")
    for (label, _), dim in zip(targets, dims):
        rep.set(f"center.{label}", dim)
    rep.set("compare.separated", separated)
    return 0


def cmd_dump_builtin(args, rep, label, p):
    sys.stdout.write(presfile.dump_presentation(p))
    return 0


# ----- parser -----------------------------------------------------------------


@functools.cache  # parse_args leaves it as it was: an append copies its default first
def build_parser():
    parser = argparse.ArgumentParser(
        prog="hopfkit",
        description="exact computations in finitely presented algebras "
        "with straightening relations and optional coproducts",
    )
    sub = parser.add_subparsers(dest="command")

    def add(name, func, help_text, power=False, window=False):
        sp = sub.add_parser(name, help=help_text)
        _add_source(sp)
        if power:
            sp.add_argument("--power", type=int, required=True)
        if window:
            sp.add_argument("--weight-bound", type=int, default=None)
        sp.set_defaults(func=func)
        return sp

    sp = add("check", cmd_check, "run the full axiom pipeline", window=True)
    sp.add_argument("--seed", type=int, default=0, help="coassociativity sample seed")
    sp.add_argument(
        "--corrupt",
        choices=["drop-dd-correction"],
        default=None,
        help="damage the coproduct before checking",
    )

    sp = add("nf", cmd_nf, "normal form of an expression")
    sp.add_argument("--expr", required=True, help="free expression, e.g. 'b a a'")

    sp = add("hilbert", cmd_hilbert, "weight series and its factorization")
    sp.add_argument("--degree", type=int, default=10)

    add("truncate", cmd_truncate, "quotient by a power of the augmentation ideal",
        power=True, window=True)
    add("antipode", cmd_antipode, "solve and verify the antipode", window=True)
    add("primitives", cmd_primitives, "basis of the primitive elements", window=True)
    add("coradical", cmd_coradical, "coradical filtration dimensions", window=True)
    add("signature", cmd_signature, "level multiset of non-product growth", window=True)

    add("gr", cmd_gr, "associated weight-graded presentation")

    sp = add("obstruct", cmd_obstruct, "check for structural obstructions")
    sp.add_argument("--degree", type=int, default=None)

    sp = add("compare-centers", cmd_compare_centers, "compare truncated center dimensions",
             power=True)
    sp.add_argument("--weight-bound", type=int, action="append", default=None)

    add("dump-builtin", cmd_dump_builtin, "print a builtin in the file format")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    rep = Report()
    try:
        with _one_budget():  # HOPFKIT_MAX_TERMS is read once per command
            targets = _load_sources(args)
            if args.func is cmd_compare_centers:
                code = cmd_compare_centers(args, rep, targets)
            elif len(targets) > 1:
                raise _UsageError("this command takes exactly one presentation")
            else:
                code = args.func(args, rep, *targets[0])
    except (
        _UsageError,
        OSError,
        InvalidSetting,
        ParseError,
        UnknownBuiltin,
        WindowTooSmall,
        PresentationError,
        NoCoproductAttached,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_EXIT
    except HopfkitError as err:
        print(f"failure: {err}", file=sys.stderr)
        return MATH_EXIT
    rep.emit()
    return code


if __name__ == "__main__":
    sys.exit(main())
