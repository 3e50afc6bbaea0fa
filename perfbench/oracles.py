"""Answers computed apart from hopfkit, and the checks that use them.

Nothing here imports hopfkit. Expected values come from closed forms
(basis counts from the expansion of prod 1/(1-t^w), binomials), from the
paper's stated invariants, and from a small leftmost-first reference
straightener over the benchmark's own relation data. A confluent system
has one normal form (Bergman's diamond lemma), so the reference and the
program must agree word for word.

`self_check` feeds every oracle one deliberately wrong answer and
confirms it is caught.
"""

from fractions import Fraction as F
from itertools import combinations_with_replacement
from math import comb

from inputs import IDEAL_DEGREES, pres_j, pres_l, pres_u_n5


# ----- closed forms -----------------------------------------------------------


def basis_count(weights, bound):
    """Ordered monomials of weight <= bound: the coefficients of
    prod 1/(1 - t^w), summed up to the bound."""
    counts = [1] + [0] * bound
    for w in weights:
        for d in range(w, bound + 1):
            counts[d] += counts[d - w]
    return sum(counts)


def low_monomials(degrees, k):
    """Nonempty monomials (sorted index words) of filtered degree < k."""
    found = []
    for length in range(1, k):
        for word in combinations_with_replacement(range(len(degrees)), length):
            if sum(degrees[i] for i in word) < k:
                found.append(word)
    return found


def render(names, word):
    """hopfkit's rendering of a monomial: names juxtaposed, runs as powers."""
    parts = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        parts.append(names[word[i]] + (f"^{j - i}" if j - i > 1 else ""))
        i = j
    return "".join(parts)


# ----- reference straightener ---------------------------------------------------


class Reference:
    """Leftmost-first straightening over a PresData, memoised per word."""

    def __init__(self, data):
        self.rels = data.rels
        self.size = data.size
        self.memo = {}

    def word_nf(self, word):
        """Normal form of a word as {sorted word: coeff}."""
        hit = self.memo.get(word)
        if hit is not None:
            return hit
        for i in range(len(word) - 1):
            if word[i] > word[i + 1]:
                break
        else:
            self.memo[word] = {word: F(1)}
            return self.memo[word]
        hi, lo = word[i], word[i + 1]
        q, tail = self.rels.get((hi, lo), (F(1), {}))
        pre, post = word[:i], word[i + 2:]
        out = {}
        for w, c in [(pre + (lo, hi) + post, q)] + [(pre + t + post, c) for t, c in tail.items()]:
            for m, d in self.word_nf(w).items():
                new = out.get(m, 0) + c * d
                if new:
                    out[m] = new
                else:
                    out.pop(m, None)
        self.memo[word] = out
        return out

    def exponents(self, word):
        """Normal form keyed by exponent vectors, as hopfkit reports it."""
        out = {}
        for m, c in self.word_nf(word).items():
            expo = [0] * self.size
            for i in m:
                expo[i] += 1
            out[tuple(expo)] = c
        return out


def qplane_nf(q, word):
    """y x = q x y: a word straightens to q^(inversions) x^i y^j."""
    ys = inversions = 0
    for letter in word:
        if letter == 1:
            ys += 1
        else:
            inversions += ys
    return {(len(word) - ys, ys): F(q) ** inversions}


def truncation_center_dim(data, degrees, k):
    """Center of the augmentation part of A/I^k, by exact elimination.

    Valid where I^k is spanned by the monomials of filtered degree >= k,
    as in U_n5, whose relations are homogeneous in that degree; the
    projection to A/I^k then drops those monomials.
    """
    ref = Reference(data)
    basis = low_monomials(degrees, k)

    def project(word):
        return {m: c for m, c in ref.word_nf(word).items() if sum(degrees[i] for i in m) < k}

    rows = {}
    rank = 0
    for b in basis:
        vec = {}
        for g in range(data.size):
            for sign, word in ((1, b + (g,)), (-1, (g,) + b)):
                for m, c in project(word).items():
                    key = (g, m)
                    new = vec.get(key, 0) + sign * c
                    if new:
                        vec[key] = new
                    else:
                        vec.pop(key, None)
        while vec:
            pivot = min(vec)
            row = rows.get(pivot)
            if row is None:
                rows[pivot] = {key: c / vec[pivot] for key, c in vec.items()}
                rank += 1
                break
            factor = vec[pivot]
            for key, c in row.items():
                new = vec.get(key, 0) - factor * c
                if new:
                    vec[key] = new
                else:
                    vec.pop(key, None)
    return len(basis) - rank


# ----- command specifications -------------------------------------------------


class CliSpec:
    """A CLI invocation and everything its output must show.

    rc: exit code. kv: exact key=value pairs. lines: exact report lines.
    props: (description, predicate on the key=value map) pairs, with
    example: key=values that satisfy them, for the self-check.
    """

    def __init__(self, label, kind, argv, rc=0, kv=None, lines=(), props=(), example=None,
                 known_fault=False):
        self.label = label
        self.kind = kind
        self.argv = argv
        self.rc = rc
        self.kv = kv or {}
        self.lines = tuple(lines)
        self.props = tuple(props)
        self.example = example or {}
        self.known_fault = known_fault


def parse_output(text):
    lines = text.splitlines()
    kv = {}
    for line in lines:
        key, sep, value = line.partition("=")
        if sep and key and " " not in key:
            kv[key] = value
    return lines, kv


def check_cli(spec, rc, text):
    """Problems with one CLI answer; empty when it is right."""
    lines, kv = parse_output(text)
    problems = []
    if rc != spec.rc:
        problems.append(f"exit code {rc}, expected {spec.rc}")
    for key, value in spec.kv.items():
        if kv.get(key) != value:
            problems.append(f"{key}={kv.get(key)}, expected {value}")
    for line in spec.lines:
        if line not in lines:
            problems.append(f"missing line {line!r}")
    for description, holds in spec.props:
        try:
            ok = holds(kv)
        except (KeyError, ValueError, IndexError):
            ok = False
        if not ok:
            problems.append(f"fails: {description}")
    return problems


def _ints(value):
    return [int(v) for v in value.split(",")]


def check_j_specs():
    """check J at window 9, whose antipode solve-and-verify loop makes
    ~118k multiply calls on small, heavily repeated monomial products, and
    the corrupted-coproduct negative control, which must fail."""
    j = pres_j()
    n = j.size
    checked = basis_count(j.weights, 9)
    common = {"check.triples": str(comb(n, 3)), "check.confluent": "true", "compat.relations": str(comb(n, 2))}
    full = dict(common)
    full.update({
        "check.classification": "weight-graded" if j.graded() else "filtered",
        "compat.ok": "true",
        "coassoc.generators": str(n),
        "coassoc.sampled": "20",
        "coassoc.ok": "true",
        "counit.ok": "true",
        "antipode.ok": "true",
        "antipode.checked": str(checked),
        "involutive.ok": "true",
        "check.ok": "true",
    })
    broken = dict(common, **{"compat.ok": "false", "check.ok": "false"})
    return [
        CliSpec("check J 9", "check", ["check", "--builtin", "J", "--weight-bound", "9"], kv=full),
        CliSpec("check J corrupt", "control", ["check", "--builtin", "J", "--corrupt", "drop-dd-correction"],
                rc=1, kv=broken),
    ]


def filtration_specs():
    """The coradical chain and primitives (sparse exact elimination),
    the signature (dense multi-term products), truncations and centers,
    and one truncation the program is known to get wrong."""
    j, l, u = pres_j(), pres_l(), pres_u_n5()
    j_top = basis_count(j.weights, 9)
    # J's primitives are a, b, c and c^3 - 3d (paper); scalars add one
    j_props = [
        ("coradical starts at the scalars", lambda kv: _ints(kv["coradical.dims"])[0] == 1),
        ("level 1 is scalars plus 4 primitives", lambda kv: _ints(kv["coradical.dims"])[1] == 5),
        (f"top level is the whole window ({j_top})", lambda kv: _ints(kv["coradical.dims"])[-1] == j_top),
        ("dimensions strictly increase", lambda kv: all(
            a < b for a, b in zip(_ints(kv["coradical.dims"]), _ints(kv["coradical.dims"])[1:]))),
        ("levels = len(dims) - 1", lambda kv: int(kv["coradical.levels"]) == len(_ints(kv["coradical.dims"])) - 1),
    ]
    # U_n5 is generated by primitives: level n holds every monomial of
    # degree <= n, so its dimension is sum_{k<=n} C(k+4, 4)
    u_dims = [sum(comb(k + 4, 4) for k in range(n + 1)) for n in range(8)]
    u_deg = IDEAL_DEGREES["U_n5"]
    trunc6 = low_monomials(u_deg, 6)
    trunc6.sort(key=lambda w: (u.weight(w), w))
    l_deg = IDEAL_DEGREES["L"]
    return [
        CliSpec("coradical J 9", "coradical", ["coradical", "--builtin", "J", "--weight-bound", "9"], props=j_props,
                example={"coradical.dims": f"1,5,17,{j_top}", "coradical.levels": "3"}),
        CliSpec("primitives J 10", "primitives", ["primitives", "--builtin", "J", "--weight-bound", "10"],
                kv={"primitives.dim": "4", "primitives.basis": "a,b,c,c^3 - 3d"}),
        CliSpec("coradical U_n5 7", "coradical", ["coradical", "--builtin", "U_n5", "--weight-bound", "7"],
                kv={"coradical.dims": ",".join(map(str, u_dims)), "coradical.levels": "7"}),
        CliSpec("signature L 9", "signature", ["signature", "--builtin", "L", "--weight-bound", "9"],
                kv={"signature.entries": "1,1,1,2,2", "signature.complete": "true", "signature.gk": str(l.size)}),
        CliSpec("truncate U_n5 6 8", "truncate",
                ["truncate", "--builtin", "U_n5", "--power", "6", "--weight-bound", "8"],
                kv={"truncation.dim": str(len(trunc6)),
                    "truncation.basis": ",".join(render(u.names, w) for w in trunc6),
                    "center.dim": str(truncation_center_dim(u, u_deg, 6))}),
        CliSpec("compare-centers L U_n5 3", "truncate",
                ["compare-centers", "--builtin", "L", "--builtin", "U_n5", "--power", "3",
                 "--weight-bound", "8", "--weight-bound", "3"],
                kv={"center.L": "13", "center.U_n5": "11", "compare.separated": "true"},
                lines=[f"L: center dimension 13 (truncation dimension {len(low_monomials(l_deg, 3))}, "
                       "power 3, window 8)",
                       f"U_n5: center dimension 11 (truncation dimension {len(low_monomials(u_deg, 3))}, "
                       "power 3, window 3)"]),
        # power_ideal_span misses ideal elements whose straightening drops
        # weight, so a window the program accepts gives too big a quotient
        CliSpec("truncate U_n5 4 3", "truncate",
                ["truncate", "--builtin", "U_n5", "--power", "4", "--weight-bound", "3"],
                kv={"truncation.dim": str(len(low_monomials(u_deg, 4)))}, known_fault=True),
    ]


# ----- load and normal-form checks ---------------------------------------------


def check_load(case, outcome):
    """outcome: ("rejected", error class name) or
    ("accepted", classification, generator count, triples, confluent, psi)."""
    if not case.accept:
        return [] if outcome == ("rejected", "TailNotSmaller") else [f"expected rejection, got {outcome}"]
    if outcome[0] != "accepted":
        return [f"valid presentation not accepted: {outcome}"]
    data = case.data
    want = ("accepted", "weight-graded" if data.graded() else "filtered", data.size, comb(data.size, 3), True)
    problems = [] if outcome[:5] == want else [f"got {outcome[:5]}, expected {want}"]
    if case.psi is not None and outcome[5] != case.psi:
        problems.append(f"psi {outcome[5]}, expected {case.psi}")
    return problems


def check_nf(expected, got):
    if got == expected:
        return []
    return [f"normal form {sorted(got.items())} != reference {sorted(expected.items())}"]


# ----- self-check -----------------------------------------------------------------


def _output_for(spec, kv):
    return "\n".join(list(spec.lines) + [""] + [f"{k}={v}" for k, v in kv.items()]) + "\n"


def self_check(cli_specs=(), load_cases=()):
    """Feed each oracle a right answer and a wrong one; return problems."""
    problems = []

    def expect(label, right, wrong):
        if right:
            problems.append(f"{label}: oracle rejects a right answer: {right}")
        if not wrong:
            problems.append(f"{label}: oracle accepts a wrong answer")

    for spec in cli_specs:
        kv = dict(spec.kv, **spec.example)
        right = check_cli(spec, spec.rc, _output_for(spec, kv))
        expect(spec.label + " (exit code)", right, check_cli(spec, spec.rc + 1, _output_for(spec, kv)))
        for key in kv:
            bad = dict(kv, **{key: kv[key] + "0"})
            expect(f"{spec.label} ({key})", right, check_cli(spec, spec.rc, _output_for(spec, bad)))
        for line in spec.lines:
            bad_out = _output_for(spec, kv).replace(line, line + "0")
            expect(f"{spec.label} (line)", right, check_cli(spec, spec.rc, bad_out))
    for case in load_cases:
        data = case.data
        if case.accept:
            good = ("accepted", "weight-graded" if data.graded() else "filtered", data.size,
                    comb(data.size, 3), True, case.psi)
            bad = good[:3] + (good[3] + 1,) + good[4:]
        else:
            good = ("rejected", "TailNotSmaller")
            bad = ("accepted", "filtered", data.size, comb(data.size, 3), True, None)
        expect(f"load {case.label}", check_load(case, good), check_load(case, bad))
    ref = Reference(pres_l())
    nf = ref.exponents((1, 0, 4, 3, 1, 0))
    bad = dict(nf)
    first = next(iter(bad))
    bad[first] += 1
    expect("normal form vs reference", check_nf(nf, ref.exponents((1, 0, 4, 3, 1, 0))), check_nf(nf, bad))
    q = F(3, 2)
    right = qplane_nf(q, (1, 1, 0, 1, 0))
    expect("qplane closed form", check_nf(right, {(2, 3): q ** 5}), check_nf(right, {(2, 3): q ** 4}))
    return problems
