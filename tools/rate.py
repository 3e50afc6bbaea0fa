#!/usr/bin/env python3
"""In-process rates of hopfkit's hot layers, one subcommand per layer.

    python3 tools/rate.py nf --src src --seed 7 --repeats 5
    python3 tools/rate.py coproduct --src src --seed 7 --repeats 5
    python3 tools/rate.py antipode --src src --seed 7 --repeats 5
    python3 tools/rate.py coradical --src src --seed 7 --repeats 5
    python3 tools/rate.py products --src src --seed 7 --repeats 5
    python3 tools/rate.py center --src src --seed 7 --repeats 5
    python3 tools/rate.py signature --src src --seed 7 --repeats 5
    python3 tools/rate.py parse --src src --seed 7 --repeats 5

Each subcommand imports hopfkit from the given source directory, times
its layer on fixed builtins, best CPU time of `repeats` passes, checks the
answers against a count or law computed apart from the timed code, and
prints one JSON object: per case its counts, seconds and rates, then the
total.  The counts are properties of the algebra and the window, not of
the code, so two checkouts give the same counts and their rates compare
directly.

nf         rewrite steps per second of Presentation.normal_form, on seeded
           words of L, J, U_n5, heis3, qplane(3/2) and L_heavy (read from
           presentations/ beside the source directory), and on J's
           rearranged row, whose inputs are three rearrangements of one
           seeded word with coefficients 1 or -1; a counting loop that
           follows the rewrite strategy (the largest live word first, at its
           leftmost misordered pair) gives the steps and the answers,
           q_swaps, the steps at a pair whose q is not 1: the swaps whose
           q-powers normal_form gathers per held run, and tail_steps, the
           steps at a pair with a tail.  Every row reads the flat rewrite
           table and resumes each popped word at its hint.  The rows of L
           and L_heavy, whose tail c^3 lengthens words (and in L_heavy
           lowers their weight), grow the list of powers and push tail
           words with their hints; the rearranged row's words share weight,
           psi-weight and length, so nearly all of its swaps are contested
           and decided on the heap top's code.
coproduct  basis monomials per second whose Delta the coproduct machine
           builds into its table by monomial id (_Machine.delta), in a
           seeded order, on a fresh presentation per pass; the counit law is
           checked on every coproduct, decoded by full_mono outside the
           timed region, whose terms are counted.  store_bytes is the size
           of that table: sys.getsizeof of every stored delta, every tuple
           inside it counted.
antipode   basis monomials per second on which solve_antipode verifies the
           antipode axiom (cpu_s, monomials_per_s), and on which
           check_involutive_antipode then finds S(S(m)) = m from the solved
           table, timed apart (involution_s, involution_monomials_per_s);
           every monomial must pass both, and S(S(g)) = g is checked again
           on every generator through AntipodeTable.apply, untimed.
           delta_terms (the terms of the window's coproducts the machine
           stores, len // 3 of each flat tuple, delta(1) = -1 (x) 1
           included), read before the solve, which drops the heaviest, and
           table_entries (the entries of the presentation's product table),
           read after it, are read off the objects: the verification walks
           each Delta(m) term by term, so they size its work.  They move
           with the code.  verify_s times a second solve_antipode on the
           same presentation, its product table and coproducts built (the
           dropped ones again, untimed), so only the solve of S on the
           generators and the verification loop run; it must build no
           table entry.
coradical  levels per second of the coradical chain (coradical_levels),
           the chain's own coproduct build included; the top level must
           hold the whole window, as its PBW basis counts it.
           level1_terms are the reduced-coproduct terms the chain reads,
           all at level 1, whose echelon of images every later level
           updates in place, reading no term; they are counted on a
           separate, untimed pass.  Level 1 builds the primitives weight
           by weight and starts its elimination over level1_restarts
           times, and level1_terms sums its reads over every start.  Read
           from the chain's state on the same pass: built_terms, the
           number of terms its coproducts hold, cut to the left legs the
           levels can reach, each one built again counted again; and, per
           level past 1, rows_reduced, the rows of the echelon that the
           level reduces modulo the last level, and rows_reinserted, those
           among them whose pivot that clears, inserted again; and
           chain_rows, the distinct row dicts the levels hold, read off
           the objects, as a level shares the rows of the level below.
           They move with the code.
products   window monomials per second of solve_antipode on J at window 9
           and of signature on L at window 9, with the counters of the
           presentation's one product table (Presentation._table, by
           monomial id); the antipode must verify every window monomial,
           and L's signature must be (1, 1, 1, 2, 2).  Table reads are
           counted on a separate, untimed pass, through rows that count
           their reads: table_reads in all, split into closed_reads (no
           tailed relation crosses the pair, so the entry is a closed
           form) and stored_reads (a tailed pair, built on its first read
           from two smaller entries: the terms of one, each multiplied by
           a letter through another).  A build looks every pair it reads
           up in the table before it takes a closed form; those lookups
           are counted apart, as lookup_hits and lookup_misses, and only
           those of tailed pairs, which a build cannot do without, also
           count as stored_reads.  A closed form that a build takes in
           place is not counted as a read.
           After the pass: entries and rows of the table, stored_entries
           (its tailed pairs), generator_entries (tailed pairs whose right
           factor is a single letter: the (monomial x generator) products
           by which a build multiplies the terms of a smaller entry, each
           itself built off the relation of its left factor's last letter
           with the generator) and table_bytes, sys.getsizeof of the
           table, its rows, their weak reference to the presentation,
           entries, pairs, ids and coefficients, each object once.  The
           counters move with the code; the rates are over the window's
           basis monomials, monomials, which depend on the algebra and
           the window alone.
center     truncation centers per second (Truncation.center) of U_n5/I^6 at
           window 8, L/I^4 at window 9 and J/I^4 at window 9, each on a
           fresh presentation whose truncation is built outside the timed
           region; every representative must commute with every generator
           class.  Right after each build, read directly off the objects:
           ids, the monomials the presentation has numbered (len of
           _monos), and ideal_rows, the rows the truncation stores for
           I^k (len of Truncation._ideal.rows, J_k on the monomials of
           fewer than k letters).  These two move with the code.
signature  window monomials per second of signature on H6 at window 9, J
           at window 10 and L at window 11, with the window's size; the
           entries must be (1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 2, 2) and
           (1, 1, 1, 2, 2), the generator levels of each algebra.  Counted
           on a separate, untimed pass: products, the products of basis
           rows that signature feeds (Presentation._multiply_ids calls),
           and inserts, the vectors it inserts into its own echelon
           (_Echelon.insert calls, products and level rows both; the
           coradical chain's inserts are not counted).  They move with the
           code.
parse      presentations per second of parse_presentation, on the dump of
           each builtin and on each presentations/*.hopf beside the source
           directory, PARSE_COPIES parses per case and pass; every text
           must survive a dump round trip (parse, dump, parse again: equal
           presentations, equal dumps), and each builtin must equal the
           parse of its dump.  The builtin cases time builtin() itself,
           builds per second, on the same names.

antipode, coradical and signature run on a fresh presentation, and each
pass runs the windows in an order shuffled by the seed.  For antipode the
machine's coproduct table of the window is built beforehand, outside the
timed region; coradical and signature build their own coproducts, cut to
the left legs they read, inside it.
"""

import argparse
import json
import os
import random
import sys
import time

# (row, builtin or presentations/ file, inputs, shortest, longest, rearranged);
# lengths cycle through the range
NF_PLAN = (
    ("L", "L", 150, 4, 16, False),
    ("J", "J", 150, 4, 18, False),
    ("U_n5", "U_n5", 150, 4, 16, False),
    ("heis3", "heis3", 150, 4, 18, False),
    ("qplane(3/2)", "qplane(3/2)", 150, 8, 40, False),
    ("L_heavy", "L_heavy.hopf", 150, 4, 16, False),
    ("J rearranged", "J", 100, 10, 16, True),
)
# (builtin, weight bound)
COPRODUCT_PLAN = (("J", 9), ("L", 9))
ANTIPODE_PLAN = (("J", 9), ("J", 10), ("L", 9))
CORADICAL_PLAN = (("J", 9), ("J", 11), ("L", 9))
# (builtin, weight bound) -> its signature's entries
SIGNATURE_PLAN = {("H6", 9): (1,) * 6, ("J", 10): (1, 1, 1, 1, 2, 2), ("L", 11): (1, 1, 1, 2, 2)}
# (builtin, power, weight bound)
CENTER_PLAN = (("U_n5", 6, 8), ("L", 4, 9), ("J", 4, 9))
PARSE_BUILTINS = ("H6", "J", "L", "U_n5", "heis3", "poly(3)", "qplane(3/2)")
PARSE_COPIES = 20


def counted_normal_form(p, x):
    """(terms, steps, q_swaps, tail_steps) of a {word: coeff} map, by a max()
    scan over p.rewrite_key."""
    work, out, steps, q_swaps, tail_steps = dict(x), {}, 0, 0, 0
    n = len(p.alphabet)
    while work:
        word = max(work, key=p.rewrite_key)
        coeff = work.pop(word)
        pos = next((i for i in range(len(word) - 1) if word[i] > word[i + 1]), None)
        if pos is None:
            mono = tuple(word.count(g) for g in range(n))
            out[mono] = out.get(mono, 0) + coeff
            continue
        steps += 1
        hi, lo = word[pos], word[pos + 1]
        rel = p.relations[(hi, lo)]
        q_swaps += rel.q != 1
        tail_steps += bool(rel.tail)
        prefix, suffix = word[:pos], word[pos + 2:]
        produced = [(prefix + (lo, hi) + suffix, rel.q)]
        produced += [(prefix + tail + suffix, c) for tail, c in rel.tail.items()]
        for new, c in produced:
            work[new] = work.get(new, 0) + coeff * c
            if not work[new]:
                del work[new]
    return {m: c for m, c in out.items() if c}, steps, q_swaps, tail_steps


def counit_holds(mono, delta, empty):
    """(epsilon (x) id) Delta(m) = m = (id (x) epsilon) Delta(m), termwise."""
    if not any(mono):
        return delta == {(empty, empty): 1}
    units = {(mono, empty), (empty, mono)}
    return all(
        delta.get(key) == 1 for key in units
    ) and not any(empty in key for key in delta if key not in units)


def cpu(fn, *args):
    """(result, CPU seconds) of one call."""
    start = time.process_time()
    out = fn(*args)
    return out, time.process_time() - start


def per_s(count, seconds):
    """count / seconds, whole from 100 up and to two decimals below."""
    rate = count / seconds
    return round(rate) if rate >= 100 else round(rate, 2)


def nf(hopfkit, rng, repeats):
    files = os.path.join(os.path.dirname(hopfkit.__path__[0]), os.pardir, "presentations")
    cases = {}
    for row, name, count, lo, hi, rearranged in NF_PLAN:
        if name.endswith(".hopf"):
            p = hopfkit.load_presentation(os.path.join(files, name))
        else:
            p = hopfkit.builtin(name)
        n = len(p.alphabet)
        words = [tuple(rng.randrange(n) for _ in range(lo + (i * 7) % (hi - lo + 1)))
                 for i in range(count)]
        if rearranged:
            xs = [{tuple(rng.sample(word, len(word))): rng.choice((1, -1)) for _ in range(3)}
                  for word in words]
        else:
            xs = [{word: 1} for word in words]
        counts = {"inputs": count, "steps": 0, "q_swaps": 0, "tail_steps": 0}
        for x in xs:
            terms, *steps = counted_normal_form(p, x)
            if p.normal_form(x).terms != terms:
                raise SystemExit(f"normal_form disagrees with the counting loop on {row} {x}")
            for key, value in zip(("steps", "q_swaps", "tail_steps"), steps):
                counts[key] += value

        def straighten():
            for x in xs:
                p.normal_form(x)

        best = min(cpu(straighten)[1] for _ in range(repeats))
        cases[row] = (counts, best)
    return cases, (("steps", "steps_per_s"),)


def store_bytes(mach):
    """sys.getsizeof of every delta the coproduct machine stores, every tuple inside it counted."""
    return sum(
        sys.getsizeof(d) + sum(sys.getsizeof(x) for x in d if type(x) is tuple)
        for d in mach._deltas.values()
    )


def build_coproducts(p, monos):
    """Build the coproduct table of p, by monomial id, for the monomials monos."""
    from hopfkit import hopf

    mach = hopf._machine(p)
    delta, number = mach.delta, p._number
    for m in monos:
        delta(number(m))
    return mach


def coproduct(hopfkit, rng, repeats):
    cases = {}
    for name, bound in COPRODUCT_PLAN:
        monos = hopfkit.builtin(name).enumerate_basis(bound)
        rng.shuffle(monos)
        best = counts = None
        for _ in range(repeats):
            p = hopfkit.builtin(name)
            mach, elapsed = cpu(build_coproducts, p, monos)
            best = elapsed if best is None else min(best, elapsed)
            if counts is None:
                full_mono = mach.full_mono
                empty = (0,) * len(p.alphabet)
                for m in monos:
                    if not counit_holds(m, full_mono(m), empty):
                        raise SystemExit(f"the counit law fails on Delta({p.render_mono(m)}) in {name}")
                counts = {"monomials": len(monos), "terms": sum(len(full_mono(m)) for m in monos),
                          "store_bytes": store_bytes(mach)}
        cases[f"{name}@{bound}"] = (counts, best)
    return cases, (("monomials", "monomials_per_s"), ("terms", "terms_per_s"))


def best_of(plan, rng, repeats, run):
    """{case: (counts, best seconds)} of run(case) -> (counts, seconds), in plan's order.

    Each of the `repeats` passes runs every case of plan once, in an order
    shuffled by rng; the counts kept are the last pass's.
    """
    cases = {}
    for _ in range(repeats):
        order = list(plan)
        rng.shuffle(order)
        for case in order:
            counts, elapsed = run(case)
            cases[case] = (counts, min(cases.get(case, (None, elapsed))[1], elapsed))
    return {case: cases[case] for case in plan}


def fresh_windows(hopfkit, plan, rng, repeats, run):
    """{window key: (counts, best seconds)} of run(p, bound, monos, key) -> (counts, seconds).

    Each call gets a fresh presentation and the window's basis monomials
    monos; run times its own part and checks it.
    """
    def window(case):
        name, bound = case
        p = hopfkit.builtin(name)
        return run(p, bound, p.enumerate_basis(bound), f"{name}@{bound}")

    cases = best_of(plan, rng, repeats, window)
    return {f"{name}@{bound}": cases[name, bound] for name, bound in plan}


def antipode(hopfkit, rng, repeats):
    involution = {}  # window key -> best CPU seconds of the S^2 stage
    verify = {}  # window key -> best CPU seconds of a second solve, the table built

    def run(p, bound, monos, key):
        mach = build_coproducts(p, monos)  # outside the timed region
        delta_terms = sum(len(d) // 3 for d in mach._deltas.values())
        table, elapsed = cpu(hopfkit.solve_antipode, p, bound)
        if table.monomials_checked != len(monos):
            raise SystemExit(f"{key}: {table.monomials_checked} of {len(monos)} monomials verified")
        counts = {"monomials_checked": table.monomials_checked, "delta_terms": delta_terms,
                  "table_entries": sum(map(len, p._table.values()))}
        report, seconds = cpu(hopfkit.check_involutive_antipode, p, table)
        if not report.ok or report.checked != len(monos):
            raise SystemExit(f"{key}: S(S(m)) = m holds on {report.checked - len(report.failures)} "
                             f"of {len(monos)} monomials")
        involution[key] = min(involution.get(key, seconds), seconds)
        build_coproducts(p, monos)  # the deltas the solve dropped, outside the timed region
        again, seconds = cpu(hopfkit.solve_antipode, p, bound)
        entries = sum(map(len, p._table.values()))
        if again.monomials_checked != len(monos) or entries != counts["table_entries"]:
            raise SystemExit(f"{key}: a second solve verified {again.monomials_checked} of {len(monos)} "
                             "monomials or built table entries")
        verify[key] = min(verify.get(key, seconds), seconds)
        for gi, name in enumerate(p.alphabet.names):
            if table.apply(table.of_gen(gi)) != p.gen(gi):
                raise SystemExit(f"{key}: S(S({name})) is not {name}")
        return counts, elapsed

    cases = fresh_windows(hopfkit, ANTIPODE_PLAN, rng, repeats, run)
    for key, (counts, _) in cases.items():
        counts["involution_s"] = round(involution[key], 4)
        counts["involution_monomials_per_s"] = per_s(counts["monomials_checked"], involution[key])
        counts["verify_s"] = round(verify[key], 4)
    return cases, (("monomials_checked", "monomials_per_s"),)


def kernel_reads(p, bound):
    """(reads, restarts, state) of the coradical chain, on an untimed pass.

    reads counts the coproduct terms the chain reads, all at level 1:
    those whose left leg has a column offset in the state's left, counted
    again each time level 1 starts its elimination over; restarts is how
    many times it does, and state is the chain's state at its end.
    """
    from hopfkit.subspace import _CoradicalState

    state, reads = _CoradicalState(p, bound), 0
    images = state._images

    def counted(elim, coproducts, budget):
        nonlocal reads
        coproducts = list(coproducts)
        reads += sum(state.left[u] is not None for _, terms, _ in coproducts for u in terms[0::3])
        images(elim, coproducts, budget)

    state._images = counted
    while not state.stable:
        state.next_level()
    return reads, len(state.restarts), state


def coradical(hopfkit, rng, repeats):
    def run(p, bound, monos, key):
        report, elapsed = cpu(hopfkit.coradical_levels, p, bound)
        if report.dims[-1] != len(monos):
            raise SystemExit(f"{key}: top level {report.dims[-1]}, window {len(monos)}")
        reads, restarts, state = kernel_reads(p, bound)
        rows = {id(row) for level in state.chain for row in level._elim.rows.values()}
        return {"levels": report.levels, "dim": report.dims[-1], "built_terms": state.built_terms,
                "level1_terms": reads, "level1_restarts": restarts,
                "rows_reduced": [reduced for reduced, _ in state.updates],
                "rows_reinserted": [moved for _, moved in state.updates], "chain_rows": len(rows)}, elapsed

    cases = fresh_windows(hopfkit, CORADICAL_PLAN, rng, repeats, run)
    return cases, (("levels", "levels_per_s"),)


def signature_counts(hopfkit, p, bound):
    """(products, inserts) of one signature call, on an untimed pass.

    products counts the presentation's _multiply_ids calls; inserts counts
    the _Echelon.insert calls outside the coradical chain, which signature
    builds first and whose levels insert their own kernel elements.
    """
    from hopfkit import subspace

    counts = [0, 0]
    multiply, insert, chain = p._multiply_ids, subspace._Echelon.insert, subspace._coradical_chain

    def counted_multiply(xs, ys):
        counts[0] += 1
        return multiply(xs, ys)

    def counted_insert(elim, vec, tag=None):
        counts[1] += 1
        return insert(elim, vec, tag)

    def uncounted_chain(p, bound):
        subspace._Echelon.insert = insert
        try:
            return chain(p, bound)
        finally:
            subspace._Echelon.insert = counted_insert

    p._multiply_ids, subspace._Echelon.insert, subspace._coradical_chain = (
        counted_multiply, counted_insert, uncounted_chain)
    try:
        hopfkit.signature(p, bound)
    finally:
        del p._multiply_ids
        subspace._Echelon.insert, subspace._coradical_chain = insert, chain
    return counts


def signature(hopfkit, rng, repeats):
    entries = {f"{name}@{bound}": want for (name, bound), want in SIGNATURE_PLAN.items()}

    def run(p, bound, monos, key):
        report, elapsed = cpu(hopfkit.signature, p, bound)
        if report.entries != entries[key]:
            raise SystemExit(f"{key}: signature {report}, not {entries[key]}")
        products, inserts = signature_counts(hopfkit, p, bound)
        return {"window": len(monos), "entries": len(report.entries), "products": products,
                "inserts": inserts}, elapsed

    cases = fresh_windows(hopfkit, SIGNATURE_PLAN, rng, repeats, run)
    return cases, (("window", "monomials_per_s"),)


def table_bytes(table):
    """sys.getsizeof of a product table and of what it holds.

    Its rows, their weak reference to the presentation, entries, pairs, ids
    and coefficients, each object counted once, however many entries share it.
    """
    seen = set()

    def size(obj):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return sys.getsizeof(obj)

    total = size(table)
    for row in table.values():
        total += size(row) + size(row.pres)
        for pairs in row.values():
            total += size(pairs) + sum(size(pair) + size(pair[0]) + size(pair[1]) for pair in pairs)
    return total


def counted_products(p, run):
    """run() once with every read of p's product table counted, untimed.

    For the run each row of the table is switched to a subclass that
    counts its reads by subscript, as closed or stored, and a build's
    lookups by get, and so is each new row as it is made.  The table is
    switched to a subclass whose get hands a build an empty counting row,
    kept out of the table, for a row that is not there, so each lookup is
    counted; what the table holds is not changed.
    """
    from hopfkit.freealg import _Memo
    from hopfkit.pbw import _Row

    monos, tailed = p._monos, [pair for pair, rel in p.relations.items() if rel.tail]
    counts = dict.fromkeys(
        ("table_reads", "closed_reads", "stored_reads", "lookup_hits", "lookup_misses"), 0)

    def crosses(a, b):
        return any(monos[a][hi] and monos[b][lo] for hi, lo in tailed)

    def count(row, b):
        counts["table_reads"] += 1
        counts["stored_reads" if crosses(row.a, b) else "closed_reads"] += 1

    class Counting(_Row):
        __slots__ = ()

        def __getitem__(self, b):
            count(self, b)
            return super().__getitem__(b)

        def get(self, b, default=None):
            counts["lookup_hits" if b in self else "lookup_misses"] += 1
            if crosses(self.a, b):
                count(self, b)
            return super().get(b, default)

    class CountingTable(_Memo):
        __slots__ = ()

        def get(self, a, default=None):
            row = super().get(a)
            return counting(_Row(None, a)) if row is None else row

    def counting(row):
        row.__class__ = Counting
        return row

    table, build = p._table, p._table.build
    for row in table.values():
        counting(row)
    table.build = lambda a: counting(build(a))
    table.__class__ = CountingTable
    try:
        result = run()
    finally:
        table.__class__ = _Memo
        table.build = build
        for row in table.values():
            row.__class__ = _Row
    stored = [(a, b) for a, row in table.items() for b in row if crosses(a, b)]
    counts.update(entries=sum(map(len, table.values())), rows=len(table), stored_entries=len(stored),
                  generator_entries=sum(sum(monos[b]) == 1 for _, b in stored),
                  table_bytes=table_bytes(table))
    return result, counts


def products(hopfkit, rng, repeats):
    def antipode_j(p):
        monos = p.enumerate_basis(9)
        build_coproducts(p, monos)

        def run():
            table = hopfkit.solve_antipode(p, 9)
            if table.monomials_checked != len(monos):
                raise SystemExit(f"J@9: {table.monomials_checked} of {len(monos)} monomials verified")
            return table

        return run

    def signature_l(p):
        def run():
            report = hopfkit.signature(p, 9)
            # L's primitives a, b, c are level 1; z and w enter at level 2
            if report.entries != (1, 1, 1, 2, 2):
                raise SystemExit(f"signature L 9 is {report}, not (1, 1, 1, 2, 2)")
            return report

        return run

    plan = {"antipode J@9": ("J", antipode_j), "signature L@9": ("L", signature_l)}

    def timed(key):
        name, prepare = plan[key]
        return None, cpu(prepare(hopfkit.builtin(name)))[1]

    cases = best_of(plan, rng, repeats, timed)
    for key, (name, prepare) in plan.items():
        p = hopfkit.builtin(name)
        _, counts = counted_products(p, prepare(p))
        counts["monomials"] = len(p.enumerate_basis(9))
        cases[key] = (counts, cases[key][1])
    return cases, (("monomials", "monomials_per_s"),)


def center(hopfkit, rng, repeats):
    def run(case):
        name, power, bound = case
        key = f"{name}@{power}/{bound}"
        trunc = hopfkit.truncation_algebra(hopfkit.builtin(name), power, bound)
        ids, ideal_rows = len(trunc.pres._monos), len(trunc._ideal.rows)
        report, elapsed = cpu(trunc.center)
        gens = [trunc.gen_image(gi) for gi in range(len(trunc.pres.alphabet))]
        for rep in report.basis:
            coords = dict(rep.terms)
            if any(trunc.multiply_classes(coords, g) != trunc.multiply_classes(g, coords)
                   for g in gens):
                raise SystemExit(f"{key}: {rep} does not commute with every generator class")
        return {"centers": 1, "classes": trunc.dim, "center_dim": report.dim,
                "ids": ids, "ideal_rows": ideal_rows}, elapsed

    cases = best_of(CENTER_PLAN, rng, repeats, run)
    return {f"{n}@{k}/{b}": cases[n, k, b] for n, k, b in CENTER_PLAN}, (
        ("centers", "centers_per_s"), ("classes", "classes_per_s"))


def parse(hopfkit, rng, repeats):
    texts = {name: hopfkit.dump_presentation(hopfkit.builtin(name)) for name in PARSE_BUILTINS}
    files = os.path.join(os.path.dirname(hopfkit.__path__[0]), os.pardir, "presentations")
    for entry in sorted(os.listdir(files)):
        if entry.endswith(".hopf"):
            with open(os.path.join(files, entry), encoding="utf-8") as handle:
                texts[entry] = handle.read()
    for key, text in texts.items():
        p = hopfkit.parse_presentation(text)
        again = hopfkit.parse_presentation(hopfkit.dump_presentation(p))
        if again != p or hopfkit.dump_presentation(again) != hopfkit.dump_presentation(p):
            raise SystemExit(f"{key}: the dump round trip changes the presentation")
        if key in PARSE_BUILTINS and hopfkit.builtin(key) != p:
            raise SystemExit(f"{key}: the builtin differs from the parse of its dump")

    def parse_copies(text):
        for _ in range(PARSE_COPIES):
            hopfkit.parse_presentation(text)

    def build_copies(name):
        for _ in range(PARSE_COPIES):
            hopfkit.builtin(name)

    plan = {key: (parse_copies, text, {"presentations": PARSE_COPIES}) for key, text in texts.items()}
    plan.update((f"builtin {name}", (build_copies, name, {"builds": PARSE_COPIES}))
                for name in PARSE_BUILTINS)
    def timed(key):
        run, arg, counts = plan[key]
        return counts, cpu(run, arg)[1]

    return best_of(plan, rng, repeats, timed), (
        ("presentations", "presentations_per_s"), ("builds", "builds_per_s"))


def main(argv=None):
    commands = {"nf": nf, "coproduct": coproduct, "antipode": antipode, "coradical": coradical,
                "products": products, "center": center, "signature": signature, "parse": parse}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=commands)
    parser.add_argument("--src", default="src", help="directory holding the hopfkit package")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import hopfkit

    cases, rates = commands[args.command](hopfkit, random.Random(args.seed), args.repeats)
    # a rate is taken in each case that has its count, and in the total
    # over those cases only
    result, total, total_s = {}, {}, {}
    for key, (counts, best) in cases.items():
        result[key] = {**counts, "cpu_s": round(best, 4)}
        for count, rate in rates:
            if count in counts:
                result[key][rate] = per_s(counts[count], best)
                total[count] = total.get(count, 0) + counts[count]
                total_s[count] = total_s.get(count, 0) + best
    result["total"] = {**total, "cpu_s": round(sum(best for _, best in cases.values()), 4)}
    result["total"].update((rate, per_s(total[count], total_s[count])) for count, rate in rates if count in total)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
