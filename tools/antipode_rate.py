#!/usr/bin/env python3
"""Basis monomials per second on which solve_antipode verifies the antipode axiom, in process.

    python3 tools/antipode_rate.py --src src --seed 7 --repeats 5

Imports hopfkit from the given source directory and, for each window in
PLAN, runs solve_antipode on a fresh presentation whose coproducts of the
window's monomials were built beforehand, outside the timed region, so
the time is that of solving S on the generators and verifying
m(S (x) id) Delta = epsilon = m(id (x) S) Delta on every basis monomial.
Each pass runs the windows in an order shuffled by the seed; the best CPU
time of `repeats` passes counts.  It checks that every monomial of the
window was verified and that S is an involution on the generators, and
prints one JSON object: per window the monomials checked, seconds and
monomials per second.

The monomial counts are properties of the algebra and the window, not of
the code, so two checkouts give the same counts and their rates compare
directly.
"""

import argparse
import json
import os
import random
import sys
import time

# (builtin, weight bound)
PLAN = (
    ("J", 9),
    ("J", 10),
    ("L", 9),
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="directory holding the hopfkit package")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import hopfkit
    from hopfkit import hopf

    rng = random.Random(args.seed)
    best, checked = {}, {}
    for _ in range(args.repeats):
        order = list(PLAN)
        rng.shuffle(order)
        for name, bound in order:
            p = hopfkit.builtin(name)
            monos = p.enumerate_basis(bound)
            full_mono = hopf._machine(p).full_mono
            for m in monos:
                full_mono(m)
            start = time.process_time()
            table = hopfkit.solve_antipode(p, bound)
            elapsed = time.process_time() - start
            key = f"{name}@{bound}"
            if table.monomials_checked != len(monos):
                raise SystemExit(f"{key}: {table.monomials_checked} of {len(monos)} monomials verified")
            for gi in range(len(p.alphabet)):
                if table.apply(table.of_gen(gi)) != p.gen(gi):
                    raise SystemExit(f"{key}: S(S({p.alphabet.names[gi]})) is not {p.alphabet.names[gi]}")
            checked[key] = table.monomials_checked
            best[key] = min(best.get(key, elapsed), elapsed)
    result = {}
    for name, bound in PLAN:
        key = f"{name}@{bound}"
        result[key] = {
            "monomials_checked": checked[key],
            "cpu_s": round(best[key], 4),
            "monomials_per_s": round(checked[key] / best[key]),
        }
    total_monos, total_s = sum(checked.values()), sum(best.values())
    result["total"] = {
        "monomials_checked": total_monos,
        "cpu_s": round(total_s, 4),
        "monomials_per_s": round(total_monos / total_s),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
