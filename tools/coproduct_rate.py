#!/usr/bin/env python3
"""Coproducts of basis monomials per second, built by _Machine.full_mono, in process.

    python3 tools/coproduct_rate.py --src src --seed 7 --repeats 5

Imports hopfkit from the given source directory and, for each window in
PLAN, builds Delta of every basis monomial of the window on a fresh
presentation, in an order shuffled by the seed (the cache fills the
prefixes a monomial needs, whatever the order).  It times the whole
window, best CPU time of `repeats` passes, checks the counit law on every
coproduct (m (x) 1 and 1 (x) m each with coefficient 1, and no other term
with an empty leg), and prints one JSON object: per window the monomials,
the terms of their coproducts, seconds, monomials per second and terms
per second.

The monomial and term counts are properties of the algebra, not of the
engine, so two checkouts give the same counts and their rates compare
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
    ("L", 9),
)


def counit_holds(mono, delta, empty):
    """(epsilon (x) id) Delta(m) = m = (id (x) epsilon) Delta(m), termwise."""
    if not any(mono):
        return delta == {(empty, empty): 1}
    units = {(mono, empty), (empty, mono)}
    return all(
        delta.get(key) == 1 for key in units
    ) and not any(empty in key for key in delta if key not in units)


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
    result = {}
    total_monos = total_terms = total_s = 0
    for name, bound in PLAN:
        monos = hopfkit.builtin(name).enumerate_basis(bound)
        rng.shuffle(monos)
        best = terms = None
        for _ in range(args.repeats):
            p = hopfkit.builtin(name)
            full_mono = hopf._machine(p).full_mono
            start = time.process_time()
            for m in monos:
                full_mono(m)
            elapsed = time.process_time() - start
            best = elapsed if best is None else min(best, elapsed)
            if terms is None:
                empty = (0,) * len(p.alphabet)
                for m in monos:
                    if not counit_holds(m, full_mono(m), empty):
                        raise SystemExit(f"the counit law fails on Delta({p.render_mono(m)}) in {name}")
                terms = sum(len(full_mono(m)) for m in monos)
        key = f"{name}@{bound}"
        result[key] = {
            "monomials": len(monos),
            "terms": terms,
            "cpu_s": round(best, 4),
            "monomials_per_s": round(len(monos) / best),
            "terms_per_s": round(terms / best),
        }
        total_monos += len(monos)
        total_terms += terms
        total_s += best
    result["total"] = {
        "monomials": total_monos,
        "terms": total_terms,
        "cpu_s": round(total_s, 4),
        "monomials_per_s": round(total_monos / total_s),
        "terms_per_s": round(total_terms / total_s),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
