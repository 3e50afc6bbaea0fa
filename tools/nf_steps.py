#!/usr/bin/env python3
"""Rewrite steps per second of Presentation.normal_form, in process.

    python3 tools/nf_steps.py --src src --seed 7 --repeats 5

Imports hopfkit from the given source directory, draws seeded words for
the builtins L, J, U_n5, heis3 and qplane(3/2), and straightens each word
once with the counting loop below, which follows the rewrite strategy
(the largest live word first, at its leftmost misordered pair) and counts
its steps.  It then times normal_form on the same words, best CPU time of
`repeats` passes, checks that its answers match, and prints one JSON
object: per presentation the words, steps, seconds and steps per second.

The step count is a property of the strategy, not of the engine, so two
checkouts give the same counts and their rates compare directly.
"""

import argparse
import json
import os
import random
import sys
import time

# (builtin, words, shortest, longest); lengths cycle through the range
PLAN = (
    ("L", 150, 4, 16),
    ("J", 150, 4, 18),
    ("U_n5", 150, 4, 16),
    ("heis3", 150, 4, 18),
    ("qplane(3/2)", 150, 8, 40),
)


def counted_normal_form(p, word):
    """(terms, steps) of one word, by a max() scan over p.rewrite_key."""
    work, out, steps = {word: 1}, {}, 0
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
        prefix, suffix = word[:pos], word[pos + 2:]
        produced = [(prefix + (lo, hi) + suffix, rel.q)]
        produced += [(prefix + tail + suffix, c) for tail, c in rel.tail.items()]
        for new, c in produced:
            work[new] = work.get(new, 0) + coeff * c
            if not work[new]:
                del work[new]
    return {m: c for m, c in out.items() if c}, steps


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="directory holding the hopfkit package")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import hopfkit

    rng = random.Random(args.seed)
    result = {}
    total_steps = total_s = 0
    for name, count, lo, hi in PLAN:
        p = hopfkit.builtin(name)
        n = len(p.alphabet)
        words = [tuple(rng.randrange(n) for _ in range(lo + (i * 7) % (hi - lo + 1)))
                 for i in range(count)]
        steps = 0
        for word in words:
            terms, word_steps = counted_normal_form(p, word)
            if p.normal_form({word: 1}).terms != terms:
                raise SystemExit(f"normal_form disagrees with the counting loop on {name} {word}")
            steps += word_steps
        best = None
        for _ in range(args.repeats):
            start = time.process_time()
            for word in words:
                p.normal_form({word: 1})
            elapsed = time.process_time() - start
            best = elapsed if best is None else min(best, elapsed)
        result[name] = {"words": count, "steps": steps, "cpu_s": round(best, 4),
                        "steps_per_s": round(steps / best)}
        total_steps += steps
        total_s += best
    result["total"] = {"steps": total_steps, "cpu_s": round(total_s, 4),
                       "steps_per_s": round(total_steps / total_s)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
