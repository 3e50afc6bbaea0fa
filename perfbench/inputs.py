"""Inputs of the hopfkit benchmark, written from the benchmark's own data.

Every presentation is held here as plain data: generators with weights,
straightening relations and coproduct corrections. The texts the program
parses and the reference computations in `oracles.py` both come from this
data, never from hopfkit's own builtins, so a fault in hopfkit cannot
slip into the expected answers.

Only the seeded presentations and the word batches depend on the seed.
The cycling system and the two presentations that probe the psi search
for n > 8 are fixed: their cost and their outcome must not move with it.
"""

from fractions import Fraction as F


class PresData:
    """A presentation as plain data, with generator names resolved to indices.

    rels maps (hi, lo) to (q, {tail word: coeff}); words are tuples of
    generator indices. deltas maps a generator index to a list of
    (coeff, left word, right word) correction terms. coproduct=False writes
    `coproduct: none`.
    """

    def __init__(self, name, gens, rels, deltas=None, coproduct=True):
        self.name = name
        self.names = [g for g, _ in gens]
        self.weights = [w for _, w in gens]
        index = {g: i for i, g in enumerate(self.names)}

        def word(letters):
            return tuple(index[g] for g in letters)

        self.rels = {
            (index[hi], index[lo]): (F(q), {word(w): F(c) for w, c in tail.items()})
            for (hi, lo), (q, tail) in rels.items()
        }
        self.deltas = {
            index[g]: [(F(c), word(left), word(right)) for c, left, right in terms]
            for g, terms in (deltas or {}).items()
        }
        self.coproduct = coproduct

    @property
    def size(self):
        return len(self.names)

    def weight(self, word):
        return sum(self.weights[i] for i in word)

    def graded(self):
        """True when every tail keeps its head's weight."""
        return all(
            self.weight(tail) == self.weights[hi] + self.weights[lo]
            for (hi, lo), (_, tails) in self.rels.items()
            for tail in tails
        )

    def text(self):
        """The presentation in hopfkit's file format."""
        lines = [f"name: {self.name}"]
        lines.append("generators: " + " ".join(f"{n}:{w}" for n, w in zip(self.names, self.weights)))
        for (hi, lo), (q, tail) in sorted(self.rels.items()):
            terms = [(q, self._word((lo, hi)))] + [(c, self._word(w)) for w, c in tail.items()]
            lines.append(f"rel: {self.names[hi]} {self.names[lo]} = {_signed_sum(terms)}")
        if not self.coproduct:
            lines.append("coproduct: none")
        for g, terms in sorted(self.deltas.items()):
            name = self.names[g]
            full = [(F(1), f"{name} (x) 1"), (F(1), f"1 (x) {name}")]
            full += [(c, f"{self._word(left)} (x) {self._word(right)}") for c, left, right in terms]
            lines.append(f"delta: {name} = {_signed_sum(full)}")
        return "\n".join(lines) + "\n"

    def _word(self, word):
        return " ".join(self.names[i] for i in word) if word else "1"


def _signed_sum(terms):
    out = []
    for coeff, body in terms:
        mag = abs(coeff)
        text = body if mag == 1 else f"{mag} {body}"
        if not out:
            out.append(f"-{text}" if coeff < 0 else text)
        else:
            out.append(f" - {text}" if coeff < 0 else f" + {text}")
    return "".join(out)


# ----- the paper's presentations ------------------------------------------

_L_DELTAS = {
    "z": [(1, "a", "c"), (-1, "c", "a")],
    "w": [(1, "b", "c"), (-1, "c", "b")],
}


def pres_l(name="L", heavy=False, extra=()):
    """L, its heavier filtered twin L_heavy, or L with extra commuting gens."""
    top = 4 if heavy else 3
    gens = [("a", 1), ("b", 1), ("c", 2), ("z", top), ("w", top)]
    gens += [(g, 1) for g in extra]
    rels = {("b", "a"): (1, {"c": -1}), ("w", "z"): (1, {"ccc": F(-1, 3)})}
    return PresData(name, gens, rels, _L_DELTAS)


def pres_j():
    gens = [("a", 1), ("b", 1), ("c", 1), ("z", 2), ("w", 2), ("d", 3)]
    rels = {("b", "a"): (1, {"c": -1}), ("w", "z"): (1, {"d": -1})}
    deltas = dict(_L_DELTAS, d=[(1, "c", "cc"), (1, "cc", "c")])
    return PresData("J", gens, rels, deltas)


def pres_u_n5():
    gens = [("x", 1), ("x1", 1), ("x2", 1), ("x3", 1), ("x4", 1)]
    rels = {("x2", "x1"): (1, {("x",): -1}), ("x4", "x3"): (1, {("x",): -1})}
    return PresData("U_n5", gens, rels)


def pres_heis3():
    return PresData("heis3", [("x", 1), ("y", 1), ("z", 2)], {("y", "x"): (1, {"z": -1})})


def pres_qplane(q):
    return PresData("qplane", [("x", 1), ("y", 1)], {("y", "x"): (q, {})}, coproduct=False)


# Filtered degree of each generator in the augmentation-ideal filtration:
# a commutator of two generators sits in I^2, so U_n5's x and L's c count
# twice. Truncation and center oracles count monomials by this degree.
IDEAL_DEGREES = {"U_n5": (2, 1, 1, 1, 1), "L": (1, 1, 2, 1, 1)}


def cycling_system():
    """y x = x y + y^2 - x^2 with six more commuting generators.

    Rewriting genuinely cycles, so no psi exists and the program must
    reject it; doing so walks the whole brute-force psi search (n = 8).
    """
    gens = [("x", 1), ("y", 1)] + [(f"u{i}", 1) for i in range(1, 7)]
    rels = {("y", "x"): (1, {"yy": 1, "xx": -1})}
    return PresData("cycling", gens, rels, coproduct=False)


# ----- seeded presentations -----------------------------------------------

_COEFFS = [F(n, d) for n in (1, 2, 3, 5) for d in (1, 2, 3, 4) if F(n, d) != 1]


def seeded_heisenberg(rng, pairs=3):
    """pairs Heisenberg pairs sharing one central c, random nonzero brackets."""
    gens = []
    rels = {}
    for i in range(1, pairs + 1):
        gens += [(f"a{i}", 1), (f"b{i}", 1)]
        rels[(f"b{i}", f"a{i}")] = (1, {("c",): rng.choice(_COEFFS) * rng.choice((1, -1))})
    gens.append(("c", 2))
    return PresData("heis_seeded", gens, rels)


def seeded_qskew(rng, size=4):
    """Quantum affine space: u_j u_i = q_ij u_i u_j with random q_ij."""
    gens = [(f"u{i}", 1) for i in range(1, size + 1)]
    rels = {
        (f"u{j}", f"u{i}"): (rng.choice(_COEFFS) * rng.choice((1, -1)), {})
        for j in range(2, size + 1)
        for i in range(1, j)
    }
    return PresData("qskew_seeded", gens, rels, coproduct=False)


# ----- the straighten workload's load set and word batches ------------------


class LoadCase:
    """One parse_presentation operation and what it must give.

    accept: whether a valid presentation must come back (every accepted
    one must also be confluent). psi: the termination weights it must
    report, when the case pins them. known_fault: the program is known to
    get this case wrong; the operation is counted failed, not incorrect.
    text: what the operation parses, when not written from data.
    """

    def __init__(self, label, data, accept=True, psi=None, known_fault=False, text=None):
        self.label = label
        self.data = data
        self.text = text or data.text()
        self.accept = accept
        self.psi = psi
        self.known_fault = known_fault


def load_cases(rng, l_heavy_text):
    return [
        LoadCase("L", pres_l()),
        LoadCase("J", pres_j()),
        LoadCase("U_n5", pres_u_n5()),
        LoadCase("heis3", pres_heis3()),
        LoadCase("qplane(3/2)", pres_qplane(F(3, 2))),
        # the repository's own file, parsed as it stands
        LoadCase("L_heavy", pres_l("L_heavy", heavy=True), text=l_heavy_text),
        LoadCase("heis_seeded", seeded_heisenberg(rng)),
        LoadCase("qskew_seeded", seeded_qskew(rng)),
        LoadCase("cycling", cycling_system(), accept=False),
        LoadCase("L+3", pres_l("L_plus3", extra=("e1", "e2", "e3")), psi=(1, 1, 1, 2, 2, 1, 1, 1)),
        # valid (n = 9), but the program's psi search gives up above n = 8
        LoadCase("L+4", pres_l("L_plus4", extra=("e1", "e2", "e3", "e4")), known_fault=True),
    ]


# (label, words per round, shortest, longest). Lengths cycle through the
# range so every round has the same make-up; only the letters are random.
# Bounds keep the slowest word well under a second: random L words of
# length 40 took tens of seconds.
WORD_PLAN = (
    ("L", 60, 3, 18),
    ("L_heavy", 30, 3, 18),
    ("J", 60, 3, 20),
    ("U_n5", 60, 3, 18),
    ("heis3", 50, 3, 20),
    ("heis_seeded", 50, 3, 16),
    ("qplane(3/2)", 40, 4, 40),
    ("qskew_seeded", 50, 3, 24),
)


def word_batch(rng, sizes):
    """[(label, word)] for one round, over presentations of the given sizes."""
    batch = []
    for label, count, lo, hi in WORD_PLAN:
        span = hi - lo + 1
        for i in range(count):
            length = lo + (i * 7) % span
            batch.append((label, tuple(rng.randrange(sizes[label]) for _ in range(length))))
    rng.shuffle(batch)
    return batch
