"""Seeded inputs for the three workloads, with their known answers.

Elements are small syntax trees of tuples.  `render` turns one into the
text of the program's expression language, and `pointwise` turns it into
an evaluator from `exact`, so the checker never reuses the program's
composition code.  A run is made of rounds; each round's inputs are drawn
from (seed, round index), so no input repeats within a run.  Every family
is drawn in fixed numbers, so all rounds have the same make-up and differ
only in the details.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache
from fractions import Fraction

from exact import (
    ONE,
    TAU,
    ZERO,
    Chain,
    ConjugateShift,
    Inverse,
    Num,
    Shift,
    Table,
    canonical,
    rotation_table,
    tree_boundaries,
    tree_exponents,
    tree_leaves,
    tree_pair_table,
)

# Iteration count of the enclosure-replay workload.  Power tables at
# N = 256 hold about 260 pieces per bump with 40-250-bit coefficients.
ENCLOSURE_N = 256


# -- syntax trees ---------------------------------------------------------
#   ("trans", Num)            lift: translation
#   ("rot", Num)              circle: rotation
#   ("tp", p, q, shift)       circle: tree pair
#   ("map", circle_json)      circle: breakpoint table
#   ("lift", node, n)         lift of a circle element (or offset of a lift)
#   ("mul", a, b)             a then b
#   ("pow", a, k)
#   ("conj", a, b)            b^-1 a b

def is_lift(node) -> bool:
    tag = node[0]
    if tag in ("trans", "lift"):
        return True
    if tag in ("rot", "tp", "map"):
        return False
    return is_lift(node[1])


def render(node) -> str:
    tag = node[0]
    if tag == "trans":
        return f"trans({node[1].literal()})"
    if tag == "rot":
        return f"rot({node[1].literal()})"
    if tag == "tp":
        payload = {"p": node[1], "q": node[2], "shift": node[3]}
        return "treepair " + json.dumps(payload, separators=(",", ":"))
    if tag == "map":
        return "map " + json.dumps(node[1], sort_keys=True, separators=(",", ":"))
    if tag == "lift":
        return f"lift({render(node[1])}, {node[2]})"
    if tag == "mul":
        return f"({render(node[1])}) * ({render(node[2])})"
    if tag == "pow":
        return f"({render(node[1])})^{node[2]}"
    if tag == "conj":
        return f"conj({render(node[1])}, {render(node[2])})"
    raise ValueError(f"unknown node {tag!r}")


def pointwise(node):
    """Evaluator of the element as a map of the line (circle elements as
    their canonical lift, with f(0) in [0, 1))."""
    tag = node[0]
    if tag == "trans":
        return Shift(node[1])
    if tag == "rot":
        return rotation_table(node[1])
    if tag == "tp":
        return tree_pair_table(node[1], node[2], node[3])
    if tag == "map":
        return Table.from_json(node[1])
    if tag == "lift":
        return Chain([pointwise(node[1])], -node[2])
    if tag == "mul":
        maps = [pointwise(node[1]), pointwise(node[2])]
    elif tag == "pow":
        f = pointwise(node[1])
        maps = [f if node[2] > 0 else Inverse(f)] * abs(node[2])
    elif tag == "conj" and node[1][0] == "lift" and node[1][1][0] == "rot":
        alpha, n = node[1][1][1], node[1][2]
        return ConjugateShift(pointwise(node[2]), alpha - alpha.floor() + n)
    elif tag == "conj":
        b = pointwise(node[2])
        maps = [Inverse(b), pointwise(node[1]), b]
    else:
        raise ValueError(f"unknown node {tag!r}")
    return Chain(maps) if is_lift(node) else canonical(maps)


# -- random trees ---------------------------------------------------------

def random_tree(rng: random.Random, leaves: int):
    if leaves == 1:
        return "leaf"
    left = 1 + rng.randrange(leaves - 1)
    return ["s+" if rng.random() < 0.5 else "s-",
            random_tree(rng, left), random_tree(rng, leaves - left)]


def _replace_leaf(tree, j: int, sub):
    """Tree with its j-th leaf replaced by sub, and the leaves left to skip."""
    if tree == "leaf":
        return (sub, -1) if j == 0 else (tree, j - 1)
    left, j = _replace_leaf(tree[1], j, sub)
    if j < 0:
        return [tree[0], left, tree[2]], -1
    right, j = _replace_leaf(tree[2], j, sub)
    return [tree[0], tree[1], right], j


def same_partition(p, q) -> bool:
    """p and q cut [0, 1] at the same points with the same leaf lengths."""
    return (tree_leaves(p) == tree_leaves(q)
            and all(a == b for a, b in zip(tree_boundaries(p), tree_boundaries(q)))
            and tree_exponents(p) == tree_exponents(q))


def distinct_trees(rng: random.Random, leaves: int):
    p = random_tree(rng, leaves)
    q = random_tree(rng, leaves)
    while same_partition(p, q):
        q = random_tree(rng, leaves)
    return p, q


def random_lift(rng: random.Random, leaves: int = 3):
    """Conjugator: a lifted tree pair that is not a rotation."""
    while True:
        p, q = distinct_trees(rng, leaves)
        s = rng.randrange(leaves)
        pe, qe = tree_exponents(p), tree_exponents(q)
        if any(qe[(i + s) % leaves] != pe[i] for i in range(leaves)):
            return ("lift", ("tp", p, q, s), rng.randrange(-1, 2))


def ring_value(rng: random.Random, span: int) -> Num:
    a = rng.randrange(-span, span + 1)
    b = rng.randrange(1, span + 1) * rng.choice((-1, 1))
    return Num(a, b)


SWAP = (["s+", "leaf", "leaf"], ["s-", "leaf", "leaf"])


def bumped_pair(rng: random.Random, tree, bumps: int):
    """Two copies of tree with `bumps` of its leaves split in opposite ways.

    The tree pair (first, second, 0) is an F_tau element supported inside
    those leaves, with one breakpoint inside each: its powers gain `bumps`
    pieces per iteration, which fixes the cost of a power table of given N.
    Every bump pushes the same way, so no two of them cancel along an orbit.
    """
    ta = tb = tree
    a, b = SWAP if rng.random() < 0.5 else SWAP[::-1]
    for j in sorted(rng.sample(range(tree_leaves(tree)), bumps), reverse=True):
        ta, _ = _replace_leaf(ta, j, a)
        tb, _ = _replace_leaf(tb, j, b)
    return ta, tb


def hyperbolic(rng: random.Random, leaves: int, bumps: int):
    """Element with rot = s/L + n known by construction.

    P is a periodic tree pair (p = q, shift s), so it carries leaf i onto
    leaf i + s and rot(P) = s/L.  G is a tree pair that differs from the
    identity only inside some leaves of P, so P*G still carries every leaf
    onto the leaf s places on; G's powers grow, so the power tables of the
    product grow linearly.  Lifting with n and conjugating by a random lift
    keeps rot = s/L + n.
    """
    tree = random_tree(rng, leaves)
    s = rng.randrange(1, leaves)
    ta, tb = bumped_pair(rng, tree, bumps)
    n = rng.randrange(-2, 3)
    body = ("mul", ("tp", tree, tree, s), ("tp", ta, tb, 0))
    node = ("conj", ("lift", body, n), random_lift(rng))
    return node, Fraction(s, leaves) + n


def ftau_lift(rng: random.Random, leaves: int, bumps: int):
    """Conjugated lift of an F_tau tree pair: rot = n exactly."""
    ta, tb = bumped_pair(rng, random_tree(rng, leaves), bumps)
    n = rng.randrange(-2, 3)
    node = ("conj", ("lift", ("tp", ta, tb, 0), n), random_lift(rng))
    return node, Fraction(n)


# -- rot-queries ----------------------------------------------------------

def round_rng(workload: str, seed: int, rnd: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{rnd}")


# The random-lift family takes the next 24 random_element seeds of this
# list in each round, whatever --seed is: about one random lift in nine
# ends in a 15-150 ms enclosure and the rest answer in 2 ms, so a seeded
# draw of this size would move a round's total time by 10% from seed to
# seed.  Every other family is drawn from --seed.  Seed 283 is left out:
# its scl is an enclosure at the full 10,000 iterations, about 10 s, a
# third of a run in one operation.  The list lasts 19 rounds; a run that
# gets further starts it again.
RANDOM_LIFT_SEEDS = tuple(k for k in range(480) if k != 283)
RANDOM_LIFTS = 24


def rot_queries(seed: int, rnd: int) -> list[dict]:
    """Query list: each entry has the expression, its syntax tree and what
    is known about rot.  A random-lift entry names the program's own
    `random_element(seed, leaves, "Lift")` instead; the workload asks the
    program for it and fills in its tree and text.

    The conjugated rotations (one query in five) are the slow cluster, so
    the 90th percentile lies inside it rather than at its edge.
    """
    rng = round_rng("rot-queries", seed, rnd)
    out = []
    for _ in range(48):
        alpha = ring_value(rng, 20)
        out.append({"family": "translation", "node": ("trans", alpha), "rot": alpha})
    for i in range(60):
        leaves = 2 + i % 4
        tree = random_tree(rng, leaves)
        s = rng.randrange(1, leaves)
        n = rng.randrange(-2, 3)
        k = 1 + i % 3
        base = ("conj", ("lift", ("tp", tree, tree, s), n), random_lift(rng))
        node = base if k == 1 else ("pow", base, k)
        out.append({"family": "periodic", "node": node,
                    "rot": k * (Fraction(s, leaves) + n)})
    for i in range(48):
        # the tau-coefficient sets the Stern-Brocot path, so it cycles
        alpha = Num(rng.randrange(-5, 6), (1 + i % 3) * rng.choice((-1, 1)))
        n = rng.randrange(-2, 3)
        node = ("conj", ("lift", ("rot", alpha), n), random_lift(rng))
        out.append({"family": "conj-rotation", "node": node,
                    "rot": alpha - alpha.floor() + n})
    for i in range(48):
        node, value = hyperbolic(rng, 2 + i % 3, 1 + i % 2)
        out.append({"family": "hyperbolic", "node": node, "rot": value})
    for q in out:
        q["text"] = render(q["node"])
    for j in range(RANDOM_LIFTS * rnd, RANDOM_LIFTS * (rnd + 1)):
        k = RANDOM_LIFT_SEEDS[j % len(RANDOM_LIFT_SEEDS)]
        out.append({"family": "random-lift", "element_seed": k, "leaves": 3 + k % 4,
                    "rot": None})
    rng.shuffle(out)
    return out


# -- enclosure-replay -----------------------------------------------------

def enclosure_inputs(seed: int, rnd: int) -> list[dict]:
    rng = round_rng("enclosure-replay", seed, rnd)
    out = []
    # One element in three has two bumps and twice the pieces, so the
    # median answer lies inside the one-bump cluster and the 90th
    # percentile inside the two-bump one, never between them.  A round is
    # short (54 elements, one period of this pattern), so a run of
    # --seconds holds several whole rounds.
    for i in range(54):
        bumps = 2 if (i // 3) % 3 == 2 else 1
        make = ftau_lift if (i // 9) % 6 == 5 else hyperbolic
        node, value = make(rng, 2 + i % 3, bumps)
        out.append({"family": make.__name__.replace("_", "-"), "node": node,
                    "rot": value})
    for q in out:
        q["text"] = render(q["node"])
    rng.shuffle(out)
    return out


# -- certificates ---------------------------------------------------------

@lru_cache(maxsize=None)
def preference_pool(depth: int) -> tuple[Num, ...]:
    """Ring points of (0, 1) from repeated wide-first splits, sorted."""
    pts = [ZERO, ONE]
    for _ in range(depth):
        refined = [pts[0]]
        for lo, hi in zip(pts, pts[1:]):
            refined += [lo + (hi - lo).times_tau_pow(1), hi]
        pts = refined
    return tuple(pts[1:-1])


def _tuple(rng: random.Random, pool: list, n: int) -> list:
    idx = sorted(rng.sample(range(len(pool)), n))
    return [pool[i] for i in idx]


# `taut defect --search --samples 4` seeds: each round takes the next
# twelve of this list, whatever --seed is, since a search costs 10-150 ms
# depending on its seed and a seeded draw of twelve would move a round's
# total by several percent.  Left out are seeds 11, 52 and 71, for which
# none of the four pairs gets an exact rot within the default budgets, so
# the command exits 2, a budget outcome and not a fault; and seeds 88, 120
# and 144, which take 8-21 s each.  The list lasts 24 rounds; a run that
# gets further starts it again.
DEFECT_SEARCH_SEEDS = tuple(k for k in range(300) if k not in (11, 52, 71, 88, 120, 144))
SEARCHES = 12


def certificate_inputs(seed: int, rnd: int) -> list[dict]:
    """Construction requests, in three cost clusters: connect and defect-n
    answer in 2-5 ms, commutator tricks in 4-9 ms, and derived connects,
    factorizations and searches in 10-150 ms.  The first and last clusters
    are the same size, so the median lies inside the tight middle one; the
    90th percentile lies among the factorizations."""
    rng = round_rng("certificates", seed, rnd)
    pool = preference_pool(5)
    out = []
    for i in range(60):
        n = 1 + i % 3
        out.append({"family": "connect", "sources": _tuple(rng, pool, n),
                    "targets": _tuple(rng, pool, n), "derived": False})
    for i in range(24):
        n = 1 + i % 2
        out.append({"family": "derived", "sources": _tuple(rng, pool, n),
                    "targets": _tuple(rng, pool, n), "derived": True})
    for _ in range(48):
        p, q = distinct_trees(rng, 4)
        node = ("tp", p, q, rng.randrange(4))
        out.append({"family": "factor", "node": node, "text": render(node)})
    for _ in range(72):
        p, q = distinct_trees(rng, 4)
        node = ("tp", p, q, rng.randrange(4))
        out.append({"family": "commutator", "node": node, "text": render(node),
                    "x": pool[rng.randrange(len(pool))],
                    "seed": rng.randrange(1000)})
    for i in range(24):
        out.append({"family": "defect-n", "n": 8 if i % 8 == 0 else 1 + rng.randrange(8)})
    for j in range(SEARCHES * rnd, SEARCHES * (rnd + 1)):
        k = DEFECT_SEARCH_SEEDS[j % len(DEFECT_SEARCH_SEEDS)]
        out.append({"family": "defect-search", "samples": 4, "seed": k})
    rng.shuffle(out)
    return out


# Sample points at which two maps are compared pointwise.
SAMPLES = [ZERO, TAU, TAU.times_tau_pow(1), ONE - TAU.times_tau_pow(2),
           TAU.times_tau_pow(3), Num(2, -3), Num(-1, 2), Num(3, -4)]
LINE_SAMPLES = SAMPLES + [Num(-2, 1), Num(3, 1), Num(-5, 2)]
