"""The brute-force oracle against referees that share none of its code:
the all-pairs frame search it replaced, a scan of the square for its
circles, and its placements one box at a time."""

from collections import Counter
from itertools import product

from latticecubes.oracle import _circle, _placements, brute_force_sequence, enumerate_frames

from .referee import frames_by_all_pairs, placements_by_box


def test_enumerate_frames_matches_the_all_pairs_search():
    # the same frames in the same order: pruning by the row norms loses none
    for s in (*range(1, 101), 169, 325, 425, 625):
        assert enumerate_frames(s) == frames_by_all_pairs(s), s


def test_circle_matches_a_square_scan():
    # every point of the square |y|, |z| <= 44 bucketed by its norm: the whole
    # circle of each r2 <= 2000, sums of two squares and other r2 alike
    bound = 44
    by_norm = {r2: [] for r2 in range(2001)}
    for p in product(range(-bound, bound + 1), repeat=2):
        r2 = p[0] * p[0] + p[1] * p[1]
        if r2 <= 2000:
            by_norm[r2].append(p)
    for r2, ps in by_norm.items():
        assert _circle(r2) == sorted(ps), r2


def test_placements_match_the_per_box_products():
    # class extents from the frames of every side s <= 60, summed here
    N = 60
    boxes = Counter()
    for s in range(1, N + 1):
        for frame in enumerate_frames(s):
            w = tuple(sum(abs(e[axis]) for e in frame) for axis in range(3))
            if max(w) <= N:
                boxes[w] += 1
    want = [placements_by_box(boxes, m) for m in range(1, N + 1)]
    assert brute_force_sequence(N) == want
    for n in range(1, N + 1):
        fitting = Counter({w: k for w, k in boxes.items() if max(w) <= n})
        assert _placements(fitting, n) == want[:n], n
