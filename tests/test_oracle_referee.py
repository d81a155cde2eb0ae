"""The brute-force oracle against referees that share none of its code:
the all-pairs frame search and the full-ball vector scan it replaced,
and its placements one box at a time."""

from collections import Counter
from itertools import product

from latticecubes.oracle import _placements, _vectors_of_norm, brute_force_sequence, enumerate_frames

from .referee import frames_by_all_pairs, placements_by_box


def test_enumerate_frames_matches_the_all_pairs_search():
    # the same frames in the same order: pruning by the row norms loses none
    for s in (*range(1, 101), 169, 325, 425, 625):
        assert enumerate_frames(s) == frames_by_all_pairs(s), s


def test_vectors_of_norm_matches_a_ball_scan():
    # every vector of the cube |x|, |y|, |z| <= 44 bucketed by its norm: the
    # whole ball of each n2 <= 2000, squares and non-squares alike
    bound = 44
    by_norm = {n2: [] for n2 in range(2001)}
    for v in product(range(-bound, bound + 1), repeat=3):
        n2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
        if n2 <= 2000:
            by_norm[n2].append(v)
    for n2, vs in by_norm.items():
        assert _vectors_of_norm(n2) == sorted(vs), n2


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
