"""Published reference data used as test fixtures.

TABLE1 holds the twelve rows of the published minimal-cube table
(side, bounding box, vertices, k-values, invariants).  The table is not
complete: there is a second side-19 cube (bound 29) that the published
run demonstrably included (its matrix appears in the published T_n
family, and the counts match); EXTRA_SIDE19 records it.

T_MATRICES holds the published (1/n)-scaled orthogonal matrices, keyed
by which cube they belong to.  The printed T9 has a typo in its first
row ((-7,-4,2) is not a lattice direction of length 9); the corrected
row is (-7,-4,4).

ORACLE_FROZEN holds NC(1..18) as the brute-force oracle gave them before
the census was written.
"""

TABLE1 = [
    # (side, bound_dim, vertices, k_values, (alpha0, alpha, beta, gamma))
    (1, 1, [[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1],
            [1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]], {1}, (1, 1, 0, 0)),
    (3, 5, [[0, 3, 2], [1, 1, 4], [2, 2, 0], [2, 5, 3],
            [3, 0, 2], [3, 3, 5], [4, 4, 1], [5, 2, 3]], {1, 3}, (4, 4, 0, 0)),
    (5, 7, [[0, 0, 4], [0, 5, 4], [3, 0, 0], [3, 5, 0],
            [4, 0, 7], [4, 5, 7], [7, 0, 3], [7, 5, 3]], {1}, (12, 18, 4, 0)),
    (7, 11, [[0, 6, 8], [2, 9, 2], [3, 0, 6], [5, 3, 0],
             [6, 8, 11], [8, 11, 5], [9, 2, 9], [11, 5, 3]], {1, 7}, (8, 8, 0, 0)),
    (9, 15, [[0, 5, 5], [4, 4, 13], [4, 13, 4], [7, 1, 1],
             [8, 12, 12], [11, 0, 9], [11, 9, 0], [15, 8, 8]], {1, 3},
     (24, 108, 48, 16)),
    (11, 19, [[0, 11, 13], [2, 2, 7], [6, 17, 6], [8, 8, 0],
              [9, 9, 19], [11, 0, 13], [15, 15, 12], [17, 6, 6]], {1},
     (24, 108, 48, 16)),
    (13, 19, [[0, 12, 15], [3, 16, 3], [4, 0, 12], [7, 4, 0],
              [12, 15, 19], [15, 19, 7], [16, 3, 16], [19, 7, 4]], {1, 13},
     (8, 8, 0, 0)),
    (13, 17, [[0, 0, 12], [0, 13, 12], [5, 0, 0], [5, 13, 0],
              [12, 0, 17], [12, 13, 17], [17, 0, 5], [17, 13, 5]], {1},
     (12, 30, 8, 0)),
    (15, 25, [[0, 5, 10], [2, 19, 15], [10, 0, 20], [11, 7, 0],
              [12, 14, 25], [13, 21, 5], [21, 2, 10], [23, 16, 15]], {1, 3},
     (48, 360, 176, 64)),
    (17, 29, [[0, 20, 9], [1, 8, 21], [12, 12, 0], [12, 29, 17],
              [13, 0, 12], [13, 17, 29], [24, 21, 8], [25, 9, 20]], {1},
     (24, 60, 16, 0)),
    (17, 23, [[0, 0, 15], [0, 17, 15], [8, 0, 0], [8, 17, 0],
              [15, 0, 23], [15, 17, 23], [23, 0, 8], [23, 17, 8]], {1},
     (12, 42, 12, 0)),
    (19, 31, [[0, 16, 10], [6, 6, 25], [10, 31, 16], [15, 10, 0],
              [16, 21, 31], [21, 0, 15], [25, 25, 6], [31, 15, 21]], {1, 19},
     (8, 8, 0, 0)),
]

# the side-19 cube the published table omits (bound 29; its matrix T19 IS
# in the published family, and the published counts include it from n=29)
EXTRA_SIDE19 = (19, 29, (24, 300, 160, 64))

# printed (1/n)-matrices, rows as printed; key = (side, bound) of the cube
# each belongs to
T_MATRICES = {
    (3, 5): [[1, -2, 2], [2, -1, -2], [-2, -2, -1]],
    (5, 7): [[4, 0, 3], [3, 0, -4], [0, -5, 0]],
    (7, 11): [[-2, -3, 6], [3, -6, -2], [-6, -2, -3]],
    (9, 15): [[-7, -4, 4], [4, 1, 8], [-4, 8, 1]],  # first row corrected
    (11, 19): [[2, -9, -6], [9, -2, 6], [-6, -6, 7]],
    (13, 19): [[-4, -12, -3], [12, -3, -4], [3, -4, 12]],
    (13, 17): [[0, -13, 0], [12, 0, 5], [-5, 0, 12]],
    (17, 29): [[12, -8, -9], [12, 9, 8], [1, -12, 12]],
    (17, 23): [[15, 0, 8], [8, 0, -15], [0, -17, 0]],
    (19, 29): [[6, -18, 1], [17, 6, 6], [-6, -1, 18]],
    (19, 31): [[15, -6, -10], [10, 15, 6], [6, -10, 15]],
}

# the printed T9 first row, kept to document the typo
T9_PRINTED_ROW1 = (-7, -4, 2)

# the large example cube quoted in the introduction of the source text;
# its side is 61 (the text itself never states the side)
EXAMPLE_CUBE = [[0, 56, 59], [21, 68, 3], [24, 0, 56], [45, 12, 0],
                [52, 77, 83], [73, 89, 27], [76, 21, 80], [97, 33, 24]]

# the 24 box transforms enumerated one by one in the published computation
# (permutation applied to input coordinates, then per-axis reflection);
# the other 24 arise by precomposing with the (z, y, x) swap
PUBLISHED_MAPS_24 = [
    (perm, flips)
    for perm in ((0, 1, 2), (1, 2, 0), (0, 2, 1))
    for flips in [(a, b, c) for a in (False, True)
                  for b in (False, True) for c in (False, True)]
]

ZYX_SWAP = (2, 1, 0)

# oracle ground truth, frozen from a brute_force_count run done before the
# census existed; the two published lists first disagree at n = 15 and the
# oracle sides with COUNTS_LISTED
ORACLE_FROZEN = {
    1: 1, 2: 9, 3: 36, 4: 100, 5: 229, 6: 473, 7: 910, 8: 1648,
    9: 2795, 10: 4469, 11: 6818, 12: 10032, 13: 14315, 14: 19907,
    15: 27190, 16: 36502, 17: 48233, 18: 62803,
}
