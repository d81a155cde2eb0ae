"""The census: every irreducible cube up to grid size N, then NC(n).

Generation runs side by side: for each odd side s <= N ascending, each
k (triangle scale) dividing s ascending, each (m, n) (norm-form
solution) and each plane solution (a, b, c) of d = s/k (plane scale);
each tuple stands for one cube, built as its Frame (the three edges at
one corner) only when the accept pass needs it; candidates stream
through that pass.  Every cube comes from build_cube: the
Euler-Rodrigues frame of the quaternion that made its plane solution
(from the table diophantine.plane_quaternions keeps for the d the
stream has just solved), for k > 1 turned about its diagonal by the
divisor of norm k of the triangle's m + n*omega.  A cube is accepted
when it is genuinely new - not in the
generalized orbit of anything already recorded at the same side
length - and when the k = 1 pass could not have produced it (the
"exception" guard: for k > 1 the cube must not have 1 among its
k-values).  A k > 1 candidate stands for two triangles: that of its
(m, n), and then, when that triangle's cube is not accepted, the mirror
triangle (n - m, n), built and checked the same way (its turn is the
conjugate divisor).  solve_norm_form keeps only the 2m < n triangle of
each pair, and the mirror's cube can lie in an orbit no other candidate
reaches: without it the census falls 72 classes short of psi at side
63973 = 7*13*19*37.  A record keeps its
frame and its triangle's (m, n), and reads its k-values and, for output
only, its 8 vertices from the frame (CubeRecord.k_values, .cube).

One pass per record: its frame is built once, the guards (side, a gcd
of the nine integers) and the bounding dimension are read from the
frame's nine integers, and one kernel pass gives its invariants
(symmetry.invariants).  Every later reader takes its answer from the
record: the claim reads its keys from the frame and its orbit size from
its alpha and slack (CubeRegistry.claim), and build_multiples runs no
kernel pass: a dilate reads its parent's alpha0, orbit size and slack
from the parent's record.  So a census record costs exactly one kernel
pass, and nothing is cached between records.

A side is done at psi(s), its number of translation classes (below):
its k > 1 candidates are built only while the side is short of psi(s),
and passed over unbuilt once its records fill it.  Below side
7*13*19*31 = 53599 no side is ever short after its k = 1 candidates:
for an odd prime p dividing the side, a primitive frame is x*y^T mod p
with y isotropic, so p divides at most one of the four main-diagonal
gcds, which are the k-values.  A cube without k-value 1 therefore has
four distinct primes = 1 mod 3 in its side (the tests pin one of side
53599), every cube of a smaller side is reached by the k = 1 pass, and
there the census builds exactly the cubes that become records.

Deduplication is keyed by main diagonals (Frame.diagonals).  A main
diagonal of a side-s cube has norm 3 s^2, so its k-value is the gcd of
its coordinates (Frame.k_values), and a claim keeps the keys of the
k = 1 diagonals of its record: their sorted |coordinates|, as
diophantine.diagonal_key, the one definition of a diagonal key, gives
them.  A box map permutes and negates coordinates, so these keys are
the same for the whole orbit.
For k = 1 a key also fixes the orbit: in the triangle parametrization a
cube with a primitive main diagonal comes from the plane solution along
it and a solution of the norm form m^2 - mn + n^2 = 1, whose single
solution is (0, 1).  The plane solution (a, b, c) of a k = 1 candidate
is such a diagonal of the cube it builds, and plane_quaternions keys it
by the same diagonal_key, so the candidate is decided by that key
before its cube is built, and only the candidates that become
records are built (were two orbits to share a key, the second would be
dropped and the per-side check below would find its side short).  A
k > 1 candidate of a side still short is built for the k = 1 guard; a
cube without k-value 1 is claimed and looked up by the class keys of
its orbit (symmetry.orbit_classes).  Both kinds of key go into one set,
which holds the claims of one side only: a key cannot cross sides (a
diagonal key has norm 3 s^2, a class key edges of length s), so the set
starts empty at each side.  A diagonal key is 3 ints and a class key 3
edges, so they cannot collide.  A key claimed twice raises
ArithmeticError.

Each side ends with its own check, before the next side's candidates
are built: the orbit sizes of the records of side s sum to the number
of translation classes of primitive cubes of side s, which is Dedekind's
psi(s) for odd s, and there are none of even side.  After the last side
no odd side <= N may be missing.  With the double-claim raise, a lost,
duplicated or extra orbit fails loudly.

NC(n) is then a sum of placement counts: each record contributes
(t+1)^3 a - 3t(t+1)^2 b + 3(t+1)t^2 g with t = n - bound_dim, the
inclusion-exclusion of its generalized orbit sliding inside {0..n}^3.
The polynomial is linear in (a, b, g), so records sharing a bound_dim
are summed first (box_sums).  NC(1..N) comes from prefix sums of each
box's forward differences (sequence_from_boxes), so its cost grows as
N + boxes, not N * boxes; count_cubes takes its last term.
"""

from __future__ import annotations

from itertools import accumulate, chain, groupby
from math import gcd
from operator import add
from typing import Iterable, Iterator, NamedTuple, Optional

from .diophantine import (
    NormFormSolution,
    PlaneSolution,
    dedekind_psi,
    diagonal_key,
    k_values,
    solve_norm_form,
    solve_three_squares,
)
from .lattice_geometry import Cube, Frame, Vec3, build_cube
from .symmetry import ClassKey, Edge, InvariantSet, class_key, closed_form, invariants, orbit_classes

Candidate = tuple[int, NormFormSolution, int, PlaneSolution]  # (k, mn, d, sol)


class CubeRecord(NamedTuple):
    side: int
    bound_dim: int
    frame: Frame
    invariants: InvariantSet
    source: tuple[PlaneSolution, NormFormSolution]

    @property
    def k_values(self) -> frozenset[int]:
        """The k-values of the cube, read from its frame, so a dilate's are
        its parent's times j."""
        return frozenset(self.frame.k_values())

    @property
    def cube(self) -> Cube:
        """The octant-normalized 8 vertices, for output."""
        return self.frame.cube()


def _unit_diagonals(frame: Frame) -> list[Edge]:
    """The keys of the cube's main diagonals of k-value 1.

    A diagonal's k-value is the gcd of its coordinates (Frame.k_values).
    Its key is diophantine.diagonal_key, the one definition of a diagonal
    key, by which plane_quaternions also keys its solutions, so a k = 1
    candidate's plane solution is looked up among these keys.  A box map
    permutes and negates coordinates, so the keys are the same for every
    cube of the orbit.
    """
    return [diagonal_key(x, y, z) for x, y, z in frame.diagonals() if gcd(x, y, z) == 1]


class CubeRegistry:
    """Accepted irreducible cubes plus the claims of the side being accepted.

    claimed holds the keys of the records claimed at one side: the k = 1
    diagonal keys of each record (_unit_diagonals), or the class keys of
    its orbit (symmetry.class_key) for a record without k-value 1.  The
    accept pass empties it at the start of each side.  classes counts the
    translation classes claimed per side, the sum of the records' orbit
    sizes.
    """

    def __init__(self, n_built: int) -> None:
        self.n_built = n_built
        self.records: list[CubeRecord] = []
        self.claimed: set[Edge | ClassKey] = set()
        self.classes: dict[int, int] = {}

    def claim(self, record: CubeRecord) -> None:
        """Index the record's orbit; ArithmeticError naming its side if the
        orbit is claimed already, or if the record's alpha is no whole number
        of orbit classes.

        Everything is read from the record, with no kernel pass: the keys
        from its frame, and its orbit size from its alpha and its slack
        r = bound_dim - extents, by the orbit-size identity of the symmetry
        module.
        """
        side, bound_dim, frame, inv, _ = record
        (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = frame
        r0 = bound_dim - abs(x1) - abs(x2) - abs(x3)
        r1 = bound_dim - abs(y1) - abs(y2) - abs(y3)
        r2 = bound_dim - abs(z1) - abs(z2) - abs(z3)
        size, rest = divmod(inv.alpha, (1 + r0) * (1 + r1) * (1 + r2))
        if rest:
            raise ArithmeticError(f"side {side}: alpha {inv.alpha} of frame {frame} is no whole orbit size")
        keys = _unit_diagonals(frame) or orbit_classes(frame)
        if not self.claimed.isdisjoint(keys):
            raise ArithmeticError(f"side {side}: the orbit of frame {frame} is claimed twice")
        self.claimed.update(keys)
        self.records.append(record)
        self.classes[side] = self.classes.get(side, 0) + size

    def is_claimed(self, key: Edge | ClassKey) -> bool:
        """True iff `key` is claimed.  A claim holds its orbit's every key
        of one kind, so one key decides: a k = 1 diagonal key (a k = 1
        candidate's plane solution), or the class key of a cube without
        k-value 1."""
        return key in self.claimed


def _side_candidates(s: int, norm_forms: dict[int, list[NormFormSolution]]) -> Iterator[Candidate]:
    """The (k, mn, d, sol) tuples of side s in generation order: each k of
    norm_forms (k -> solve_norm_form(k), k ascending) that divides s, then
    each (m, n), then each plane solution of d = s/k."""
    for k, mns in norm_forms.items():
        if k > s:
            break
        if s % k == 0:
            d = s // k
            sols = solve_three_squares(d)
            for mn in mns:
                for sol in sols:
                    yield k, mn, d, sol


def _candidate_stream(N: int) -> Iterator[Candidate]:
    """The candidates of every odd side s <= N, s ascending."""
    norm_forms = {k: solve_norm_form(k) for k in k_values(N)}
    for s in range(1, N + 1, 2):
        yield from _side_candidates(s, norm_forms)


def _build_one(item: Candidate) -> Frame:
    """The candidate's checked frame, build_cube's: the accept pass's one
    builder, called only when it needs the frame.

    build_cube looks the plane solution's quaternion up in the table the
    stream computed for its d (plane_quaternions keeps the last d's), and
    for k > 1 turns that k = 1 frame by the triangle; a mirror triangle
    (n - m, n) takes the conjugate turn.  ValueError if the solution is
    not in its table.  The accept pass reads k-values only for the k = 1
    guard of a k > 1 candidate, built only while its side is short of
    psi(side); a record reads its own from its frame when asked.
    """
    _, mn, _, sol = item
    return build_cube(sol, mn)


def build_irreducible_list(N: int, threads: int = 1) -> CubeRegistry:
    """Registry of all irreducible cubes with side <= N.

    Candidates stream through the accept pass, which builds a frame only
    when it needs one.  threads is accepted and ignored: the census is
    one serial pass in the canonical order.  perfbench/tracing.py still
    passes it, until ROADMAP item 1 frees it.
    """
    if N < 1:
        raise ValueError("N must be positive")
    return _accept(N, _candidate_stream(N))


def _accept_side(reg: CubeRegistry, side: int, candidates: Iterable[Candidate]) -> None:
    """The accept pass over the candidates of one side, in order, with the
    claims of that side alone, building a candidate's frame (_build_one)
    only when it is needed; then the side's check of its translation
    classes against psi(side) (ArithmeticError naming the side).  The side
    is odd and at most reg.n_built: the census generates no other.

    psi(side) is also the rule that ends the side: a k = 1 candidate is
    decided by its diagonal key, and a k > 1 candidate is passed over
    unbuilt once the side's classes reach psi(side).  A k > 1 candidate
    whose cube has k-value 1 or a claimed orbit gives way to its mirror
    triangle (n - m, n), built and checked the same way; a
    record keeps the (m, n) of the triangle it came from."""
    reg.claimed = set()
    expected = dedekind_psi(side)
    side2 = side * side
    for item in candidates:
        k, mn, d, sol = item
        if k == 1:
            # decided by its plane solution, a k = 1 diagonal key of its cube
            if reg.is_claimed((sol.a, sol.b, sol.c)):
                continue
            frame = _build_one(item)
        elif expected == reg.classes.get(side, 0):
            continue  # the side is full
        else:
            # the candidate stands for its triangle and then the mirror triangle
            for mn in (mn, NormFormSolution(mn.n - mn.m, mn.n)):
                frame = _build_one((k, mn, d, sol))
                if not (1 in frame.k_values() or reg.is_claimed(class_key(frame))):
                    break
            else:
                continue  # each reachable by the k = 1 pass, or an orbit claimed by its class keys
        # the guards and the bounding dimension, on the frame's nine integers
        (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = frame
        if x1 * x1 + y1 * y1 + z1 * z1 != side2:
            raise ArithmeticError(f"pipeline cube side {frame.side} != d*k = {side}")
        if gcd(x1, y1, z1, x2, y2, z2, x3, y3, z3) != 1:
            raise ArithmeticError(f"pipeline cube with frame {frame} is reducible")
        bound_dim = max(abs(x1) + abs(x2) + abs(x3), abs(y1) + abs(y2) + abs(y3), abs(z1) + abs(z2) + abs(z3))
        reg.claim(CubeRecord(side, bound_dim, frame, invariants(frame), (sol, mn)))
    claimed = reg.classes.get(side, 0)
    if claimed != expected:
        raise ArithmeticError(f"side {side}: {claimed} translation classes claimed, expected {expected}")


def _accept(N: int, candidates: Iterable[Candidate]) -> CubeRegistry:
    """The accept pass: each run of candidates of one side (d*k) through
    _accept_side, then _accept_side with no candidates for each odd side
    <= N that had none, so the first of them fails its psi check.  A side
    met twice is counted twice and fails its check."""
    reg = CubeRegistry(n_built=N)
    for side, items in groupby(candidates, lambda item: item[0] * item[2]):
        _accept_side(reg, side, items)
    for s in range(1, N + 1, 2):
        if s not in reg.classes:
            _accept_side(reg, s, ())
    return reg


def build_multiples(N: int, reg: CubeRegistry) -> list[CubeRecord]:
    """Dilations j >= 2 of registry records with j * bound_dim <= N.

    A dilate's frame is its parent's times j, and so are its k-values,
    which a record reads from its frame.  Its invariants come from its
    parent's record with no kernel pass: the parent's alpha0, its orbit
    size alpha / ((1 + r0)(1 + r1)(1 + r2)) (the identity the claim reads),
    and its slack r = bound_dim - extents scaled by j, through
    symmetry.closed_form.
    """
    out = []
    for side, bound_dim, frame, (alpha0, alpha, _, _), source in (r for r in reg.records if 2 * r.bound_dim <= N):
        (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = frame
        r0 = bound_dim - abs(x1) - abs(x2) - abs(x3)
        r1 = bound_dim - abs(y1) - abs(y2) - abs(y3)
        r2 = bound_dim - abs(z1) - abs(z2) - abs(z3)
        size = alpha // ((1 + r0) * (1 + r1) * (1 + r2))
        for j in range(2, N // bound_dim + 1):
            dilated = Frame(Vec3(j * x1, j * y1, j * z1), Vec3(j * x2, j * y2, j * z2), Vec3(j * x3, j * y3, j * z3))
            inv = closed_form(alpha0, size, (j * r0, j * r1, j * r2))
            out.append(CubeRecord(j * side, j * bound_dim, dilated, inv, source))
    return out


def placement_count(N: int, d: int, inv: InvariantSet) -> int:
    """Distinct grid positions of a generalized orbit inside {0..N}^3."""
    if N < d:
        raise ValueError("grid size smaller than the cube's bounding box")
    t = N - d
    return (
        (t + 1) ** 3 * inv.alpha
        - 3 * t * (t + 1) ** 2 * inv.beta
        + 3 * (t + 1) * t * t * inv.gamma
    )


def box_sums(records: Iterable[CubeRecord]) -> dict[int, InvariantSet]:
    """Invariants summed per bounding dimension (alpha0 is not summed).

    placement_count is linear in (alpha, beta, gamma), so the records
    sharing a bounding box contribute one polynomial evaluation.
    """
    sums: dict[int, list[int]] = {}
    for _, bound_dim, _, (_, alpha, beta, gamma), _ in records:
        acc = sums.get(bound_dim)
        if acc is None:
            acc = sums[bound_dim] = [0, 0, 0]
        acc[0] += alpha
        acc[1] += beta
        acc[2] += gamma
    return {d: InvariantSet(0, *abg) for d, abg in sums.items()}


def sequence_from_boxes(N: int, boxes: dict[int, InvariantSet]) -> list[int]:
    """[NC(1), ..., NC(N)] from box_sums, by prefix sums.

    A box's placement_count is a cubic in t = n - d, so it equals
    sum over i <= 3 of C(t, i) times its i-th forward difference at
    t = 0.  C(n - d, i) is the (i+1)-fold prefix sum of a 1 at position
    d + i, so difference i goes into array A_i at d + i, and NC is
    P(A0 + P(A1 + P(A2 + P(A3)))) with P the prefix sum: four passes
    of exact integer sums, whatever the number of boxes.
    """
    diffs = [[0] * (N + 1) for _ in range(4)]
    for d, inv in boxes.items():
        f0, f1, f2, f3 = [placement_count(d + t, d, inv) for t in range(4)]
        for i, delta in enumerate((f0, f1 - f0, f2 - 2 * f1 + f0, f3 - 3 * f2 + 3 * f1 - f0)):
            if d + i <= N:
                diffs[i][d + i] += delta
    acc = [0] * (N + 1)
    for row in reversed(diffs):
        acc = list(accumulate(map(add, row, acc)))
    return acc[1:]


def count_cubes(N: int, reg: CubeRegistry, multiples: list[CubeRecord]) -> int:
    """NC(N): lattice cubes with all 8 vertices in {0..N}^3, the last term
    of sequence_from_boxes (0 for N < 1: no cube fits).  ValueError if the
    registry was built for a smaller N: its records would miss the sides
    above reg.n_built."""
    if reg.n_built < N:
        raise ValueError("registry was built for a smaller N")
    return sequence_from_boxes(N, box_sums(chain(reg.records, multiples)))[-1] if N >= 1 else 0


def sequence(N: int, registry: Optional[CubeRegistry] = None) -> list[int]:
    """[NC(1), ..., NC(N)] from a single registry build."""
    if N < 1:
        raise ValueError("N must be positive")
    if registry is None:
        registry = build_irreducible_list(N)
    elif registry.n_built < N:
        raise ValueError("registry was built for a smaller N")
    boxes = box_sums(chain(registry.records, build_multiples(N, registry)))
    return sequence_from_boxes(N, boxes)


def record_to_json(rec: CubeRecord) -> dict:
    """The record as JSON."""
    sol, mn = rec.source
    return {
        "side": rec.side,
        "bound_dim": rec.bound_dim,
        "cube": rec.cube.as_lists(),
        "k_values": sorted(rec.k_values),
        "invariants": list(rec.invariants),
        "source": {
            "a": sol.a,
            "b": sol.b,
            "c": sol.c,
            "d": sol.d,
            "m": mn.m,
            "n": mn.n,
        },
    }

