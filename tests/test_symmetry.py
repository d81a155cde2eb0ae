"""The 48 box maps, orbits, and the placement invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from latticecubes.census import CubeRecord, CubeRegistry, build_irreducible_list, build_multiples
from latticecubes.lattice_geometry import Cube, Frame, Vec3
from latticecubes.symmetry import InvariantSet, class_key, invariants, orbit_classes

from .published_data import TABLE1, PUBLISHED_MAPS_24
from .referee import (
    BOX_MAPS,
    apply_box_map,
    bounding_dim,
    brute_force_orbit_fill,
    build_cube_by_steps,
    canonical_form,
    generalized_orbit,
    symmetry_orbit,
    table_invariants,
    vertex_invariants,
)

UNIT = Cube.from_points(TABLE1[0][2])
ROW3 = Cube.from_points(TABLE1[1][2])
ROW5 = Cube.from_points(TABLE1[2][2])
ROW9 = Cube.from_points(TABLE1[4][2])
ROW15 = Cube.from_points(TABLE1[8][2])


def test_box_maps_complete():
    assert len(BOX_MAPS) == 48
    assert len(set(BOX_MAPS)) == 48


def test_published_24_plus_swap_is_the_full_group():
    # the published enumeration lists 24 maps; the other 24 arise by
    # precomposing with the coordinate reversal (x,y,z) -> (z,y,x),
    # which turns the permutation p into i -> 2 - p[i]
    w24 = set(PUBLISHED_MAPS_24)
    assert len(w24) == 24
    composed = {
        (tuple(2 - p for p in perm), flips) for perm, flips in w24
    }
    assert w24 | composed == set(BOX_MAPS)


def test_published_maps_act_like_swap_composition():
    d = bounding_dim(ROW3)
    swap = apply_box_map(ROW3, d, (2, 1, 0), (False, False, False))
    full = {apply_box_map(ROW3, d, p, f) for p, f in BOX_MAPS}
    half1 = {apply_box_map(ROW3, d, p, f) for p, f in PUBLISHED_MAPS_24}
    half2 = {apply_box_map(swap, d, p, f) for p, f in PUBLISHED_MAPS_24}
    assert half1 | half2 == full


def test_apply_box_map_identity_and_involution():
    ident = ((0, 1, 2), (False, False, False))
    assert apply_box_map(ROW5, 7, *ident) == ROW5
    flip_z = ((0, 1, 2), (False, False, True))
    once = apply_box_map(ROW5, 7, *flip_z)
    assert apply_box_map(once, 7, *flip_z) == ROW5


def test_symmetry_orbit_sizes():
    assert len(symmetry_orbit(UNIT)) == 1
    assert len(symmetry_orbit(ROW3)) == 4
    assert len(symmetry_orbit(ROW15)) == 48


def test_orbit_closed_under_reapplication():
    orbit = symmetry_orbit(ROW3)
    d = bounding_dim(ROW3)
    for img in orbit:
        for perm, flips in BOX_MAPS:
            assert apply_box_map(img, d, perm, flips) in orbit


def test_generalized_orbit_sizes():
    assert len(generalized_orbit(UNIT)) == 1
    assert len(generalized_orbit(ROW5)) == 18
    assert len(generalized_orbit(ROW9)) == 108


def test_invariants_match_published_table():
    for side, bound, verts, _, inv in TABLE1:
        c = Cube.from_points(verts)
        assert invariants(c.corner_edges()) == InvariantSet(*inv), (side, bound)


def test_invariants_against_direct_orbit_semantics():
    # alpha, beta, gamma restated directly on the generalized orbit:
    # size, members clear of the face z = d, members clear of z = d and y = d
    for side, bound, verts, _, _ in TABLE1:
        c = Cube.from_points(verts)
        inv = invariants(c.corner_edges())
        orbit = generalized_orbit(c)
        d = bounding_dim(c)
        assert inv.alpha == len(orbit)
        beta_direct = sum(
            1 for m in orbit if all(v.z < d for v in m.vertices)
        )
        gamma_direct = sum(
            1
            for m in orbit
            if all(v.z < d for v in m.vertices)
            and all(v.y < d for v in m.vertices)
        )
        assert inv.beta == beta_direct, (side, bound)
        assert inv.gamma == gamma_direct, (side, bound)


def test_beta_equals_translation_intersection():
    # members clear of z = d are exactly the orbit shifted down by one z step
    for side, bound, verts, _, _ in TABLE1:
        if bound > 15:
            continue
        c = Cube.from_points(verts)
        orbit = generalized_orbit(c)
        shifted = {m.translate(Vec3(0, 0, 1)) for m in orbit}
        assert invariants(c.corner_edges()).beta == len(orbit & shifted)


def test_gamma_equals_diagonal_translation_intersection():
    for side, bound, verts, _, _ in TABLE1:
        if bound > 15:
            continue
        c = Cube.from_points(verts)
        orbit = generalized_orbit(c)
        shifted = {m.translate(Vec3(0, -1, 1)) for m in orbit}
        assert invariants(c.corner_edges()).gamma == len(orbit & shifted)


def test_invariant_constraints_hold_on_registry(registry30):
    for rec in registry30.records:
        a0, a, b, g = rec.invariants
        assert 48 % a0 == 0
        assert a0 <= a
        assert g <= b <= a


def test_generalized_orbit_fill_consistency():
    # counting the orbit's translates inside its own box must give alpha
    for c in (UNIT, ROW3, ROW5):
        d = bounding_dim(c)
        assert brute_force_orbit_fill(c, d) == invariants(c.corner_edges()).alpha


def test_canonical_form_invariance():
    c = ROW9
    d = bounding_dim(c)
    base = canonical_form(c)
    for perm, flips in BOX_MAPS:
        assert canonical_form(apply_box_map(c, d, perm, flips)) == base
    assert canonical_form(c.translate(Vec3(-3, 14, 5))) == base
    assert canonical_form(c) != canonical_form(ROW3)


def test_orbit_classes_are_octant_forms():
    # one class key per octant form of the orbit, and a key does not
    # depend on where the cube sits
    octant_forms = {img.translate_to_octant() for img in symmetry_orbit(ROW5)}
    assert orbit_classes(ROW5.corner_edges()) == {class_key(f.corner_edges()) for f in octant_forms}
    assert len(orbit_classes(ROW5.corner_edges())) == len(octant_forms)
    for f in octant_forms:
        assert class_key(f.translate(Vec3(3, -2, 7)).corner_edges()) == class_key(f.corner_edges())


def _dilates_by_2_and_3(rec):
    """The invariants of the record's dilates by 2 and 3, by the census's
    dilate path (build_multiples), which reads them from the record."""
    reg = CubeRegistry(n_built=rec.side)
    reg.records.append(rec)
    return [m.invariants for m in build_multiples(3 * rec.bound_dim, reg)]


def test_stabilizer_kernel_matches_the_24_image_table():
    # the stabilizer counts against the table that lists all 24 images, on
    # every record to side 400 and its dilates by 2 and 3
    reg = build_irreducible_list(400)
    assert len(reg.records) == 2171
    for rec in reg.records:
        assert rec.invariants == invariants(rec.frame), rec.frame
        for j, inv in enumerate([rec.invariants, *_dilates_by_2_and_3(rec)], 1):
            assert (len(orbit_classes(rec.frame)), inv) == table_invariants(rec.frame, j), (rec.frame, j)


def _assert_kernel_matches_referee(frame, c):
    """The kernel on `frame` against the vertex referee on `c`, its cube."""
    inv = invariants(frame)
    orbit = symmetry_orbit(c)
    assert inv == vertex_invariants(c)
    assert inv.alpha0 == len(orbit)
    # the orbit-size identity the claim and the dilates read: alpha is the
    # orbit size times (1 + r0)(1 + r1)(1 + r2)
    r0, r1, r2 = (max(frame.extents()) - w for w in frame.extents())
    assert inv.alpha == len(orbit_classes(frame)) * (1 + r0) * (1 + r1) * (1 + r2)
    assert orbit_classes(frame) == {class_key(img.translate_to_octant().corner_edges()) for img in orbit}


def test_kernel_matches_referee_on_registry_and_dilations(registry50):
    cubes = [r.cube for r in registry50.records]
    cubes += [r.cube for r in build_multiples(50, registry50)]
    for c in cubes:
        _assert_kernel_matches_referee(c.corner_edges(), c)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kernel_matches_referee_on_box_images(registry50, data):
    rec = data.draw(st.sampled_from(registry50.records))
    j = data.draw(st.integers(1, 3), label="dilation")
    perm, flips = data.draw(st.sampled_from(BOX_MAPS), label="box map")
    shift = Vec3(*data.draw(st.tuples(*[st.integers(-40, 40)] * 3), label="translation"))
    base = rec.frame.scale(j).cube()
    moved = apply_box_map(base, bounding_dim(base), perm, flips).translate(shift)
    c = moved.translate_to_octant()
    _assert_kernel_matches_referee(c.corner_edges(), c)
    # a box image keeps the invariants and the orbit's classes
    assert class_key(moved.corner_edges()) in orbit_classes(base.corner_edges())
    assert invariants(c.corner_edges()) == invariants(base.corner_edges())
    assert orbit_classes(c.corner_edges()) == orbit_classes(base.corner_edges())


def test_kernel_at_origin_corner_matches_referee(registry50):
    # the referee chain's frame sits at the tetrahedron's origin corner, not
    # at the smallest vertex: the kernel's results must not depend on the corner
    records = registry50.records + build_multiples(50, registry50)
    for rec in records:
        frame = build_cube_by_steps(*rec.source)
        j = rec.side // frame.side  # dilation factor of a multiple
        frame = Frame(*(e.scale(j) for e in frame))
        assert class_key(frame) == class_key(rec.cube.corner_edges()), rec.source
        _assert_kernel_matches_referee(frame, rec.cube)


def _dilated_invariants(frame):
    return _dilates_by_2_and_3(CubeRecord(frame.side, max(frame.extents()), frame, invariants(frame), None))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_frame_of_a_cube_gives_the_same_kernel_results(registry50, data):
    # the kernel reads the extents and the lines +-e_i, which a frame of the
    # cube at another corner, with other edge signs or in another edge order
    # shares: each such frame gives the record's own results
    rec = data.draw(st.sampled_from(registry50.records))
    edges = list(rec.cube.corner_edges())
    perm = data.draw(st.permutations(range(3)), label="edge order")
    signs = data.draw(st.tuples(*[st.sampled_from((1, -1))] * 3), label="edge signs")
    frame = Frame(*(edges[p].scale(g) for p, g in zip(perm, signs)))
    for fn in (invariants, orbit_classes, _dilated_invariants):
        assert fn(frame) == fn(rec.frame), fn.__name__


def test_a_record_costs_one_kernel_pass_and_no_class_key(monkeypatch):
    # a record costs one kernel pass, its invariants (the claim reads its
    # orbit size from the record), and a dilate none (it reads its parent
    # record); the pass reads the frame's own edges: at N = 400, where
    # every record has k-value 1, the census computes no class key
    from latticecubes import census, symmetry

    calls, passes = [], []
    key, kernel = symmetry.class_key, symmetry._stabilizer

    def counted_key(frame):
        calls.append(frame)
        return key(frame)

    def counted_kernel(frame):
        passes.append(frame)
        return kernel(frame)

    monkeypatch.setattr(symmetry, "class_key", counted_key)
    monkeypatch.setattr(census, "class_key", counted_key)
    monkeypatch.setattr(symmetry, "_stabilizer", counted_kernel)
    reg = build_irreducible_list(400)
    assert len(passes) == len(reg.records) == 2171
    multiples = build_multiples(400, reg)
    parents = {m.source for m in multiples}
    assert (len(multiples), len(parents)) == (1252, 251)
    assert len(passes) == len(reg.records)
    assert len(calls) == 0
