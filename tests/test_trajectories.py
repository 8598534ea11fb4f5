import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trajectories_oracle as oracle
from scenewise.errors import DescriptorOutOfRange, UnknownFormat
from scenewise.trajectories import (
    Trajectories,
    build_trajectories,
    export,
    export_csv,
    export_svg,
    parse_csv,
    parse_selection,
    rescale,
    select_descriptors,
    smooth,
)


def test_smooth_window_one_identity():
    x = np.array([0.2, 0.9, 0.4])
    assert np.array_equal(smooth(x, 1), x)


def test_smooth_constant_unchanged():
    x = np.full(7, 0.3)
    for w in (1, 3, 5, 7):
        assert np.allclose(smooth(x, w), x)


def test_smooth_edge_truncation():
    out = smooth([0.0, 1.0, 0.0], 3)
    assert np.allclose(out, [0.5, 1 / 3, 0.5])


def test_smooth_rejects_even_window():
    with pytest.raises(ValueError):
        smooth([1.0], 2)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0, 1), min_size=1, max_size=20),
       st.sampled_from([1, 3, 5, 7]))
def test_smooth_preserves_range(values, window):
    x = np.asarray(values)
    out = smooth(x, window)
    assert np.all(out >= x.min() - 1e-12)
    assert np.all(out <= x.max() + 1e-12)


def test_rescale_single_descriptor_all_ones():
    out = rescale(np.array([[0.4], [0.1], [0.9]]))
    assert np.allclose(out, 1.0)


def test_rescale_equal_weights():
    out = rescale(np.full((3, 4), 0.2))
    assert np.allclose(out, 0.25)


def test_rescale_matches_direct_normalization():
    rng = np.random.default_rng(4)
    rows = rng.random((6, 3))
    out = rescale(rows)
    assert np.allclose(out, rows / rows.sum(axis=1, keepdims=True))


def test_rescale_zero_scene_uniform():
    rows = np.array([[0.0, 0.0], [0.3, 0.1]])
    out = rescale(rows)
    assert np.allclose(out[0], [0.5, 0.5])
    assert np.allclose(out[1], [0.75, 0.25])


def test_rescaled_shares_form_simplex():
    rng = np.random.default_rng(5)
    weights = rng.random((10, 6))
    trajs = build_trajectories(weights, [0, 2, 5], window=3)
    assert trajs.descriptors == (0, 2, 5)
    assert trajs.shares.shape == (10, 3)
    assert np.allclose(trajs.shares.sum(axis=1), 1.0)
    assert np.all(trajs.shares >= 0)


def test_select_descriptors_top_m():
    weights = np.array([[0.1, 0.5, 0.2], [0.1, 0.6, 0.3]])
    assert select_descriptors(weights, "top:2") == [1, 2]
    assert select_descriptors(weights, "0,2") == [0, 2]
    with pytest.raises(ValueError):
        select_descriptors(weights, "0,9")


@pytest.mark.parametrize("selection", ["1,1", "0,2,0"])
def test_select_descriptors_rejects_duplicate_index(selection):
    weights = np.full((2, 3), 1 / 3)
    with pytest.raises(ValueError, match=f"duplicate.*{selection!r}"):
        select_descriptors(weights, selection)


@pytest.mark.parametrize("selection", ["1,,2", "0,", ",1", "", " "])
def test_select_descriptors_rejects_empty_item(selection):
    weights = np.full((2, 3), 1 / 3)
    with pytest.raises(ValueError, match=f"empty item.*{selection!r}"):
        select_descriptors(weights, selection)


@pytest.mark.parametrize("selection", ["top:x", "top:0", "top:-1", "top:",
                                       "a", "1,b"])
def test_select_descriptors_rejects_malformed_selection(selection):
    with pytest.raises(ValueError, match=repr(selection)):
        parse_selection(selection)
    with pytest.raises(ValueError, match=repr(selection)):
        select_descriptors(np.full((2, 3), 1 / 3), selection)


@pytest.mark.parametrize("selection", ["top:4", "3", "-1", "0,3"])
def test_select_descriptors_refuses_more_than_k_as_data_error(selection):
    with pytest.raises(DescriptorOutOfRange):
        select_descriptors(np.full((2, 3), 1 / 3), selection)
    assert select_descriptors(np.full((2, 3), 1 / 3), "top:3") == [0, 1, 2]


def _smooth_per_scene(values, window):
    """The per-scene loop that smooth replaces: one np.mean per scene."""
    x = np.asarray(values, dtype=np.float64)
    half = window // 2
    return np.array([x[max(0, i - half):i + half + 1].mean()
                     for i in range(x.size)])


@pytest.mark.parametrize("window", [1, 3, 5, 7, 9, 15])
def test_smooth_columns_match_per_scene_means(window):
    rng = np.random.default_rng(window)
    for n in (0, 1, 2, 5, 8, 13, 31):
        weights = rng.dirichlet(np.ones(6), size=n)
        selection = [0, 2, 3, 5]
        out = smooth(weights[:, selection], window)
        expected = np.stack([_smooth_per_scene(weights[:, i], window)
                             for i in selection], axis=1)
        if window <= 7:
            # sums of at most seven terms run in the same order both ways
            assert np.array_equal(out, expected)
        else:
            # from eight terms numpy sums pairwise, so the order can differ
            assert np.allclose(out, expected, rtol=4e-16 * window, atol=0)


@pytest.mark.parametrize("window", range(1, 42, 2))
def test_smooth_matches_the_window_view_oracle(window):
    # numpy sums a window of 9 or more terms in another order than a
    # shorter one; both forms must take the same order at every width
    rng = np.random.default_rng(window)
    for n in range(201):
        for shape in ((n,), (n, int(rng.integers(1, 7)))):
            x = rng.random(shape)
            got = smooth(x, window)
            assert got.shape == shape
            assert np.array_equal(got, oracle.smooth(x, window)), (n, shape)


def test_export_csv_shape_and_round_trip():
    rng = np.random.default_rng(6)
    weights = rng.random((3, 4))
    trajs = build_trajectories(weights, [0, 1], window=1)
    text = export_csv(trajs)
    lines = text.strip().split("\n")
    assert len(lines) == 4
    assert lines[0] == "scene,descriptor_0,descriptor_1"
    parsed = parse_csv(text)
    assert isinstance(parsed, Trajectories)
    assert parsed.descriptors == trajs.descriptors == (0, 1)
    assert np.array_equal(parsed.shares, trajs.shares)


def test_export_svg_deterministic():
    rng = np.random.default_rng(7)
    weights = rng.random((8, 5))
    trajs = build_trajectories(weights, [0, 1, 3], window=3)
    svg1 = export_svg(trajs, annotations=[(3, "A")], title="Example")
    svg2 = export_svg(trajs, annotations=[(3, "A")], title="Example")
    assert svg1 == svg2
    assert svg1.startswith("<svg")


def test_export_svg_marker_position():
    rng = np.random.default_rng(8)
    weights = rng.random((5, 2))
    trajs = build_trajectories(weights, [0, 1], window=1)
    svg = export_svg(trajs, annotations=[(2, "B")])
    # scene 2 of 5 sits at margin + plot_w * 1/4 = 50 + 700/4 = 225
    marker = re.search(r'<line x1="([0-9.]+)"', svg)
    assert marker is not None
    assert float(marker.group(1)) == pytest.approx(225.0, abs=1e-6)
    assert ">B</text>" in svg


def test_export_unknown_format():
    trajs = build_trajectories(np.ones((2, 2)), [0], window=1)
    with pytest.raises(UnknownFormat):
        export(trajs, "pdf")


def test_export_dispatch():
    trajs = build_trajectories(np.ones((2, 2)) * 0.5, [0, 1], window=1)
    assert export(trajs, "csv").startswith("scene,")
    assert export(trajs, "svg").startswith("<svg")


def _oracle_case(rng, i):
    """Weights, selection, window, annotations and title for case ``i``:
    the forms below hold one scene, one descriptor, tied column volumes,
    all-zero scenes, and markup and % signs in the labels."""
    n_scenes = 1 if i % 25 == 0 else int(rng.integers(1, 40))
    k = int(rng.integers(1, 10))
    m = 1 if i % 20 == 1 else int(rng.integers(1, k + 1))
    if i % 4 == 0:
        # few distinct values: equal columns, tied volumes and zero rows
        weights = rng.integers(0, 3, (n_scenes, k)) / 2.0
    else:
        weights = rng.dirichlet(np.ones(k), size=n_scenes)
        if i % 4 == 1:
            weights = np.round(weights, 1)
    if i % 5 == 3:
        weights[rng.random(n_scenes) < 0.4] = 0.0
    selection = [int(d) for d in rng.permutation(k)[:m]]
    window = int(rng.choice([1, 3, 5, 7]))
    # labels and titles holding % check that they are not read as formats
    annotations = [(int(rng.integers(1, n_scenes + 1)), label)
                   for label in ["A&<b>", "x > y", "", "50% %s"]
                   [:int(rng.integers(0, 5))]]
    title = ["", "T&<i>", "plain", "%d%%"][i % 4]
    return weights, selection, window, annotations, title


def test_exports_match_the_per_column_oracle():
    rng = np.random.default_rng(2201)
    for i in range(3000):
        weights, selection, window, annotations, title = _oracle_case(rng, i)
        new = build_trajectories(weights, selection, window)
        old = oracle.build_trajectories(weights, selection, window)
        pairs = [(new, old)]
        if i % 2 and len(selection) > 1:
            # two columns of one volume, summed in two scene orders
            shares = new.shares.copy()
            shares[:, 1] = rng.permutation(shares[:, 0])
            pairs.append((Trajectories(new.descriptors, shares),
                          [oracle.Trajectory(d, shares[:, j])
                           for j, d in enumerate(selection)]))
        for new, old in pairs:
            assert export_csv(new) == oracle.export_csv(old), i
            assert export_svg(new, annotations, title) == \
                oracle.export_svg(old, annotations, title), i


def test_svg_layers_stack_inside_out():
    # column 0 has the largest volume and lies in the middle, column 1
    # below it and column 2 above it
    trajs = Trajectories((0, 1, 2), np.array([[0.5, 1 / 3, 1 / 6]] * 4))
    label_y = {d: float(y) for y, d in
               re.findall(r'y="([0-9.]+)"[^>]*>d(\d)</text>', export_svg(trajs))}
    # the SVG's y grows downwards
    assert label_y["1"] > label_y["0"] > label_y["2"]
