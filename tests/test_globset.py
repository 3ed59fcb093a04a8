import itertools

import pytest
from hypothesis import given, settings, strategies as st

from globop.collection import empty_collection
from globop.globset import (
    GlobMorphism,
    GlobularSet,
    check_glob_morphism,
    check_globularity,
    glob_set,
    parallel,
)


def identity_morphism(a_set: GlobularSet) -> GlobMorphism:
    return GlobMorphism({k: {c: c for c in a_set.cells_at(k)} for k in range(a_set.max_dim + 1)})


def two_cell_globe():
    # one 2-cell between two parallel arrows
    return glob_set(
        [["x", "y"], ["f", "g"], ["m"]],
        [{}, {"f": "x", "g": "x"}, {"m": "f"}],
        [{}, {"f": "y", "g": "y"}, {"m": "g"}],
    )


def test_empty_is_valid():
    assert check_globularity(empty_collection(3)).passed


def test_globe_is_valid():
    assert check_globularity(two_cell_globe()).passed


def test_corrupted_table_reports_one_violation():
    bad = glob_set(
        [["x", "y"], ["f", "g"], ["m"]],
        [{}, {"f": "x", "g": "y"}, {"m": "f"}],  # src(src m) != src(tgt m)
        [{}, {"f": "y", "g": "y"}, {"m": "g"}],
    )
    rep = check_globularity(bad)
    assert not rep.passed
    assert len(rep.violations) == 1


def test_parallel():
    g = two_cell_globe()
    assert parallel(g, 0, "x", "y")
    assert parallel(g, 1, "f", "f")
    assert parallel(g, 1, "f", "g")
    h = glob_set(
        [["x", "y"], ["f", "h"]],
        [{}, {"f": "x", "h": "y"}],
        [{}, {"f": "y", "h": "y"}],
    )
    assert not parallel(h, 1, "f", "h")
    with pytest.raises(KeyError):
        parallel(g, 1, "x", "f")


def naive_globular(g):
    """Direct quantifier translation of the two equations."""
    for k in range(2, g.max_dim + 1):
        for c in g.cells_at(k):
            s, t = g.src_of(k, c), g.tgt_of(k, c)
            if g.src_of(k - 1, s) != g.src_of(k - 1, t):
                return False
            if g.tgt_of(k - 1, s) != g.tgt_of(k - 1, t):
                return False
    return True


def test_checker_matches_naive_exhaustively():
    # all tables on two fixed layers of two cells, dims <= 2
    cells0 = ["a", "b"]
    cells1 = ["p", "q"]
    cells2 = ["u"]
    maps1 = list(itertools.product(cells0, repeat=2))
    maps2 = list(itertools.product(cells1, repeat=1))
    count = 0
    for s1 in itertools.product(maps1, repeat=1):
        for t1 in itertools.product(maps1, repeat=1):
            for s2 in maps2:
                for t2 in maps2:
                    g = glob_set(
                        [cells0, cells1, cells2],
                        [{}, dict(zip(cells1, s1[0])), {"u": s2[0]}],
                        [{}, dict(zip(cells1, t1[0])), {"u": t2[0]}],
                    )
                    assert check_globularity(g).passed == naive_globular(g)
                    count += 1
    assert count == 64


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_checker_matches_naive_random(data):
    sizes = [
        data.draw(st.integers(min_value=1, max_value=6), label=f"n{k}")
        for k in range(4)
    ]
    cells = [[(k, i) for i in range(n)] for k, n in enumerate(sizes)]
    src, tgt = [{}], [{}]
    for k in range(1, 4):
        src.append(
            {
                c: cells[k - 1][data.draw(st.integers(0, sizes[k - 1] - 1))]
                for c in cells[k]
            }
        )
        tgt.append(
            {
                c: cells[k - 1][data.draw(st.integers(0, sizes[k - 1] - 1))]
                for c in cells[k]
            }
        )
    g = glob_set(cells, src, tgt)
    assert check_globularity(g).passed == naive_globular(g)


def test_morphism_checks():
    g = two_cell_globe()
    assert check_glob_morphism(identity_morphism(g), g, g).passed
    arrows_only = glob_set(
        [["x", "y"], ["f", "g"]],
        [{}, {"f": "x", "g": "x"}],
        [{}, {"f": "y", "g": "y"}],
    )
    swapped = GlobMorphism({0: {"x": "x", "y": "y"}, 1: {"f": "g", "g": "f"}})
    assert check_glob_morphism(swapped, arrows_only, arrows_only).passed
    bad = GlobMorphism({0: {"x": "y", "y": "x"}, 1: {"f": "f", "g": "g"}})
    assert not check_glob_morphism(bad, arrows_only, arrows_only).passed
