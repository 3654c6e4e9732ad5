import pytest

from oracle import is_symmetric
from terwilliger.tables import BlockDimTable


def small():
    return BlockDimTable(labels=["[1^3]", "[2,1]", "[3]"], dims=[[1, 1, 1], [1, 2, 1], [1, 1, 2]])


def test_shape_validation():
    with pytest.raises(ValueError):
        BlockDimTable(labels=["a"], dims=[[1, 2]])


def test_total_and_get():
    t = small()
    assert t.total() == 11
    assert t.get("[2,1]", "[2,1]") == 2
    assert is_symmetric(t)


def test_csv_layout():
    lines = small().to_csv().strip().splitlines()
    assert lines[0] == "row_label,col_label,dim"
    assert len(lines) == 10
    assert "[2,1],[2,1],2" in lines


def test_markdown_layout():
    md = small().to_markdown(corner="T")
    rows = md.strip().splitlines()
    assert rows[0].startswith("| ")
    assert "[2,1]" in rows[0]
    assert rows[1].startswith("|-")


def test_growth_rendering():
    base = small()
    newer = BlockDimTable(labels=base.labels, dims=[[1, 1, 1], [1, 4, 1], [1, 1, 2]])
    md = base.growth_markdown(newer)
    assert "2+2" in md
    assert "4" not in md.replace("2+2", "")


def test_growth_rejects_shrink():
    base = small()
    smaller = BlockDimTable(labels=base.labels, dims=[[1, 1, 1], [1, 1, 1], [1, 1, 2]])
    with pytest.raises(ValueError):
        base.growth_markdown(smaller)


def test_growth_rejects_label_mismatch():
    other = BlockDimTable(labels=["x", "y", "z"], dims=small().dims)
    with pytest.raises(ValueError):
        small().growth_markdown(other)
