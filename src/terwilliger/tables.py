"""Square label-indexed dimension tables with markdown/CSV rendering."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class BlockDimTable:
    """A (d+1) x (d+1) table of block dimensions indexed by class labels."""

    labels: list[str]
    dims: list[list[int]]

    def __post_init__(self):
        n = len(self.labels)
        if len(self.dims) != n or any(len(row) != n for row in self.dims):
            raise ValueError("table shape does not match labels")

    def total(self) -> int:
        return sum(sum(row) for row in self.dims)

    def get(self, row_label: str, col_label: str) -> int:
        return self.dims[self.labels.index(row_label)][self.labels.index(col_label)]

    def to_csv(self) -> str:
        lines = ["row_label,col_label,dim"]
        for a, la in enumerate(self.labels):
            for b, lb in enumerate(self.labels):
                lines.append(f"{la},{lb},{self.dims[a][b]}")
        return "\n".join(lines) + "\n"

    def to_markdown(self, corner: str = "") -> str:
        cells = [[corner] + self.labels]
        for a, la in enumerate(self.labels):
            cells.append([la] + [str(v) for v in self.dims[a]])
        return render_cells(cells)

    def growth_markdown(self, newer: "BlockDimTable", corner: str = "") -> str:
        """Render newer on top of self using the a+b growth convention."""
        if newer.labels != self.labels:
            raise ValueError("label mismatch between tables")
        cells = [[corner] + self.labels]
        for a, la in enumerate(self.labels):
            row = [la]
            for b in range(len(self.labels)):
                base, new = self.dims[a][b], newer.dims[a][b]
                if new < base:
                    raise ValueError(f"dimension dropped at ({la},{self.labels[b]})")
                row.append(f"{base}+{new - base}" if new > base else str(base))
            cells.append(row)
        return render_cells(cells)


def render_cells(cells: list[list[str]]) -> str:
    """Markdown table from a rectangular grid whose first row is the header."""
    widths = [max(len(row[c]) for row in cells) for c in range(len(cells[0]))]
    lines = []
    for i, row in enumerate(cells):
        lines.append(
            "| " + " | ".join(v.rjust(w) for v, w in zip(row, widths)) + " |"
        )
        if i == 0:
            lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    return "\n".join(lines) + "\n"
