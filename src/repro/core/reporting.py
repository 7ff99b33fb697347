"""Result formatting and experiment recording.

The benchmark harness reproduces the paper's tables as lists of row
dictionaries; this module renders them as aligned text tables and
persists them as JSON so EXPERIMENTS.md can reference concrete runs.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

Number = Union[int, float]


def _format_cell(value: object, precision: int = 2) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 precision: int = 2) -> str:
    """Render an aligned plain-text table."""
    rendered = [[_format_cell(cell, precision) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


@dataclass
class ExperimentRecord:
    """One recorded experiment (a reproduced table or figure).

    Attributes:
        experiment_id: Paper artefact identifier (e.g. ``"table2"``).
        description: One-line description of what was reproduced.
        parameters: The knob values used for the run.
        rows: The result rows (list of flat dictionaries).
        created_at: Unix timestamp of the run.
    """

    experiment_id: str
    description: str
    parameters: Dict[str, object] = field(default_factory=dict)
    rows: List[Dict[str, object]] = field(default_factory=list)
    created_at: float = field(default_factory=time.time)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation."""
        return {
            "experiment_id": self.experiment_id,
            "description": self.description,
            "parameters": self.parameters,
            "rows": self.rows,
            "created_at": self.created_at,
        }


class ExperimentRecorder:
    """Collects :class:`ExperimentRecord` objects and writes them to disk."""

    def __init__(self, output_dir: Union[str, Path] = "results") -> None:
        self.output_dir = Path(output_dir)
        self.records: List[ExperimentRecord] = []

    def record(self, record: ExperimentRecord) -> ExperimentRecord:
        """Add a record to the in-memory collection."""
        self.records.append(record)
        return record

    def save(self, filename: Optional[str] = None) -> Path:
        """Write all records to a JSON file and return its path."""
        self.output_dir.mkdir(parents=True, exist_ok=True)
        name = filename or f"experiments_{int(time.time())}.json"
        path = self.output_dir / name
        payload = [record.to_dict() for record in self.records]
        path.write_text(json.dumps(payload, indent=2, default=str))
        return path

    @staticmethod
    def load(path: Union[str, Path]) -> List[ExperimentRecord]:
        """Load records previously written by :meth:`save`."""
        raw = json.loads(Path(path).read_text())
        return [
            ExperimentRecord(
                experiment_id=item["experiment_id"],
                description=item["description"],
                parameters=item.get("parameters", {}),
                rows=item.get("rows", []),
                created_at=item.get("created_at", 0.0),
            )
            for item in raw
        ]
