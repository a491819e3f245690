"""Table-regeneration workloads: full-scale experiment passes, checked.

A pass runs every experiment of the workload serially at scale 1.0, in
one process, and yields its tables.  Tables are compared in a canonical
form: title, header and rows, numbers compared by value, and the
wall-clock columns listed in ``masks.json`` blanked (they time the
machine, not the model).  Notes are left out because EXPERIMENTS.md
carries hand-edited ones.

The reference a pass is checked against depends on the seed: seed 42
against the tables in EXPERIMENTS.md, the seeds under ``golden/``
against their committed digests, any other seed against the first pass
of the same run.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from pathlib import Path
from typing import Callable, Optional

from repro.experiments import ExperimentConfig
from repro.experiments.common import registry

HERE = Path(__file__).resolve().parent
EXPERIMENTS_MD = HERE.parent.parent / "EXPERIMENTS.md"
MASKS = json.loads((HERE / "masks.json").read_text())["masked_columns"]
GOLDEN_DIR = HERE / "golden"
REFERENCE_SEED = 42
MASKED = "~"

#: workload -> experiment ids (None: every experiment but E2).
WORKLOADS = {"tables-e2": ("E2",), "tables-rest": None}

_TITLE = re.compile(r"\*\*((E\d+[a-z]?):.*)\*\*$")
_EXPERIMENT_OF = re.compile(r"(E\d+)[a-z]?$")


def runners(workload: str) -> dict[str, Callable]:
    """Experiment id -> runner for the workload, in sorted-id order."""
    wanted = WORKLOADS[workload]
    return {exp_id: fn for exp_id, fn in sorted(registry().items())
            if (exp_id in wanted if wanted else exp_id != "E2")}


def _cell(value: str, masked: bool) -> str:
    if masked:
        return MASKED
    try:
        return repr(float(value))
    except ValueError:
        return value


def parse_tables(markdown: str) -> dict[str, list]:
    """Table id -> canonical ``[title, header, rows]`` for every
    ``**E<n>: title**`` table in a markdown document."""
    lines = markdown.splitlines()
    tables: dict[str, list] = {}
    for i, line in enumerate(lines):
        match = _TITLE.match(line.strip())
        if not match:
            continue
        j = i + 1
        while j < len(lines) and not lines[j].startswith("|") \
                and not _TITLE.match(lines[j].strip()):
            j += 1
        rows = []
        while j < len(lines) and lines[j].startswith("|"):
            rows.append([c.strip() for c in lines[j].strip().strip("|").split("|")])
            j += 1
        title, table_id = match.group(1), match.group(2)
        header = rows[0] if rows else []
        masked = set(MASKS.get(table_id, ()))
        body = [[_cell(v, h in masked) for h, v in zip(header, row)]
                for row in rows[2:]]
        tables[table_id] = [title, header, body]
    return tables


def digest(canonical: list) -> str:
    text = json.dumps(canonical, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def digests(tables: dict[str, list]) -> dict[str, str]:
    return {table_id: digest(t) for table_id, t in sorted(tables.items())}


def run_pass(experiments: dict[str, Callable], seed: int,
             wrap: Optional[Callable[[str, Callable], Callable]] = None
             ) -> tuple[float, dict[str, float], dict[str, str]]:
    """One pass: (wall s, per-experiment s, table digests)."""
    cfg = ExperimentConfig(seed=seed, scale=1.0, workers=1)
    produced = []
    per_experiment: dict[str, float] = {}
    started = time.perf_counter()
    for exp_id, fn in experiments.items():
        run = wrap(exp_id, fn) if wrap else fn
        t0 = time.perf_counter()
        produced.extend(run(cfg))
        per_experiment[exp_id] = time.perf_counter() - t0
    wall = time.perf_counter() - started
    markdown = "\n\n".join(table.to_markdown() for table in produced)
    return wall, per_experiment, digests(parse_tables(markdown))


def _golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def reference(workload: str, seed: int,
              experiment_ids: list[str]) -> tuple[str, Optional[dict[str, str]]]:
    """(source name, digests) of the reference tables; digests are None
    when the first pass of the run is the reference."""
    if seed == REFERENCE_SEED:
        tables = parse_tables(EXPERIMENTS_MD.read_text())
        mine = {t: c for t, c in tables.items()
                if _EXPERIMENT_OF.match(t).group(1) in experiment_ids}
        return "EXPERIMENTS.md", digests(mine)
    path = _golden_path(workload)
    golden = json.loads(path.read_text()) if path.exists() else {}
    if str(seed) in golden:
        return f"golden/{path.name}", golden[str(seed)]
    return "first pass", None


def mismatches(got: dict[str, str], want: dict[str, str]) -> list[str]:
    """Table ids that differ, are missing, or are unexpected."""
    return sorted(t for t in set(got) | set(want) if got.get(t) != want.get(t))


def write_golden(workload: str, seed: int, tables: dict[str, str]) -> Path:
    path = _golden_path(workload)
    golden = json.loads(path.read_text()) if path.exists() else {}
    golden[str(seed)] = tables
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return path
