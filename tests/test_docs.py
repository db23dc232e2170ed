"""Documentation integrity tests.

Two guarantees, both CI-enforced (the docs job runs this module):

* **No dead links.** Every relative link and intra-repo anchor in the
  top-level markdown files and ``docs/`` resolves to an existing file
  (and, for ``#fragment`` links, an existing heading).
* **No drift.** The event-taxonomy and metrics-catalog tables of
  ``docs/observability.md`` are diffed against the code registries
  (``repro.obs.events.EVENT_TYPES``, ``repro.obs.instrument.METRIC_NAMES``),
  the engine-registry table of ``docs/performance.md`` against
  ``repro.sim.engine.ENGINES``, the oracle and adversary-class
  tables of ``docs/fuzzing.md`` against ``repro.fuzz.oracles.ORACLES``
  and ``repro.adversary.scripts.ADVERSARIES``, and the command, sink,
  and backpressure tables of ``docs/serving.md`` against the
  ``repro.serve`` registries — names,
  field sets, metric kinds, engine class names, and oracle descriptions
  must match exactly, so the documentation cannot fall behind the
  implementation.
"""

import re
from pathlib import Path

import pytest

from repro.fuzz.oracles import ORACLES
from repro.multiflow import MULTIFLOW_ENGINES
from repro.multiflow.workload import WORKLOAD_PROFILES
from repro.obs.events import BLOCK_REASONS, EVENT_TYPES
from repro.obs.instrument import METRIC_NAMES
from repro.sim.engine import DEFAULT_ENGINE, ENGINES

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = sorted(
    [
        REPO_ROOT / "README.md",
        REPO_ROOT / "DESIGN.md",
        REPO_ROOT / "EXPERIMENTS.md",
        REPO_ROOT / "ROADMAP.md",
        *(REPO_ROOT / "docs").glob("*.md"),
    ]
)

#: ``[text](target)`` — excluding images and raw URLs.
LINK_PATTERN = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")


def github_slug(heading: str) -> str:
    """The anchor GitHub generates for a markdown heading."""
    text = heading.strip().lower()
    text = re.sub(r"`", "", text)
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_slugs(path: Path) -> set:
    slugs = set()
    in_code = False
    for line in path.read_text().splitlines():
        if line.lstrip().startswith("```"):
            in_code = not in_code
            continue
        if not in_code and line.startswith("#"):
            slugs.add(github_slug(line.lstrip("#")))
    return slugs


def extract_links(path: Path):
    in_code = False
    for line in path.read_text().splitlines():
        if line.lstrip().startswith("```"):
            in_code = not in_code
            continue
        if in_code:
            continue
        yield from LINK_PATTERN.findall(line)


def test_doc_files_exist():
    assert [path.name for path in DOC_FILES], "no documentation files found"
    for path in DOC_FILES:
        assert path.is_file(), path


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda path: path.name)
def test_no_dead_links(doc):
    broken = []
    for target in extract_links(doc):
        if target.startswith(("http://", "https://", "mailto:")):
            continue  # external links are not checked offline
        path_part, _, fragment = target.partition("#")
        resolved = (doc.parent / path_part).resolve() if path_part else doc
        if not resolved.exists():
            broken.append(f"{target} (missing file)")
            continue
        if fragment and resolved.suffix == ".md":
            if fragment not in heading_slugs(resolved):
                broken.append(f"{target} (missing anchor #{fragment})")
    assert broken == [], f"{doc.name} has dead links: {broken}"


# ----------------------------------------------------------------------
# docs <-> code registry diffs
# ----------------------------------------------------------------------

OBSERVABILITY_DOC = REPO_ROOT / "docs" / "observability.md"
PERFORMANCE_DOC = REPO_ROOT / "docs" / "performance.md"
FUZZING_DOC = REPO_ROOT / "docs" / "fuzzing.md"
MULTIFLOW_DOC = REPO_ROOT / "docs" / "multiflow.md"
SERVING_DOC = REPO_ROOT / "docs" / "serving.md"

#: First-column labels that mark a table's header row.
HEADER_LABELS = (
    "Event",
    "Metric",
    "Reason",
    "Variable",
    "Engine",
    "Phase",
    "Workload",
    "Oracle",
    "Class",
    "Command",
    "Sink",
    "Policy",
)


def table_rows(section_heading: str, doc: Path = OBSERVABILITY_DOC):
    """Yield the cell lists of the markdown table under a heading."""
    lines = doc.read_text().splitlines()
    in_section = False
    for line in lines:
        if line.startswith("## "):
            in_section = line.strip() == section_heading
            continue
        if not in_section or not line.startswith("|"):
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if not cells or cells[0] in HEADER_LABELS:
            continue  # header row
        if set(cells[0]) <= {"-", " "}:
            continue  # separator row
        yield cells


def backticked(cell: str):
    return re.findall(r"`([^`]+)`", cell)


def test_event_table_matches_registry():
    documented = {}
    for cells in table_rows("## Event taxonomy"):
        names = backticked(cells[0])
        if len(cells) < 3 or len(names) != 1:
            continue  # the block-reason table or prose rows
        documented[names[0]] = tuple(backticked(cells[1]))
    assert set(documented) == set(EVENT_TYPES), (
        f"event table out of sync: documented {sorted(documented)}, "
        f"code has {sorted(EVENT_TYPES)}"
    )
    for name, event_type in EVENT_TYPES.items():
        assert documented[name] == event_type.fields, (
            f"{name}: documented fields {documented[name]} != "
            f"code fields {event_type.fields}"
        )


def test_block_reason_table_matches_registry():
    documented = set()
    for cells in table_rows("## Event taxonomy"):
        names = backticked(cells[0])
        if len(cells) == 2 and len(names) == 1:
            documented.add(names[0])
    assert documented == set(BLOCK_REASONS)


def test_metrics_table_matches_catalog():
    documented = {}
    for cells in table_rows("## Metrics catalog"):
        names = backticked(cells[0])
        if len(cells) < 3 or len(names) != 1:
            continue
        documented[names[0]] = cells[1]
    assert set(documented) == set(METRIC_NAMES), (
        f"metrics table out of sync: only in docs "
        f"{sorted(set(documented) - set(METRIC_NAMES))}, only in code "
        f"{sorted(set(METRIC_NAMES) - set(documented))}"
    )
    for name, spec in METRIC_NAMES.items():
        assert documented[name] == spec["kind"], (
            f"{name}: documented kind {documented[name]!r} != "
            f"code kind {spec['kind']!r}"
        )


def test_engine_table_matches_registry():
    """docs/performance.md's registry table names every engine, with the
    class that implements it — diffed against ``repro.sim.engine.ENGINES``
    — and says which engines run multi-commodity systems, diffed against
    ``repro.multiflow.MULTIFLOW_ENGINES``."""
    documented = {}
    multi_commodity = {}
    for cells in table_rows("## Engine registry", doc=PERFORMANCE_DOC):
        names = backticked(cells[0])
        if len(cells) < 3 or len(names) != 1:
            continue
        classes = backticked(cells[1])
        assert len(classes) == 1, f"expected one class in row for {names[0]}"
        documented[names[0]] = classes[0]
        assert len(cells) == 4, f"{names[0]}: no Multi-commodity column"
        multi_commodity[names[0]] = cells[3].split()[0]
        # The column may name only classes that exist.
        engine_classes = {engine.__name__ for engine in ENGINES.values()}
        assert set(backticked(cells[3])) <= engine_classes, cells[3]
    supported = {name for name, flag in multi_commodity.items() if flag == "yes"}
    assert supported == set(MULTIFLOW_ENGINES), (
        f"Multi-commodity column says {sorted(supported)}, "
        f"code supports {sorted(MULTIFLOW_ENGINES)}"
    )
    assert {
        flag for name, flag in multi_commodity.items() if name not in supported
    } <= {"no"}
    assert set(documented) == set(ENGINES), (
        f"engine table out of sync: documented {sorted(documented)}, "
        f"code has {sorted(ENGINES)}"
    )
    for name, engine_class in ENGINES.items():
        assert documented[name] == engine_class.__name__, (
            f"{name}: documented class {documented[name]!r} != "
            f"code class {engine_class.__name__!r}"
        )
    # The prose names the default; keep it honest too.
    assert f"`{DEFAULT_ENGINE}`" in PERFORMANCE_DOC.read_text()
    assert DEFAULT_ENGINE in ENGINES


def test_oracle_table_matches_registry():
    """docs/fuzzing.md's oracle table lists every registered oracle, in
    registry order, with the registry's own one-line description —
    diffed against ``repro.fuzz.oracles.ORACLES``."""
    documented = {}
    order = []
    for cells in table_rows("## Oracles", doc=FUZZING_DOC):
        names = backticked(cells[0])
        if len(cells) != 2 or len(names) != 1:
            continue
        documented[names[0]] = cells[1]
        order.append(names[0])
    assert set(documented) == set(ORACLES), (
        f"oracle table out of sync: only in docs "
        f"{sorted(set(documented) - set(ORACLES))}, only in code "
        f"{sorted(set(ORACLES) - set(documented))}"
    )
    assert order == list(ORACLES), (
        f"oracle table order {order} != registry order {list(ORACLES)}"
    )
    for name, oracle in ORACLES.items():
        assert documented[name] == oracle.description, (
            f"{name}: documented description {documented[name]!r} != "
            f"code description {oracle.description!r}"
        )


def test_adversary_table_matches_registry():
    """docs/fuzzing.md's adversary-class table lists every registered
    adversary, in registry order, with the registry's own one-line
    description — diffed against ``repro.adversary.scripts.ADVERSARIES``."""
    from repro.adversary.scripts import ADVERSARIES

    documented = {}
    order = []
    for cells in table_rows("## Adversary classes", doc=FUZZING_DOC):
        names = backticked(cells[0])
        if len(cells) != 2 or len(names) != 1:
            continue
        documented[names[0]] = cells[1]
        order.append(names[0])
    assert set(documented) == set(ADVERSARIES), (
        f"adversary table out of sync: only in docs "
        f"{sorted(set(documented) - set(ADVERSARIES))}, only in code "
        f"{sorted(set(ADVERSARIES) - set(documented))}"
    )
    assert order == list(ADVERSARIES), (
        f"adversary table order {order} != registry order {list(ADVERSARIES)}"
    )
    for name, script in ADVERSARIES.items():
        assert documented[name] == script.description, (
            f"{name}: documented description {documented[name]!r} != "
            f"code description {script.description!r}"
        )


def test_workload_table_matches_registry():
    """docs/multiflow.md's workload table lists every registered demand
    profile with the registry's own one-line description — diffed
    against ``repro.multiflow.workload.WORKLOAD_PROFILES``."""
    documented = {}
    for cells in table_rows("## Workload profiles", doc=MULTIFLOW_DOC):
        names = backticked(cells[0])
        if len(cells) != 2 or len(names) != 1:
            continue
        documented[names[0]] = cells[1]
    assert set(documented) == set(WORKLOAD_PROFILES), (
        f"workload table out of sync: only in docs "
        f"{sorted(set(documented) - set(WORKLOAD_PROFILES))}, only in code "
        f"{sorted(set(WORKLOAD_PROFILES) - set(documented))}"
    )
    for name, profile in WORKLOAD_PROFILES.items():
        assert documented[name] == profile.description, (
            f"{name}: documented description {documented[name]!r} != "
            f"code description {profile.description!r}"
        )


def test_commodity_metric_table_matches_catalog():
    """docs/multiflow.md's commodity-metric table mirrors the
    ``commodity.*`` rows of ``METRIC_NAMES`` — names and kinds."""
    expected = {
        name: spec
        for name, spec in METRIC_NAMES.items()
        if name.startswith("commodity.")
    }
    assert expected, "METRIC_NAMES lost its commodity.* family"
    documented = {}
    for cells in table_rows("## Commodity metrics", doc=MULTIFLOW_DOC):
        names = backticked(cells[0])
        if len(cells) < 3 or len(names) != 1:
            continue
        documented[names[0]] = cells[1]
    assert set(documented) == set(expected), (
        f"commodity metric table out of sync: documented "
        f"{sorted(documented)}, code has {sorted(expected)}"
    )
    for name, spec in expected.items():
        assert documented[name] == spec["kind"], (
            f"{name}: documented kind {documented[name]!r} != "
            f"code kind {spec['kind']!r}"
        )


def test_command_table_matches_registry():
    """docs/serving.md's command table lists every registered service
    command, in registry order, with the registry's own field list and
    one-line description — diffed against ``repro.serve.commands.COMMANDS``."""
    from repro.serve.commands import COMMANDS

    documented = {}
    order = []
    for cells in table_rows("## Command protocol", doc=SERVING_DOC):
        names = backticked(cells[0])
        if len(cells) != 3 or len(names) != 1:
            continue
        documented[names[0]] = (tuple(backticked(cells[1])), cells[2])
        order.append(names[0])
    assert set(documented) == set(COMMANDS), (
        f"command table out of sync: only in docs "
        f"{sorted(set(documented) - set(COMMANDS))}, only in code "
        f"{sorted(set(COMMANDS) - set(documented))}"
    )
    assert order == list(COMMANDS), (
        f"command table order {order} != registry order {list(COMMANDS)}"
    )
    for name, spec in COMMANDS.items():
        fields, description = documented[name]
        assert fields == spec.fields, (
            f"{name}: documented fields {fields} != code fields {spec.fields}"
        )
        assert description == spec.description, (
            f"{name}: documented description {description!r} != "
            f"code description {spec.description!r}"
        )


def test_sink_table_matches_registry():
    """docs/serving.md's sink table lists every registered sink, in
    registry order, with the registry's own one-line description —
    diffed against ``repro.serve.sinks.SINKS``."""
    from repro.serve.sinks import SINKS

    documented = {}
    order = []
    for cells in table_rows("## Sinks", doc=SERVING_DOC):
        names = backticked(cells[0])
        if len(cells) != 2 or len(names) != 1:
            continue
        documented[names[0]] = cells[1]
        order.append(names[0])
    assert set(documented) == set(SINKS), (
        f"sink table out of sync: only in docs "
        f"{sorted(set(documented) - set(SINKS))}, only in code "
        f"{sorted(set(SINKS) - set(documented))}"
    )
    assert order == list(SINKS), (
        f"sink table order {order} != registry order {list(SINKS)}"
    )
    for name, spec in SINKS.items():
        assert documented[name] == spec.description, (
            f"{name}: documented description {documented[name]!r} != "
            f"code description {spec.description!r}"
        )


def test_backpressure_table_matches_registry():
    """docs/serving.md's backpressure table mirrors
    ``repro.serve.buffer.BACKPRESSURE_POLICIES`` exactly."""
    from repro.serve.buffer import BACKPRESSURE_POLICIES

    documented = {}
    for cells in table_rows("## Backpressure", doc=SERVING_DOC):
        names = backticked(cells[0])
        if len(cells) != 2 or len(names) != 1:
            continue
        documented[names[0]] = cells[1]
    assert documented == dict(BACKPRESSURE_POLICIES), (
        f"backpressure table out of sync: docs {documented}, "
        f"code {dict(BACKPRESSURE_POLICIES)}"
    )


def test_metric_descriptions_are_nonempty():
    for name, spec in METRIC_NAMES.items():
        assert spec["kind"] in ("counter", "gauge", "histogram"), name
        assert spec["description"].strip(), name
