"""The package's public surface: what ``from trackvib import *`` gives,
which of its modules may import which, and that none imports scipy."""

import ast
from pathlib import Path

import trackvib

REMOVED = ("align_to_reference", "highpass", "spectrum", "SpectralSeries",
           "haversine_m", "AlignmentSeries", "ChordSpec",
           "AlignmentFailedError", "profile_spatial_series", "psd_spatial",
           "SpatialPSD")


def test_all_names_resolve_and_removed_names_stay_out():
    missing = [name for name in trackvib.__all__
               if not hasattr(trackvib, name)]
    assert missing == []
    assert len(set(trackvib.__all__)) == len(trackvib.__all__)
    assert [name for name in REMOVED
            if name in trackvib.__all__ or hasattr(trackvib, name)] == []


# The processing chain reads records and tables; the simulator only fakes
# them. The chain must not depend on the simulator or the command line.
CHAIN = ("errors", "layout", "timeseries", "spatial", "speed", "geometry",
         "comparison", "fileio", "pipeline")
# the rules the chain and the simulator share, each defined in layout only
LAYOUT_NAMES = ("G", "DEFAULT_WHEELBASE_M", "SIDES", "POSITIONS", "AXES",
                "channel_id", "parse_channel_id", "TRC_SPACING_M",
                "TRC_DECIMALS", "published", "SPEED_COLUMN", "COLUMN_PREFIXES",
                "GEOMETRY_COLUMN", "column_name", "SensorSpec", "SENSOR_SPECS")


def _modules() -> dict:
    """Module name -> parsed source, for every module of the package."""
    src = Path(trackvib.__file__).parent
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(src.glob("*.py"))}


def _imported(tree) -> set:
    """The package modules a module imports, wherever in it."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= ({a.name for a in node.names} if node.module is None
                      else {node.module.split(".")[0]})
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "trackvib":
            parts = node.module.split(".")
            found |= ({parts[1]} if len(parts) > 1
                      else {a.name for a in node.names})
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("trackvib.")}
    return found


def _bound(tree) -> set:
    """The names a module's top-level def, class or assignment binds."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return names


def test_chain_imports_neither_simulator_nor_cli():
    modules = _modules()
    bad = {m: sorted(_imported(modules[m]) & {"synthesizer", "cli"})
           for m in CHAIN if m in modules}
    assert {m: found for m, found in bad.items() if found} == {}
    assert set(CHAIN) <= modules.keys()
    assert _imported(modules["layout"]) <= {"errors"}


def test_layout_rules_are_defined_in_layout_only():
    bound = {m: _bound(tree) for m, tree in _modules().items()}
    where = {name: sorted(m for m, names in bound.items() if name in names)
             for name in LAYOUT_NAMES}
    assert where == {name: ["layout"] for name in LAYOUT_NAMES}


def test_no_module_imports_scipy():
    # the package depends on numpy alone; an import inside a function body
    # counts too, as it would fail where scipy is not installed
    def roots(node):
        if isinstance(node, ast.Import):
            return {a.name.split(".")[0] for a in node.names}
        if isinstance(node, ast.ImportFrom) and not node.level:
            return {node.module.split(".")[0]}
        return set()

    found = {m: sorted(n.lineno for n in ast.walk(tree)
                       if "scipy" in roots(n))
             for m, tree in _modules().items()}
    assert {m: lines for m, lines in found.items() if lines} == {}
