"""The library keeps one sampling path; the reference path lives in the tests.

These checks read the source, so a second path, a thread pool or a
dependency of ``masks`` on the sampler cannot come back unnoticed.
"""

import ast
from pathlib import Path

import sama

SRC = Path(sama.__file__).parent
ORACLE = Path(__file__).with_name("oracle.py")
REFERENCE_PATH = {
    "FragmentMosaic", "gather_mosaic_frame", "sample_fragments",
    "compose_spatial", "compose_temporal",
}


def _modules():
    return {p.stem: p for p in sorted(SRC.glob("*.py"))}


def _imports(path: Path) -> set[str]:
    """Absolute dotted names a file imports, each ``from`` module with and
    without its imported names (``from . import x`` in ``sama`` gives
    ``sama`` and ``sama.x``)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"sama.{base}".rstrip(".")
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def test_library_runs_no_threads():
    for name, path in _modules().items():
        imported = _imports(path)
        assert not {m for m in imported if m.split(".")[0] == "threading"}, name
        assert not {m for m in imported if m.startswith("concurrent")}, name
        assert "SAMA_THREADS" not in path.read_text(), name


def test_masks_depends_on_neither_fragments_nor_pack():
    imported = _imports(_modules()["masks"])
    assert not imported & {"sama.fragments", "sama.pack"}


def test_reference_path_is_not_in_the_library():
    for name, path in _modules().items():
        defined = {
            node.name
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        assert not defined & REFERENCE_PATH, name
    assert not set(sama.__all__) & REFERENCE_PATH


def test_oracle_shares_no_code_with_the_gather_it_checks():
    tree = ast.parse(ORACLE.read_text())
    assert REFERENCE_PATH <= {
        node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    used |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    assert not used & {"pixel_taps", "gather_taps"}
    assert not {m for m in _imports(ORACLE) if m.startswith("sama.pipeline")}
    assert "pipeline" not in used
