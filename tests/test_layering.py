"""The library keeps one sampling path; the reference path lives in the tests.

These checks read the source, so a second path, a thread pool, a mapped
file read or a dependency of ``masks`` on the sampler cannot come back
unnoticed.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import sama
from sama import imageio

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


def test_library_maps_no_files():
    # file reads go through read() calls, so the bytes a run reads are
    # counted (e2ebench's read_mb_per_op reads rchar, which page faults skip)
    for name, path in _modules().items():
        assert not {m for m in _imports(path) if m.split(".")[0] == "mmap"}, name


def test_read_image_decodes_ppm_through_the_module_attribute(monkeypatch, tmp_path):
    # e2ebench counts decodes by wrapping sama.imageio.decode_ppm; a call
    # bound any other way would leave its decode counters at zero. A row
    # read decodes the rows it read.
    decoded = []
    real = imageio.decode_ppm

    def spy(data):
        out = real(data)
        decoded.append(out.shape)
        return out

    monkeypatch.setattr(imageio, "decode_ppm", spy)
    arr = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
    path = tmp_path / "a.ppm"
    path.write_bytes(imageio.encode_ppm(arr))
    assert np.array_equal(imageio.read_image(path), arr)
    assert np.array_equal(imageio.read_image(path, [1]), arr[1:])
    assert decoded == [(2, 3, 3), (1, 3, 3)]


def test_masks_depends_on_neither_fragments_nor_pack():
    imported = _imports(_modules()["masks"])
    assert not imported & {"sama.fragments", "sama.pack"}


def test_fragments_plans_from_dims_without_a_pyramid():
    # plan_level takes a level's dims and id, so planning needs no pyramid
    imported = _imports(_modules()["fragments"])
    assert not imported & {"sama.pyramid", "sama.pipeline"}


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
    assert not used & {"pixel_taps", "gather_taps", "coords", "plan_sampling", "SamplingPlan"}
    assert not {m for m in _imports(ORACLE) if m.startswith("sama.pipeline")}
    assert "pipeline" not in used


def test_public_names_resolve_once():
    assert len(sama.__all__) == len(set(sama.__all__))
    for name in sama.__all__:
        assert getattr(sama, name) is not None, name


def test_one_mask_type_and_one_frame_plan_path():
    # a spatial mask is an owner map (``indices``); the sampler reads it
    # with no two-level special case. A pixel's level coordinate is stated
    # once, by SamplingPlan.coords from the fragment offsets: no per-level
    # coordinate maps and no second frame plan.
    gone_names = (
        "InterlaceMask", "bitmap", "pick_a",
        "LevelPlan", "source_coord_maps", "offsets_array", "_frame_plan",
        "_frame_levels", "_Owner",
    )
    for name, path in _modules().items():
        text = path.read_text()
        for gone in gone_names:
            assert gone not in text, (name, gone)


def test_config_validation_asks_the_temporal_mask(monkeypatch):
    from sama import masks
    from sama.errors import BadArity, ConfigError
    from sama.media import SamplerConfig

    calls = []

    def refuse(kind, frames, n_levels):
        calls.append((kind, frames, n_levels))
        raise BadArity("refused by the mask")

    monkeypatch.setattr(masks, "make_temporal_mask", refuse)
    with pytest.raises(ConfigError, match="^refused by the mask$"):
        SamplerConfig().validate("video")
    assert calls == [("progressive", 32, 16)]


def test_mask_kinds_are_listed_only_in_masks():
    # a tuple, list or set literal naming two mask kinds restates a list of
    # kinds that masks.SPATIAL_KINDS / TEMPORAL_KINDS own; pack's container
    # codes, a dict, are checked against them in test_pack
    from sama import masks

    kinds = {*masks.SPATIAL_KINDS, *masks.TEMPORAL_KINDS} - {"none"}
    for name, path in _modules().items():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                named = {e.value for e in node.elts if isinstance(e, ast.Constant)} & kinds
                assert len(named) < 2, (name, node.lineno, sorted(named))


def test_one_frame_store_and_one_upscale_path():
    # a clip's frames are always store-backed, and a pyramid's levels read
    # the clip itself: a level larger than its source is no separate stage
    gone = {"_LazyFrames", "upscale_if_small", "bilinear_resize", "SourceFrames"}
    for name, path in _modules().items():
        defined = {
            node.name
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        assert not defined & gone, name
    assert not gone & set(sama.__all__)


def test_clip_frames_type_is_checked_only_at_construction():
    # every isinstance() whose subject is a ``frames`` attribute, or whose
    # type is the store-backed frames class, as (module, enclosing scope)
    frames_type = type(sama.MediaClip((sama.FrameBuffer(np.zeros((1, 1, 3), np.uint8)),)).frames)
    found = []

    def visit(module, node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "isinstance":
                subject, types = child.args
                named = {n.id for n in ast.walk(types) if isinstance(n, ast.Name)}
                if getattr(subject, "attr", None) == "frames" or frames_type.__name__ in named:
                    found.append((module, scope))
            visit(module, child, inner)

    for name, path in _modules().items():
        visit(name, ast.parse(path.read_text()), "")
    assert found == [("media", "MediaClip.__post_init__")]
