"""Command-line front end.

Subcommands: sample-image, sample-video, preview, masks, bench,
attn-check, verify. Configuration comes from defaults, then an optional
JSON config file, then flags (flags win). Exit codes: 0 success, 1
configuration error, 2 I/O or input-format error, 3 pipeline or property
violation, 141 standard output closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import imageio
from .errors import (
    BadArity,
    ConfigError,
    CorruptFile,
    EmptyClip,
    IndivisibleDims,
    InsufficientFrames,
    MixedDimensions,
    SamaError,
    UnsupportedFormat,
)
from .masks import make_interlace_mask, make_spatial_mask, make_temporal_mask, temporal_levels
from .media import (
    OFFSET_POLICIES,
    SPATIAL_MASK_KINDS,
    TEMPORAL_MASK_KINDS,
    MediaClip,
    SamplerConfig,
    load_clip,
    load_image,
    select_frames,
    split_snippets,
)
from .pack import (
    SampledTensor,
    container_bytes,
    provenance_audit,
    read_container,
    render_preview,
    write_container,
)
from .pipeline import sample_image, sample_video
from .scalehead import run_property_suite

PREVIEW_STYLES = ("plain", "tinted", "bordered")

INFER_SELECT_FRAMES = 128
INFER_SNIPPETS = 4

_IO_ERRORS = (
    OSError,
    UnsupportedFormat,
    CorruptFile,
    EmptyClip,
    MixedDimensions,
    InsufficientFrames,
)

# JSON config schema: key -> accepted python types; the sampler keys are
# SamplerConfig's fields, typed by their defaults
_SAMPLER_KEYS = {f.name: (type(f.default),) for f in fields(SamplerConfig)}
_CONFIG_SCHEMA: dict[str, tuple[type, ...]] = {
    **_SAMPLER_KEYS,
    "input": (str,),
    "out": (str,),
    "preview": (str,),
    "infer": (bool,),
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors as ConfigError (exit 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _positive_int(text: str) -> int:
    """argparse ``type=`` for counts and sizes: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _parse_pair(text: str, what: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split("x")
        pair = int(a), int(b)
    except ValueError as exc:
        raise ConfigError(f"{what} must look like 7x7, got {text!r}") from exc
    if min(pair) < 1:
        raise ConfigError(f"{what} values must be >= 1, got {text!r}")
    return pair


def load_run_config(path: str | Path) -> dict:
    """Read and strictly validate a JSON config document."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    for key, value in doc.items():
        accepted = _CONFIG_SCHEMA.get(key)
        if accepted is None:
            raise ConfigError(f"unknown config key {key!r}")
        if not isinstance(value, accepted) or isinstance(value, bool) != (
            accepted == (bool,)
        ):
            raise ConfigError(
                f"config key {key!r} must be {accepted[0].__name__}, "
                f"got {type(value).__name__}"
            )
    return doc


def _resolve_config(args, kind: str) -> tuple[SamplerConfig, dict]:
    """defaults < config file < flags; returns (SamplerConfig, extras)."""
    doc = load_run_config(args.config) if args.config else {}
    values = {k: v for k, v in doc.items() if k in _SAMPLER_KEYS}
    extras = {k: v for k, v in doc.items() if k not in _SAMPLER_KEYS}

    if args.grid:
        values["grid_rows"], values["grid_cols"] = _parse_pair(args.grid, "--grid")
    if args.frag:
        values["frag_h"], values["frag_w"] = _parse_pair(args.frag, "--frag")
    if getattr(args, "frames", None) is not None:
        values["frames_out"] = args.frames
    if args.scales is not None:
        values["n_scales"] = args.scales
    if args.spatial_mask is not None:
        values["spatial_mask"] = args.spatial_mask
    if getattr(args, "temporal_mask", None) is not None:
        values["temporal_mask"] = args.temporal_mask
    if args.offset is not None:
        values["offset_policy"] = args.offset
    if args.seed is not None:
        values["seed"] = args.seed
    if getattr(args, "aligned_offsets", False):
        values["aligned_offsets"] = True

    base = SamplerConfig() if kind == "video" else SamplerConfig.iqa_default()
    if kind == "image":
        values.setdefault("temporal_mask", "none")
        values.setdefault("frames_out", 1)
    if "n_scales" not in values:
        # the level count the temporal mask takes (an unknown kind is left
        # to validate), else the two levels a spatial mask interlaces
        temporal = values.get("temporal_mask", base.temporal_mask)
        if temporal != "none" and temporal in TEMPORAL_MASK_KINDS:
            frames = values.get("frames_out", base.frames_out)
            values["n_scales"] = temporal_levels(temporal, frames)
        else:
            values["n_scales"] = 2 if values.get("spatial_mask", base.spatial_mask) != "none" else 1
    config = replace(base, **values)
    config.validate(kind)
    return config, extras


def _print_shares(tensor: SampledTensor) -> None:
    shares = tensor.scale_shares()
    parts = [f"scale {s}: {frac:.1%}" for s, frac in sorted(shares.items())]
    print("per-scale pixel shares: " + "  ".join(parts))


def _write_previews(tensor: SampledTensor, style: str, out: Path) -> None:
    frames = render_preview(tensor, style)
    stem, suffix = out.stem, ".png"
    if tensor.frames_out == 1:
        imageio.write_image(out.with_name(f"{stem}_preview{suffix}"), frames[0].data)
    else:
        for i, frame in enumerate(frames):
            imageio.write_image(
                out.with_name(f"{stem}_preview_f{i:03d}{suffix}"), frame.data
            )


# ---------------------------------------------------------------------------
# Subcommands


def cmd_sample_image(args) -> int:
    config, extras = _resolve_config(args, "image")
    inp = args.input or extras.get("input")
    out = args.out or extras.get("out")
    if not inp or not out:
        raise ConfigError("sample-image needs an input file and --out")
    frame = load_image(inp)
    result = sample_image(frame, config)
    write_container(result.tensor, out)
    style = args.preview or extras.get("preview")
    if style:
        _write_previews(result.tensor, style, Path(out))
    _print_shares(result.tensor)
    print(f"wrote {out}")
    return 0


def cmd_sample_video(args) -> int:
    config, extras = _resolve_config(args, "video")
    inp = args.input or extras.get("input")
    out = args.out or extras.get("out")
    if not inp or not out:
        raise ConfigError("sample-video needs an input directory and --out")
    clip = load_clip(inp)
    infer = args.infer or bool(extras.get("infer"))
    style = args.preview or extras.get("preview")
    jobs = [(clip, Path(out))]
    if infer:
        pool = select_frames(clip, INFER_SELECT_FRAMES, config.seed, config.offset_policy)
        snippets = split_snippets(pool, config.frames_out, INFER_SNIPPETS)
        out_path = Path(out)
        jobs = [
            (snippet, out_path.with_name(f"{out_path.stem}_snip{i}{out_path.suffix}"))
            for i, snippet in enumerate(snippets)
        ]
    for snippet, path in jobs:
        result = sample_video(snippet, config)
        write_container(result.tensor, path)
        if style:
            _write_previews(result.tensor, style, path)
        _print_shares(result.tensor)
        print(f"wrote {path}")
    return 0


def cmd_preview(args) -> int:
    tensor = read_container(args.input)
    grid_rows = grid_cols = None
    if args.grid:
        grid_rows, grid_cols = _parse_pair(args.grid, "--grid")
    elif args.style == "bordered" and tensor.grid is None:
        raise ConfigError("bordered preview of a loaded container needs --grid RxC")
    frames = render_preview(tensor, args.style, grid_rows, grid_cols)
    out = Path(args.out)
    if len(frames) == 1:
        imageio.write_image(out, frames[0].data)
        print(f"wrote {out}")
    else:
        for i, frame in enumerate(frames):
            path = out.with_name(f"{out.stem}_f{i:03d}{out.suffix}")
            imageio.write_image(path, frame.data)
        print(f"wrote {len(frames)} frames next to {out}")
    return 0


def cmd_masks(args) -> int:
    if args.action != "dump":
        raise ConfigError(f"unknown masks action {args.action!r}")
    out_h, out_w = _parse_pair(args.size, "--size")
    # every mask is built before anything is written: a flag value no mask
    # accepts is a configuration error and leaves no files behind
    tmask = None
    try:
        if args.scales is None:
            mask = make_spatial_mask(args.spatial_mask, out_h, out_w)
            n_levels = 2
        else:
            mask = make_interlace_mask(args.scales, out_h, out_w, args.block)
            n_levels = args.scales
        if args.temporal_mask and args.temporal_mask != "none":
            levels = temporal_levels(args.temporal_mask, args.frames)
            tmask = make_temporal_mask(args.temporal_mask, args.frames, levels)
    except (BadArity, IndivisibleDims) as exc:
        raise ConfigError(str(exc)) from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for s in range(n_levels):
        indicator = np.where(mask.indices == s, 255, 0).astype(np.uint8)
        path = out_dir / f"mask_{mask.kind}_scale{s}.pgm"
        path.write_bytes(imageio.encode_pgm(indicator))
        print(f"wrote {path}")
    if tmask is not None:
        print(f"{args.temporal_mask} schedule (per frame pair): {list(tmask.schedule)}")
    return 0


def cmd_bench(args) -> int:
    height, width = _parse_pair(args.size, "--size")
    reps = args.reps
    config, _ = _resolve_config(args, "image")
    stats = bench_mod.bench_image(height, width, config, reps, args.seed or 0)
    print(f"image pipeline on {height}x{width}, {reps} reps")
    print(f"{'stage':<12}{'median ms':>12}{'p95 ms':>12}")
    for name in bench_mod.BENCH_STAGES:
        st = stats[name]
        print(f"{name:<12}{st.median * 1e3:>12.3f}{st.p95 * 1e3:>12.3f}")
    cmp = bench_mod.compare_single_vs_interlaced(height, width, reps, args.seed or 0)
    print(
        "fragment+compose: single-scale "
        f"{cmp['single_scale'] * 1e3:.3f} ms, two-scale interlace "
        f"{cmp['interlaced'] * 1e3:.3f} ms (ratio {cmp['ratio']:.2f})"
    )
    scaling = bench_mod.pyramid_scaling(height, width, reps=max(reps // 3, 3))
    line = ", ".join(f"{n} levels: {t * 1e3:.2f} ms" for n, t in scaling.items())
    print(f"pyramid interpolation vs level count: {line}")
    return 0


def cmd_attn_check(args) -> int:
    results = run_property_suite(seeds=args.seeds)
    failed = _print_property_table(results)
    return 3 if failed else 0


def _print_property_table(results) -> int:
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += 0 if r.passed else 1
        print(f"{status}  {r.name:<{width}}  {r.detail}")
    return failed


def cmd_verify(args) -> int:
    failures = 0
    lap = time.perf_counter()

    def check(name: str, passed: bool, detail: str = "") -> None:
        """Print one result with the wall time since the previous one."""
        nonlocal failures, lap
        now = time.perf_counter()
        elapsed = f"{(now - lap) * 1e3:.1f} ms"
        lap = now
        status = "PASS" if passed else "FAIL"
        failures += 0 if passed else 1
        suffix = f"{detail}, {elapsed}" if detail else elapsed
        print(f"{status}  {name} ({suffix})")

    # gather audits on fresh runs
    frame = bench_mod.synthetic_frame(600, 800, seed=11)
    icfg = SamplerConfig.iqa_default(offset_policy="random", seed=7)
    ires = sample_image(frame, icfg)
    if args.inject_fault:
        ires.tensor.data[0, 5, 5, 0] ^= 0xFF
    report = provenance_audit(ires.tensor, ires.pyramid)
    check(
        "image gather audit",
        report.ok,
        f"{report.mismatches} mismatches over {report.total_pixels} pixels",
    )

    clip = bench_mod.synthetic_clip(240, 320, 6, seed=12)
    vcfg = SamplerConfig(frames_out=8, n_scales=4, offset_policy="random", seed=9)
    vres = sample_video(clip, vcfg)
    vreport = provenance_audit(vres.tensor, vres.pyramid)
    check(
        "video gather audit",
        vreport.ok,
        f"{vreport.mismatches} mismatches over {vreport.total_pixels} pixels",
    )

    # mask partitions: the indices of an n-level mask take exactly the
    # values 0..n-1, so every pixel has one owner and every level some pixels
    ok = True
    for mask, n in (
        (make_spatial_mask("window", 224, 224), 2),
        (make_spatial_mask("patch", 224, 224), 2),
        (make_interlace_mask(3, 256, 256, 32), 3),
        (make_interlace_mask(4, 256, 256, 32), 4),
    ):
        ok &= np.array_equal(np.unique(mask.indices), np.arange(n))
    check("mask partition of unity", ok)

    # temporal schedules
    prog = make_temporal_mask("progressive", 32, 16).schedule
    chop = make_temporal_mask("choppy", 32, 16).schedule
    mix = make_temporal_mask("mixed", 32, 8).schedule
    sched_ok = (
        prog == tuple(range(16))
        and chop == tuple(0 if i % 2 == 0 else 15 for i in range(16))
        and mix == tuple(range(8)) * 2
    )
    check("temporal schedules", sched_ok)

    # determinism replay
    blobs = [
        container_bytes(sample_video(clip, vcfg).tensor)
        for _ in range(max(args.seed_replay, 2))
    ]
    check("determinism replay", all(b == blobs[0] for b in blobs), f"{len(blobs)} runs")

    results = run_property_suite(seeds=args.seeds)
    failures += _print_property_table(results)
    return 3 if failures else 0


# ---------------------------------------------------------------------------
# Parser


def _add_sampler_flags(p: _Parser, video: bool) -> None:
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--grid", help="grid as RxC, e.g. 7x7")
    p.add_argument("--frag", help="fragment size as HxW, e.g. 32x32")
    if video:
        p.add_argument("--frames", type=int, help="output frame count")
        p.add_argument(
            "--temporal-mask", choices=TEMPORAL_MASK_KINDS, dest="temporal_mask"
        )
    p.add_argument("--scales", type=int, help="pyramid level count")
    p.add_argument("--spatial-mask", choices=SPATIAL_MASK_KINDS, dest="spatial_mask")
    p.add_argument("--offset", choices=OFFSET_POLICIES, help="fragment offset policy")
    p.add_argument("--seed", type=int)
    p.add_argument("--aligned-offsets", action="store_true", dest="aligned_offsets")
    p.add_argument("--preview", choices=PREVIEW_STYLES)
    p.add_argument("--out", help="output container path")


def build_parser() -> _Parser:
    parser = _Parser(prog="sama", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample-image", help="sample one image into a container")
    p.add_argument("input", nargs="?", help="PNG or PPM file")
    _add_sampler_flags(p, video=False)
    p.set_defaults(func=cmd_sample_image)

    p = sub.add_parser("sample-video", help="sample a frame directory")
    p.add_argument("input", nargs="?", help="directory of frame_NNNNNN images")
    _add_sampler_flags(p, video=True)
    p.add_argument(
        "--infer",
        action="store_true",
        help=f"select {INFER_SELECT_FRAMES} frames and emit {INFER_SNIPPETS} snippet containers",
    )
    p.set_defaults(func=cmd_sample_video)

    p = sub.add_parser("preview", help="render a container to an image")
    p.add_argument("input", help="container file")
    p.add_argument("--style", choices=PREVIEW_STYLES, default="plain")
    p.add_argument("--grid", help="grid RxC (needed for bordered style)")
    p.add_argument("--out", required=True, help="output .png or .ppm path")
    p.set_defaults(func=cmd_preview)

    p = sub.add_parser("masks", help="dump masks for visual inspection")
    p.add_argument("action", choices=["dump"])
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--size", default="224x224", help="mask dims HxW")
    p.add_argument(
        "--spatial-mask", choices=("window", "patch"), default="window", dest="spatial_mask"
    )
    p.add_argument(
        "--scales", type=int, choices=(3, 4), help="dump a 3- or 4-scale interlace"
    )
    p.add_argument(
        "--block", type=_positive_int, default=32, help="interlace block size (default 32)"
    )
    p.add_argument(
        "--temporal-mask", choices=TEMPORAL_MASK_KINDS, dest="temporal_mask"
    )
    p.add_argument(
        "--frames", type=_positive_int, default=32, help="frame count for schedule printout"
    )
    p.set_defaults(func=cmd_masks)

    p = sub.add_parser("bench", help="per-stage timing on synthetic input")
    p.add_argument("--size", default="1080x1920", help="input dims HxW")
    p.add_argument("--reps", type=_positive_int, default=20)
    _add_sampler_flags(p, video=False)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("attn-check", help="run the numeric property suite")
    p.add_argument("--seeds", type=_positive_int, default=100)
    p.set_defaults(func=cmd_attn_check)

    p = sub.add_parser("verify", help="audits, partitions, determinism, numerics")
    p.add_argument("--seeds", type=_positive_int, default=25, help="property-suite seeds")
    p.add_argument("--seed-replay", type=_positive_int, default=2, dest="seed_replay")
    p.add_argument(
        "--inject-fault",
        action="store_true",
        dest="inject_fault",
        help="testing hook: corrupt one gathered byte to prove the audit trips",
    )
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed reader surfaces here, not at shutdown
        return code
    except BrokenPipeError:
        # The reader closed stdout (``sama verify | head -1``): stop quietly
        # with the shell's SIGPIPE status, and point stdout at devnull so
        # the flush at interpreter shutdown has nothing left to fail on.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except _IO_ERRORS as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except SamaError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
