"""Traced run: the CLI in-process, with spans around calls into each module.

Public functions are wrapped at the module attribute where their caller looks
them up, so the program itself carries no tracing code. A span records
(name, start, end, parent, root, failed, payload); spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import shutil
import time
from pathlib import Path

import numpy as np

from measure import (
    Ledger,
    StepFailed,
    check_generate,
    check_report,
    evaluate_command,
    generate_command,
    label_quality,
    reader_commands,
    windows,
)
from workloads import Workload, setup_scene, tree_digest

NAME, START, END, PARENT, ROOT, FAILED, PAYLOAD = range(7)


def _points(args, kwargs):
    return args[0] if args else kwargs["points"]


def _rows(args, kwargs, result):
    return len(_points(args, kwargs))


def _file_bytes(args, kwargs, result):
    path = Path(args[0])
    sidecar = Path(f"{path}.json")
    return (str(path), path.stat().st_size + (sidecar.stat().st_size if sidecar.exists() else 0))


def _label_counts(args, kwargs, result):
    return (len(result.u_plus), len(result.u_minus))


def _count(args, kwargs, result):
    return len(result)


# (module, attribute, span name, payload of a finished call)
WRAPS = [
    ("lidarpgt.cli", "make_scene", "simulate.make_scene", None),
    ("lidarpgt.cli", "write_scene", "simulate.write_scene", None),
    ("lidarpgt.dataset", "read_cloud", "dataset.read_cloud", _file_bytes),
    ("lidarpgt.dataset", "read_raster", "dataset.read_raster", _file_bytes),
    ("lidarpgt.cli", "write_labels", "dataset.write_labels", None),
    ("lidarpgt.cli", "heuristic_grid", "proposals.heuristic_grid", None),
    ("lidarpgt.cli", "grid_from_file", "proposals.grid_from_file", None),
    ("lidarpgt.cli", "generate_pseudo_labels", "pipeline.generate_pseudo_labels", _label_counts),
    ("lidarpgt.pipeline", "sample_pixels", "sampling.sample_pixels", _count),
    ("lidarpgt.pipeline", "smooth_confidence", "sampling.smooth_confidence", None),
    ("lidarpgt.pipeline", "track_points", "pipeline.track_points", _rows),
    ("lidarpgt.pipeline", "fit_obb", "pipeline.fit_obb", None),
    ("lidarpgt.cli", "evaluate_sequence", "evaluation.evaluate_sequence", None),
    ("lidarpgt.evaluation", "rotated_iou_bev", "geometry.rotated_iou_bev", None),
    ("lidarpgt.evaluation", "iou_2d", "geometry.iou_2d", None),
    ("lidarpgt.cli", "frame_loss_terms", "loss.frame_loss_terms", None),
    ("lidarpgt.render", "rasterize", "bev.rasterize", None),
    ("lidarpgt.bev", "rasterize", "bev.rasterize", None),
    ("lidarpgt.cli", "render_overlays", "render.render_overlays", None),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        # points handed to track_points, keyed by the enclosing generate span
        self.tracked = {}

    def wrap(self, name, fn, payload=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            root = self.spans[self._stack[0]][ROOT] if self._stack else index
            span = [name, time.perf_counter(), 0.0, parent, root, False, None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if payload is not None:
                span[PAYLOAD] = payload(args, kwargs, result)
            if name == "pipeline.track_points":
                self.tracked.setdefault(parent, []).append(_points(args, kwargs))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrapped functions in; names a refactor removed are skipped."""
        saved = []
        try:
            for module_name, attr, name, payload in WRAPS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if callable(fn):
                    saved.append((module, attr, fn))
                    setattr(module, attr, self.wrap(name, fn, payload))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def command(self, name, argv):
        """Run one CLI command in-process under a root span; returns (exit code, stdout)."""
        from lidarpgt import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.wrap(name, cli.main)(list(map(str, argv)))
        return code, out.getvalue()

    # -- aggregation ------------------------------------------------------

    def roots(self, name):
        return [i for i, s in enumerate(self.spans) if s[NAME] == name and s[PARENT] == -1]

    def under(self, root, name):
        """Indices of the spans called `name` inside the command span `root`."""
        return [i for i, s in enumerate(self.spans) if s[ROOT] == root and s[NAME] == name]

    def seconds(self, indices):
        return sum(self.spans[i][END] - self.spans[i][START] for i in indices)

    def self_time(self, indices):
        """Summed duration of the given spans minus that of their direct children."""
        parents = set(indices)
        children = [i for i, s in enumerate(self.spans) if s[PARENT] in parents]
        return self.seconds(indices) - self.seconds(children)

    def payloads(self, indices):
        return [self.spans[i][PAYLOAD] for i in indices]

    def distinct_tracked_rows(self):
        total = 0
        for arrays in self.tracked.values():
            rows = np.concatenate([np.asarray(a, dtype=float).reshape(-1, 3) for a in arrays])
            total += len(np.unique(rows, axis=0))
        self.tracked.clear()
        return total

    def dump(self):
        names = sorted({s[NAME] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "fields": ["name", "start", "end", "parent", "root", "failed", "payload"],
            "spans": [[code[s[NAME]], *s[1:]] for s in self.spans],
        }


def _per_call(seconds, calls, scale=1e6):
    return seconds / calls * scale if calls else 0.0


def _generate_metrics(tr: Tracer, root: int) -> dict:
    def seconds(name):
        return tr.seconds(tr.under(root, name))

    reads = tr.under(root, "dataset.read_cloud") + tr.under(root, "dataset.read_raster")
    read_sizes = tr.payloads(reads)
    read_bytes = sum(size for _, size in read_sizes)
    distinct_bytes = sum(dict(read_sizes).values())
    tracks = tr.under(root, "pipeline.track_points")
    track_rows = sum(tr.payloads(tracks))
    distinct_rows = tr.distinct_tracked_rows()
    fits = tr.under(root, "pipeline.fit_obb")
    smooth = tr.under(root, "sampling.smooth_confidence")
    gens = tr.under(root, "pipeline.generate_pseudo_labels")
    u_plus = sum(n for n, _ in tr.payloads(gens))
    u_minus = sum(n for _, n in tr.payloads(gens))
    sampled = sum(tr.payloads(tr.under(root, "sampling.sample_pixels")))
    return {
        "dataset.read_s": tr.seconds(reads),
        "dataset.read_calls": len(reads),
        "dataset.read_mb": read_bytes / 2**20,
        "dataset.reread_ratio": read_bytes / distinct_bytes if distinct_bytes else 0.0,
        "dataset.write_labels_s": seconds("dataset.write_labels"),
        "proposals.heuristic_grid_s": seconds("proposals.heuristic_grid"),
        "proposals.grid_from_file_s": seconds("proposals.grid_from_file"),
        "sampling.sample_pixels_s": seconds("sampling.sample_pixels"),
        "sampling.smooth_confidence_s": tr.seconds(smooth),
        "sampling.smooth_calls": len(smooth),
        "sampling.smooth_us_per_call": _per_call(tr.seconds(smooth), len(smooth)),
        "pipeline.generate_s": tr.seconds(gens),
        "pipeline.self_s": tr.self_time(gens),
        "pipeline.track_points_s": tr.seconds(tracks),
        "pipeline.track_calls": len(tracks),
        "pipeline.track_rows": track_rows,
        "pipeline.track_distinct_rows": distinct_rows,
        "pipeline.track_redundancy": track_rows / distinct_rows if distinct_rows else 0.0,
        "pipeline.track_us_per_call": _per_call(tr.seconds(tracks), len(tracks)),
        "pipeline.fit_obb_s": tr.seconds(fits),
        "pipeline.fit_calls": len(fits),
        "pipeline.fit_degenerate": sum(1 for i in fits if tr.spans[i][FAILED]),
        "pipeline.u_plus": u_plus,
        "pipeline.u_minus": u_minus,
        "pipeline.u_plus_ratio": u_plus / sampled if sampled else 0.0,
        "cli.self_s": tr.self_time([root]),
    }


def _pairs(labels: Path, gt: Path) -> int:
    """Detection/ground-truth pairs the evaluator can compare, frame by frame."""
    pairs = 0
    for path in gt.glob("*.txt"):
        det = labels / path.name
        n_det = len(det.read_text().splitlines()) if det.exists() else 0
        pairs += n_det * len(path.read_text().splitlines())
    return pairs


def _evaluate_metrics(tr: Tracer, root: int, pairs: int, report: Path) -> dict:
    ious = tr.under(root, "geometry.rotated_iou_bev")
    return {
        "geometry.rotated_iou_s": tr.seconds(ious),
        "geometry.rotated_iou_calls": len(ious),
        "geometry.rotated_iou_us_per_call": _per_call(tr.seconds(ious), len(ious)),
        "evaluation.evaluate_s": tr.seconds(tr.under(root, "evaluation.evaluate_sequence")),
        "evaluation.pairs": pairs,
        "evaluation.iou_calls_per_pair": len(ious) / pairs if pairs else 0.0,
        "quality.bev_map_50": json.loads(report.read_text())["mean_ap"]["0.5"],
    }


# Counters that must repeat exactly between two traced runs of one input.
REPEATED = (
    "pipeline.track_rows",
    "pipeline.fit_calls",
    "geometry.rotated_iou_calls",
    "evaluation.pairs",
    "dataset.read_calls",
)


def _one_window(seq: Path, k_frames: int, out: Path):
    """Copy the first k_frames + 1 frames of a sequence: a single tracking window."""
    out.mkdir()
    for name in ("calib.txt", "poses.txt"):
        shutil.copy(seq / name, out / name)
    for sub in ("velodyne", "depth", "flow"):
        (out / sub).mkdir()
        for t in range(k_frames + 1):
            for path in (seq / sub).glob(f"{t:06d}.*"):
                shutil.copy(path, out / sub / path.name)


def run_traced(workload: Workload, seed: int, work: Path):
    """Returns (per-layer metrics, details, ledger).

    Two traced runs of generate and evaluate over the workload (the first also
    runs set-up and the read-side commands), then one window generated without
    and with tracing for the overhead ratio.
    """
    ledger = Ledger()
    tracers = [Tracer(), Tracer()]
    scene = work / "scene"

    def cli(tracer, name, argv):
        code, stdout = tracer.command(name, argv)
        ok = ledger.record(code == 0, f"{name} exited {code}")
        if not ok:
            raise StepFailed(f"{name} exited {code}")
        return stdout

    try:
        with tracers[0].installed():
            setup_scene(workload, seed, scene, lambda argv: cli(tracers[0], "cli.simulate", argv))
        seq = scene / "seq"
        cfg = json.loads((scene / "config.json").read_text())
        metrics, digests = {}, []
        for run, tracer in enumerate(tracers):
            out, report = work / f"traced{run}", work / f"report{run}.json"
            with tracer.installed():
                cli(tracer, "cli.generate", generate_command(workload, scene, seq, out, 1))
                cli(tracer, "cli.evaluate", evaluate_command(seq, out, report))
                if run == 0:
                    for name, argv, check in reader_commands(workload, scene, out):
                        problem = check(cli(tracer, f"cli.{name}", argv))
                        ledger.record(not problem, problem)
            problem = check_generate(out, windows(cfg), cfg["sampler"]["sample_count"])
            ledger.record(not problem, problem)
            problem = check_report(report)
            ledger.record(not problem, problem)
            digests.append(tree_digest(out / "label_pgt", out / "diagnostics"))
            found = _generate_metrics(tracer, tracer.roots("cli.generate")[0])
            found.update(_evaluate_metrics(
                tracer, tracer.roots("cli.evaluate")[0],
                _pairs(out / "label_pgt", seq / "label_2"), report,
            ))
            if run == 0:
                metrics = found
                metrics.update(_reader_metrics(tracer))
                quality = label_quality(seq, out / "label_pgt")
                metrics["quality.moving_recall_50"] = quality["moving_recall_50"]
            else:
                for key in REPEATED:
                    ledger.record(
                        found[key] == metrics[key],
                        f"{key} differs between traced runs: {metrics[key]} vs {found[key]}",
                    )
        ledger.record(digests[0] == digests[1], "labels differ between the traced runs")

        window = work / "window"
        _one_window(seq, cfg["scorer"]["k_frames"], window)
        # The window runs untraced, then traced, once everything is warm.
        seconds, window_digests = {}, []
        for traced in (False, True):
            tracer, out = Tracer(), work / f"window-traced{int(traced)}"
            with tracer.installed() if traced else contextlib.nullcontext():
                cli(tracer, "cli.generate", generate_command(workload, scene, window, out, 1))
            seconds[traced] = tracer.seconds(tracer.roots("cli.generate"))
            window_digests.append(tree_digest(out / "label_pgt", out / "diagnostics"))
        ledger.record(window_digests[0] == window_digests[1], "tracing changed the labels")
    except StepFailed:
        return {}, {}, ledger
    metrics["trace.overhead_ratio"] = seconds[True] / seconds[False]
    details = {
        "labels_digest": digests[0],
        "window_generate_s": {"untraced": seconds[False], "traced": seconds[True]},
        "spans": [t.dump() for t in tracers],
    }
    return metrics, details, ledger


def _reader_metrics(tracer: Tracer) -> dict:
    def command_total(command, name):
        return sum(tracer.seconds(tracer.under(r, name)) for r in tracer.roots(command))

    return {
        "simulate.make_scene_s": command_total("cli.simulate", "simulate.make_scene"),
        "simulate.write_scene_s": command_total("cli.simulate", "simulate.write_scene"),
        "geometry.iou_2d_calls": sum(
            len(tracer.under(r, "geometry.iou_2d")) for r in tracer.roots("cli.evaluate-2d")
        ),
        "loss.frame_loss_terms_s": command_total("cli.evaluate-loss", "loss.frame_loss_terms"),
        "bev.rasterize_s": command_total("cli.render", "bev.rasterize"),
        "render.render_overlays_s": command_total("cli.render", "render.render_overlays"),
    }
