"""Untraced measurement: the CLI commands as child processes, plus output checks."""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from workloads import GRID, Workload, proposals_arg, setup_scene, tree_digest

SETUPS = 3  # set-ups per run; setup_s is their median
EVAL_IOU = "0.1:0.7:0.1"
EVAL_THRESHOLDS = ["0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7"]
READ_SAMPLES = (2, 9)  # fewest and most read-side samples per run


class StepFailed(Exception):
    """A step whose output later steps need did not succeed."""


@dataclass
class Ledger:
    """Operations attempted and failed: a command exiting non-zero or a failed check."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def child_env(root: Path) -> dict:
    """Children import the package from source and use one BLAS thread each,
    so `--jobs N` means N busy threads."""
    return dict(
        os.environ,
        PYTHONPATH=str(root / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
    )


@dataclass
class Child:
    ok: bool
    seconds: float
    stdout: str


class ChildRunner:
    """Runs `python -m lidarpgt.cli` commands and keeps the largest peak RSS."""

    def __init__(self, root: Path, work: Path, ledger: Ledger):
        self.env = child_env(root)
        self.work = work
        self.ledger = ledger
        self.peak_rss_mb = 0.0

    def run(self, argv: list) -> Child:
        argv = [str(a) for a in argv]
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "lidarpgt.cli", *argv],
                stdout=out,
                stderr=err,
                env=self.env,
                cwd=self.work,
                start_new_session=True,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB and covers the child's own reaped workers.
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        stderr = err_path.read_text(errors="replace").strip().splitlines()
        ok = self.ledger.record(
            proc.returncode == 0,
            f"{argv[0]} exited {proc.returncode}: {stderr[-1] if stderr else ''}",
        )
        return Child(ok, seconds, out_path.read_text(errors="replace"))

    def require(self, argv: list) -> Child:
        child = self.run(argv)
        if not child.ok:
            raise StepFailed(self.ledger.problems[-1])
        return child


# ---------------------------------------------------------------------------
# output checks


def windows(cfg: dict) -> int:
    """Tracking windows, hence label files, that generate writes for a config."""
    return cfg["simulate"]["n_frames"] - cfg["scorer"]["k_frames"]


def check_generate(out: Path, n_windows: int, samples: int) -> str:
    """Problems in a generate output directory, or '' when it is well formed."""
    names = [f"{t:06d}" for t in range(n_windows)]
    labels = sorted(p.stem for p in (out / "label_pgt").glob("*.txt"))
    diags = sorted(p.stem for p in (out / "diagnostics").glob("*.json"))
    if labels != names or diags != names:
        return f"{out.name}: frames {labels} / {diags}, expected {n_windows}"
    for name in names:
        pixels = json.loads((out / "diagnostics" / f"{name}.json").read_text())["pixels"]
        lines = (out / "label_pgt" / f"{name}.txt").read_text().splitlines()
        boxed = [p for p in pixels if p["box_lidar"] is not None]
        keys = [tuple(p["pixel"]) for p in pixels]
        if len(pixels) != samples or keys != sorted(set(keys)):
            return f"{out.name}/{name}: {len(pixels)} pixels, expected {samples} distinct"
        if len(lines) != len(boxed):
            return f"{out.name}/{name}: {len(lines)} labels for {len(boxed)} U+ pixels"
        if not all(0.0 <= p["target_confidence"] <= 1.0 for p in pixels):
            return f"{out.name}/{name}: target confidence outside [0, 1]"
        for line in lines:
            fields = line.split()
            if len(fields) != 16 or fields[0] != "Mobile" or not 0 <= float(fields[15]) <= 1:
                return f"{out.name}/{name}: bad label line {line!r}"
    return ""


def check_report(path: Path) -> str:
    try:
        report = json.loads(path.read_text())
        values = [report["mean_ap"][t] for t in EVAL_THRESHOLDS]
    except (OSError, ValueError, KeyError) as exc:
        return f"{path.name}: {exc!r}"
    if not all(0.0 <= v <= 1.0 for v in values):
        return f"{path.name}: mAP outside [0, 1]"
    return ""


def check_loss(stdout: str, n_windows: int) -> str:
    lines = stdout.strip().splitlines()
    frames = [l for l in lines if l.startswith("frame ")]
    if len(frames) != n_windows or not lines or not lines[-1].startswith("total: "):
        return f"evaluate-loss printed {len(frames)} frame lines, expected {n_windows}"
    values = [float(tok.split("=")[-1]) for tok in lines[-1].split()[1:]]
    if not all(math.isfinite(v) and v >= 0 for v in values):
        return "evaluate-loss totals are not finite and non-negative"
    return ""


def check_render(ppm: Path, raster: Path) -> str:
    rows, cols = GRID["height"], GRID["width"]
    header = f"P6\n{cols} {rows}\n255\n".encode()
    data = ppm.read_bytes() if ppm.exists() else b""
    if not data.startswith(header) or len(data) != len(header) + rows * cols * 3:
        return f"{ppm.name}: not a {cols}x{rows} PPM"
    size = raster.stat().st_size if raster.exists() else -1
    if size != rows * cols * 3 * 4 or not Path(f"{raster}.json").exists():
        return f"{raster.name}: {size} bytes, expected a 3-channel float32 raster"
    return ""


# ---------------------------------------------------------------------------
# quality


def label_quality(seq: Path, labels: Path) -> dict:
    """Quality of pseudo-labels against the scene's ground truth, by BEV IoU.

    - label_precision_30: share of labels whose best IoU with a ground-truth
      box of their frame is at least 0.3;
    - gt_recall_30: share of ground-truth boxes in the labelled frames whose
      best IoU with a label of their frame is at least 0.3;
    - moving_recall_50: share of moving objects matched at IoU >= 0.5 in some
      frame. As in acceptance criterion 5, each label is credited to the
      ground-truth box it overlaps most, and an object counts once its best
      credited IoU reaches 0.5.
    """
    from lidarpgt.dataset import read_labels
    from lidarpgt.geometry import rotated_iou_bev

    moving = [o["moving"] for o in json.loads((seq / "scene_meta.json").read_text())["objects"]]
    best = [0.0] * len(moving)
    n_labels = n_precise = n_gts = n_recalled = 0
    for path in sorted(labels.glob("*.txt")):
        gts = read_labels(seq / "label_2" / path.name)
        ious = [[rotated_iou_bev(det.box, gt.box) for gt in gts] for det in read_labels(path)]
        for row in ious:
            j = max(range(len(row)), key=row.__getitem__)
            best[j] = max(best[j], row[j])
            n_precise += row[j] >= 0.3
        n_labels += len(ious)
        n_gts += len(gts)
        n_recalled += sum(1 for j in range(len(gts)) if any(row[j] >= 0.3 for row in ious))
    found = sum(1 for b, m in zip(best, moving) if m and b >= 0.5)
    return {
        "label_precision_30": n_precise / n_labels if n_labels else 0.0,
        "gt_recall_30": n_recalled / n_gts if n_gts else 0.0,
        "moving_recall_50": found / sum(moving),
    }


# ---------------------------------------------------------------------------
# the untraced run


def set_up(workload: Workload, seed: int, work: Path, runner: ChildRunner, ledger: Ledger):
    """Set up SETUPS times; returns (scene dir, set-up seconds, input digest)."""
    times, digests = [], []
    for i in range(SETUPS):
        scene = work / f"scene{i}"
        start = time.perf_counter()
        setup_scene(workload, seed, scene, runner.require)
        times.append(time.perf_counter() - start)
        digests.append(tree_digest(scene))
        if i:
            shutil.rmtree(scene)
    ledger.record(len(set(digests)) == 1, "set-up inputs differ between repeats of one seed")
    return work / "scene0", times, digests[0]


def generate_command(workload: Workload, scene: Path, sequence: Path, out: Path, jobs) -> list:
    return ["generate", sequence, "--out", out, "--proposals", proposals_arg(workload, scene),
            "--config", scene / "config.json", "--jobs", jobs]


def evaluate_command(seq: Path, pgt: Path, report: Path) -> list:
    return ["evaluate", "--dets", pgt / "label_pgt", "--gt", seq / "label_2", "--mode", "bev",
            "--iou", EVAL_IOU, "--out", report]


def reader_commands(workload: Workload, scene: Path, pgt: Path) -> list:
    """(name, argv, check) per read-side command; check(stdout) returns a problem or ''."""
    seq, config = scene / "seq", scene / "config.json"
    n_windows = windows(json.loads(config.read_text()))
    report, ppm, raster = (pgt.parent / f"{pgt.name}.{ext}" for ext in ("2d.json", "ppm", "bev"))
    evaluate_2d = ["evaluate", "--dets", pgt / "label_pgt", "--gt", seq / "label_2",
                   "--mode", "2d", "--calib", seq / "calib.txt", "--iou", EVAL_IOU,
                   "--out", report]
    loss = ["evaluate-loss", seq, "--pgt", pgt, "--proposals", proposals_arg(workload, scene),
            "--config", config]
    render = ["render", seq, "--frame", "0", "--overlays", "gt,pseudo", "--pgt", pgt,
              "--out", ppm, "--bev-raster", raster, "--config", config]
    commands = {
        "2d": ("evaluate-2d", evaluate_2d, lambda stdout: check_report(report)),
        "loss": ("evaluate-loss", loss, lambda stdout: check_loss(stdout, n_windows)),
        "render": ("render", render, lambda stdout: check_render(ppm, raster)),
    }
    return [commands[name] for name in workload.readers]


def run_untraced(workload: Workload, seed: int, seconds: float, work: Path, root: Path):
    """Returns (end-to-end metrics, details, ledger).

    Set-up, `generate --jobs 1`, `generate --jobs $(nproc)` and the read side.
    The read side is short and noisy, so it is sampled until the samples add
    up to `seconds`, half of them before and half after the parallel
    generate, and its medians are reported.
    """
    ledger = Ledger()
    runner = ChildRunner(root, work, ledger)
    details = {}
    evaluate, readers = [], []
    try:
        scene, setup_times, inputs = set_up(workload, seed, work, runner, ledger)
        details.update(setup_s=setup_times, inputs_digest=inputs)
        cfg = json.loads((scene / "config.json").read_text())
        seq, jobs = scene / "seq", len(os.sched_getaffinity(0))
        out1, out_n, report = work / "pgt_j1", work / "pgt_jn", work / "report.json"

        def read_side():
            evaluate.append(runner.require(evaluate_command(seq, out1, report)).seconds)
            problem = check_report(report)
            ledger.record(not problem, problem)
            total = 0.0
            for _, argv, check in reader_commands(workload, scene, out1):
                child = runner.run(argv)
                total += child.seconds
                if child.ok:
                    problem = check(child.stdout)
                    ledger.record(not problem, problem)
            readers.append(total)

        def read_until(budget, samples):
            while len(evaluate) < READ_SAMPLES[1] and (
                len(evaluate) < samples or sum(evaluate) + sum(readers) < budget
            ):
                read_side()

        gen1 = runner.require(generate_command(workload, scene, seq, out1, 1))
        read_until(seconds / 2, 1)
        gen_n = runner.require(generate_command(workload, scene, seq, out_n, jobs))
        read_until(seconds, READ_SAMPLES[0])
    except StepFailed:
        return {}, details, ledger
    for out in (out1, out_n):
        problem = check_generate(out, windows(cfg), cfg["sampler"]["sample_count"])
        ledger.record(not problem, problem)
    digest = tree_digest(out1 / "label_pgt", out1 / "diagnostics")
    ledger.record(
        digest == tree_digest(out_n / "label_pgt", out_n / "diagnostics"),
        f"labels differ between --jobs 1 and --jobs {jobs}",
    )
    quality = label_quality(seq, out1 / "label_pgt")
    details.update(
        generate_s=gen1.seconds,
        generate_par_s=gen_n.seconds,
        evaluate_s=evaluate,
        readers_s=readers,
        jobs=jobs,
        labels_digest=digest,
        bev_map_50=json.loads(report.read_text())["mean_ap"]["0.5"],
        moving_recall_50=quality["moving_recall_50"],
    )
    return {
        "setup_s": median(setup_times),
        "generate_s": gen1.seconds,
        "generate_par_s": gen_n.seconds,
        "evaluate_s": median(evaluate),
        "readers_s": median(readers),
        "peak_rss_mb": runner.peak_rss_mb,
        "label_precision_30": quality["label_precision_30"],
        "gt_recall_30": quality["gt_recall_30"],
    }, details, ledger
