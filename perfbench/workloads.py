"""The benchmark's workloads: each drives ``pipeline.train_run`` or
``pipeline.eval_run`` in a closed loop (one entry call after another, in one
process) and checks what the call produced."""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import resource
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import bevfuse.detect
import bevfuse.pipeline as pipeline
from bevfuse.config import load_config
from bevfuse.data import AugmentationConfig
from bevfuse.tensor import Adam, load_checkpoint, save_checkpoint

from reference import REF_S, reference_s
from spans import Patcher, Tracer, per_layer_metrics

_IOU = bevfuse.detect.rotated_iou_bev     # unwrapped, for output checks


@dataclass(frozen=True)
class Workload:
    name: str
    config: str                 # path relative to the repository root
    kind: str                   # "train" or "eval"
    per_call: int               # steps (train) or frames (eval) per entry call
    call_s: float               # seconds per call at the reference speed
    augment: bool = False
    why: str = ""


WORKLOADS = {w.name: w for w in (
    Workload("overfit_train", "configs/overfit.yaml", "train", 40, 4.3,
             why="4 fixed scenes, plans built once in setup: each step is conv "
                 "forward/backward and Adam"),
    Workload("augment_train", "configs/overfit.yaml", "train", 10, 4.9, augment=True,
             why="augmentation on: every step re-plans fusion (k-d tree), "
                 "voxelizes and assigns anchors for 4 scenes"),
    Workload("eval_sweep", "configs/default.yaml", "eval", 1, 0.27,
             why="forward only on seeded initial weights, one frame per init: "
                 "near-uniform scores make rotated-IoU NMS and AP matching dominate"),
)}

# end-to-end metrics every workload reports; an "iteration" is a training
# step or an evaluated frame
END_TO_END = {
    "setup_s": "s", "run_s": "s", "iter_ms_p50": "ms", "iter_ms_p90": "ms",
    "scenes_per_s": "1/s", "peak_rss_mb": "MB",
}
# enough iterations for the p90 to have ten samples beyond it
MIN_SAMPLES = 100
MIN_CALLS = 3


def make_config(root: str, wl: Workload, call_seed: int, per_call: int):
    cfg = load_config(os.path.join(root, wl.config), environ={})
    cfg.seed = call_seed
    # distinct seeds give disjoint scene sets (scene i uses data seed + i)
    cfg.data.synthetic.seed = call_seed * 1000
    if wl.kind == "train":
        cfg.optimizer.steps = per_call
        cfg.data.augment = AugmentationConfig() if wl.augment else None
    else:
        cfg.data.n_scenes = per_call
    return cfg


class Clock:
    """Timestamps at step and frame boundaries; installed for every call.

    At the entry, the first step or frame, the end of every step and frame
    and the return, the clock times the reference kernel (a *sample*).
    Timestamps leave out the time spent in the kernel, and ``scaled`` turns
    an interval into seconds at the reference speed.
    """

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.entry = 0.0
        self.first = None           # start of the first step or frame
        self.steps_begun = 0
        self.in_step = False
        self.step_ends: list[float] = []
        self.frames: list[tuple[float, float]] = []
        self.kept: list[list] = []
        self.evals: list[tuple[float, float]] = []
        self.paused = 0.0           # seconds spent in the reference kernel
        self.sample_t: list[float] = []
        self.sample_s: list[float] = []
        self._patcher = Patcher()

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def sample(self) -> float:
        """Times the reference kernel; returns the (paused) time of the sample."""
        t0 = time.perf_counter()
        ref = reference_s()
        self.paused += time.perf_counter() - t0
        t = self.now()
        self.sample_t.append(t)
        self.sample_s.append(ref)
        return t

    def scaled(self, a: float, b: float) -> float:
        """Seconds from ``a`` to ``b`` at the reference speed: each piece
        between two samples is scaled by ``REF_S`` over their mean."""
        ts, rs = self.sample_t, self.sample_s
        lo = bisect.bisect_right(ts, a) - 1
        hi = bisect.bisect_left(ts, b)
        assert lo >= 0 and hi < len(ts), "interval not bracketed by samples"
        cuts = [a, *ts[lo + 1:hi], b]
        return REF_S * sum((y - x) * 2.0 / (rs[lo + j] + rs[lo + j + 1])
                           for j, (x, y) in enumerate(zip(cuts, cuts[1:])))

    def _mark_first(self):
        if self.first is None:
            self.first = self.sample()
            if self.tracer is not None:
                self.tracer.spans.unit_id = 0

    def install(self):
        clock = self

        def step_begin(f):
            def wrapped(*args, **kwargs):
                if not clock.in_step:
                    clock.in_step = True
                    clock.steps_begun += 1
                    clock._mark_first()
                return f(*args, **kwargs)
            return wrapped

        def step(f):
            def wrapped(opt):
                out = f(opt)
                clock.in_step = False
                clock.step_ends.append(clock.sample())
                if clock.tracer is not None:
                    clock.tracer.next_unit()
                return out
            return wrapped

        def detect(f):
            def wrapped(*args, **kwargs):
                if clock.tracer is not None and not clock.step_ends:
                    clock.tracer.spans.unit_id = len(clock.frames)
                clock._mark_first()
                t0 = clock.now()
                kept = f(*args, **kwargs)
                clock.frames.append((t0, clock.sample()))
                clock.kept.append(kept)
                return kept
            return wrapped

        def evaluate(f):
            def wrapped(*args, **kwargs):
                t0 = clock.now()
                out = f(*args, **kwargs)
                clock.evals.append((t0, clock.now()))
                return out
            return wrapped

        p = self._patcher
        p.replace(pipeline, "augment", step_begin)
        p.replace(pipeline, "scene_loss", step_begin)
        p.replace(Adam, "step", step)
        p.replace(pipeline, "detect_scene", detect)
        p.replace(pipeline, "evaluate_model", evaluate)

    def uninstall(self):
        self._patcher.restore()


@dataclass
class CallResult:
    traced: bool
    setup_s: float                      # times at the reference speed, seconds
    run_s: float
    iters: list[float]                  # step intervals or frame times
    frame_times: list[float]
    scenes: int                         # scenes processed in the timed loop
    loop_s: float                       # time of that loop
    wall_iters: list[float]             # iters as measured, not scaled
    reference_s: list[float]            # the samples of the reference kernel
    attempted: int
    failed: int
    digest: str
    report: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def check_frame(kept, score_threshold: float, max_out: int, nms_iou: float) -> list[str]:
    """NMS output invariants: sorted by score, above threshold, at most
    max_out boxes, and no kept pair overlapping at nms_iou or more."""
    problems = []
    scores = [b.score for b in kept]
    if any(a < b for a, b in zip(scores, scores[1:])):
        problems.append("kept boxes not sorted by score")
    if any(s < score_threshold for s in scores):
        problems.append("kept box below score_threshold")
    if len(kept) > max_out:
        problems.append(f"{len(kept)} boxes kept, max {max_out}")
    if len(kept) > 1:
        xy = np.array([[b.x, b.y] for b in kept])
        r = np.array([0.5 * math.hypot(b.w, b.h) for b in kept])
        dist = np.hypot(xy[:, None, 0] - xy[None, :, 0], xy[:, None, 1] - xy[None, :, 1])
        # boxes whose bounding circles are apart cannot overlap
        for i, j in zip(*np.nonzero(np.triu(dist < r[:, None] + r[None, :], 1))):
            if _IOU(kept[i], kept[j]) >= nms_iou:
                problems.append(f"kept pair ({i}, {j}) overlaps")
    return problems


def _frames_digest(kept_sets) -> str:
    h = hashlib.sha256()
    for kept in kept_sets:
        h.update(repr([(b.x, b.y, b.w, b.h, b.t, b.score) for b in kept]).encode())
    return h.hexdigest()[:16]


def run_call(root: str, wl: Workload, call_seed: int, per_call: int, work: str,
             tracer: Tracer | None) -> CallResult:
    """One entry call, timed by a ``Clock`` and traced when ``tracer`` is set."""
    cfg = make_config(root, wl, call_seed, per_call)
    out_dir = os.path.join(work, "run")
    shutil.rmtree(out_dir, ignore_errors=True)
    ckpt = os.path.join(work, "init.bin")
    if wl.kind == "eval":
        # the seeded initial weights, written before the call is timed
        save_checkpoint(pipeline.build_model(cfg).parameters(), ckpt)
    clock = Clock(tracer)
    problems: list[str] = []
    numeric_error = False
    if tracer is not None:
        tracer.spans.unit_id = -1
        tracer.install()
    clock.install()
    try:
        clock.entry = clock.sample()
        try:
            if wl.kind == "train":
                report = pipeline.train_run(cfg, out_dir)
            else:
                report = pipeline.eval_run(cfg, ckpt, out_dir)
        except pipeline.NumericError as exc:
            report = {}
            problems.append(f"NumericError: {exc}")
            numeric_error = True
        end = clock.sample()
    finally:
        clock.uninstall()
        if tracer is not None:
            tracer.uninstall()

    failed = int(numeric_error)
    ec = cfg.eval
    for kept in clock.kept:
        bad = check_frame(kept, ec.score_threshold, ec.nms_max_out, ec.nms_iou)
        problems += bad
        failed += bool(bad)
    ap = report.get("ap")
    if report and not (ap is None or 0.0 <= ap <= 1.0):
        problems.append(f"ap {ap} outside [0, 1]")
        failed += 1
    frame_times = [clock.scaled(a, b) for a, b in clock.frames]
    if wl.kind == "train":
        ends = clock.step_ends
        bounds = list(zip([clock.first, *ends], ends))
        iters = [clock.scaled(a, b) for a, b in bounds]
        wall_iters = [b - a for a, b in bounds]
        scenes = cfg.data.n_scenes * len(ends)
        loop_s = clock.scaled(clock.first, ends[-1]) if ends else 0.0
        attempted = clock.steps_begun + len(clock.frames)
        digest, bad = _check_train_outputs(out_dir, report)
        problems += bad
        failed += bool(bad)
    else:
        iters = frame_times
        wall_iters = [b - a for a, b in clock.frames]
        scenes = len(clock.frames)
        loop_s = sum(clock.scaled(a, b) for a, b in clock.evals)
        attempted = len(clock.frames)
        digest = _frames_digest(clock.kept) + f"/ap={ap!r}"
    shutil.rmtree(out_dir, ignore_errors=True)
    return CallResult(traced=tracer is not None,
                      setup_s=clock.scaled(clock.entry, clock.first or end),
                      run_s=clock.scaled(clock.entry, end), iters=iters,
                      frame_times=frame_times, scenes=scenes, loop_s=loop_s,
                      wall_iters=wall_iters, reference_s=clock.sample_s,
                      attempted=max(attempted, 1),
                      failed=failed, digest=digest, report=report, problems=problems)


def _check_train_outputs(out_dir: str, report: dict) -> tuple[str, list[str]]:
    """Digest of the per-step loss log, plus finiteness of losses and of the
    final parameters."""
    problems = []
    log_path = os.path.join(out_dir, "train_log.jsonl")
    with open(log_path, "rb") as f:
        raw = f.read()
    losses = [json.loads(line)["L"] for line in raw.splitlines()]
    if not all(math.isfinite(v) for v in losses):
        problems.append("non-finite loss in train_log.jsonl")
    if report:
        params = load_checkpoint(os.path.join(out_dir, "ckpt_final.bin"))
        if not all(np.isfinite(p).all() for p in params.values()):
            problems.append("non-finite final parameter")
        if losses and report.get("final_loss") != losses[-1]:
            problems.append("final_loss differs from the last logged loss")
    return hashlib.sha256(raw).hexdigest()[:16], problems


def _pct(values, q) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else float("nan")


def call_count(wl: Workload, seconds: float, per_call: int,
               min_samples: int = MIN_SAMPLES, min_calls: int = MIN_CALLS) -> int:
    """Entry calls in a run: about ``seconds`` of work at the nominal call
    time, with at least ``min_calls`` calls and ``min_samples`` iterations."""
    return max(min_calls, math.ceil(min_samples / per_call),
               round(seconds / wl.call_s * wl.per_call / per_call))


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool,
                 work: str, per_call: int | None = None,
                 min_samples: int = MIN_SAMPLES, min_calls: int = MIN_CALLS) -> dict:
    """A closed loop of entry calls, one after another in this process.

    Call ``k`` uses model and data seeds derived from ``(seed, k)``, so a run
    averages over several initialisations and scene sets, and the same seed
    and ``seconds`` give the same inputs. With ``trace``, each input is run
    twice, untraced and then traced; the two must give identical outputs,
    and the result holds per-layer metrics from the traced calls.
    """
    wl = WORKLOADS[name]
    per_call = per_call or wl.per_call
    n = call_count(wl, seconds, per_call, min_samples, min_calls)
    os.makedirs(work, exist_ok=True)
    tracer = Tracer() if trace else None
    calls: list[CallResult] = []
    problems: list[str] = []
    failed = 0
    for k in range(max(n // 2, 1) if trace else n):
        call_seed = seed * 1000 + k
        calls.append(run_call(root, wl, call_seed, per_call, work, None))
        if trace:
            calls.append(run_call(root, wl, call_seed, per_call, work, tracer))
            if calls[-1].digest != calls[-2].digest:
                problems.append(f"tracing changed the outputs of call {k}")
                failed += 1

    problems += [p for c in calls for p in c.problems]
    failed += sum(c.failed for c in calls)
    attempted = sum(c.attempted for c in calls)
    untraced = [c for c in calls if not c.traced]
    iters = [t for c in untraced for t in c.iters]
    frames = [t for c in untraced for t in c.frame_times]
    loop_s = sum(c.loop_s for c in untraced)
    scenes_per_s = sum(c.scenes for c in untraced) / loop_s if loop_s > 0 else 0.0
    e2e = {
        "setup_s": float(np.median([c.setup_s for c in untraced])),
        "run_s": float(np.median([c.run_s for c in untraced])),
        "iter_ms_p50": _pct(iters, 50) * 1e3,
        "iter_ms_p90": _pct(iters, 90) * 1e3,
        "scenes_per_s": scenes_per_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    digest = hashlib.sha256(" ".join(c.digest for c in untraced).encode()).hexdigest()[:16]
    # the issue-level names for this workload; not gated, because final_loss
    # and ap change with the seed and failed_ratio is 0 on a correct run
    named = {"failed_ratio": (failed / attempted, "ratio"),
             "final_loss": ([c.report.get("final_loss") for c in untraced], "loss"),
             "ap": ([c.report.get("ap") for c in untraced], "AP"),
             "frame_ms_p50": (_pct(frames, 50) * 1e3, "ms")}
    if len(frames) >= MIN_SAMPLES:
        named["frame_ms_p90"] = (_pct(frames, 90) * 1e3, "ms")
    if wl.kind == "train":
        named.update(step_ms_p50=(e2e["iter_ms_p50"], "ms"),
                     step_ms_p90=(e2e["iter_ms_p90"], "ms"),
                     train_scenes_per_s=(scenes_per_s, "1/s"))
    else:
        named["eval_frames_per_s"] = (scenes_per_s, "1/s")
    result = {"workload": name, "seed": seed, "trace": int(trace),
              "attempted": attempted, "failed": failed, "problems": problems,
              "end_to_end": {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()},
              "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
              "detail": {"calls": len(calls), "per_call": per_call,
                         "iter_samples": len(iters), "frame_samples": len(frames),
                         "digest": digest,
                         "wall_iter_ms_p50": _pct([t for c in untraced
                                                   for t in c.wall_iters], 50) * 1e3,
                         "reference_ms_p50": _pct([t for c in untraced
                                                   for t in c.reference_s], 50) * 1e3,
                         "iter_ms": [[round(t * 1e3, 4) for t in c.iters] for c in untraced],
                         "setup_s": [round(c.setup_s, 6) for c in untraced]}}
    if trace:
        traced = [c for c in calls if c.traced]
        units = sum(len(c.iters) for c in traced)
        p50_off = e2e["iter_ms_p50"] / 1e3
        p50_on = _pct([t for c in traced for t in c.iters], 50)
        result["per_layer"] = per_layer_metrics(tracer, units,
                                                (p50_on - p50_off) / p50_off * 100)
        result["missing_wrappers"] = tracer.missing(name)
        result["tracer"] = tracer
    return result
